#include "arch/rr_graph.h"

#include "support/error.h"

namespace fpgadbg::arch {

RRGraph::RRGraph(const Device& device)
    : device_(device),
      width_(device.width()),
      height_(device.height()),
      tracks_(device.params().channel_width) {
  const std::size_t ntiles = static_cast<std::size_t>(width_ * height_);
  const std::size_t nwires = ntiles * static_cast<std::size_t>(tracks_);
  nodes_.reserve(2 * ntiles + 2 * nwires);

  const auto push = [&](RRKind kind, int x, int y, int track, int capacity) {
    nodes_.push_back(RRNode{static_cast<std::int16_t>(x),
                            static_cast<std::int16_t>(y),
                            static_cast<std::int16_t>(track),
                            static_cast<std::int16_t>(capacity), kind});
  };

  // Each BLE exposes both its LUT output and its FF (Q) output, so a
  // cluster can source up to 2N distinct signals.
  const int n_out = 2 * device.params().cluster_size;
  const int n_in = device.params().effective_cluster_inputs();

  base_opin_ = 0;
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) push(RRKind::kOpin, x, y, -1, n_out);
  }
  base_ipin_ = static_cast<RRNodeId>(nodes_.size());
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) push(RRKind::kIpin, x, y, -1, n_in);
  }
  base_chanx_ = static_cast<RRNodeId>(nodes_.size());
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int t = 0; t < tracks_; ++t) push(RRKind::kChanX, x, y, t, 1);
    }
  }
  base_chany_ = static_cast<RRNodeId>(nodes_.size());
  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      for (int t = 0; t < tracks_; ++t) push(RRKind::kChanY, x, y, t, 1);
    }
  }

  // Collect edges in construction order, then pack them into CSR form:
  // counting sort by source node, preserving insertion order within a node.
  // min_nodes_to_ipin (rr_graph.h) is the closed-form distance over exactly
  // these edges; a change to the wiring changes it too.
  std::vector<RREdge> raw;
  raw.reserve(nwires * 10);
  const auto add_edge = [&](RRNodeId from, RRNodeId to) {
    raw.push_back(RREdge{from, to});
  };

  for (int y = 0; y < height_; ++y) {
    for (int x = 0; x < width_; ++x) {
      const RRNodeId opin = opin_at(x, y);
      const RRNodeId ipin = ipin_at(x, y);
      for (int t = 0; t < tracks_; ++t) {
        const RRNodeId cx = chanx_at(x, y, t);
        const RRNodeId cy = chany_at(x, y, t);
        // Block output onto both channels.
        add_edge(opin, cx);
        add_edge(opin, cy);
        // Wires into the block input.
        add_edge(cx, ipin);
        add_edge(cy, ipin);
        // Wires into the neighbouring block's input (a wire borders two
        // tiles).
        if (x + 1 < width_) add_edge(cx, ipin_at(x + 1, y));
        if (y + 1 < height_) add_edge(cy, ipin_at(x, y + 1));
        // Wire continuation.
        if (x + 1 < width_) {
          add_edge(cx, chanx_at(x + 1, y, t));
          add_edge(chanx_at(x + 1, y, t), cx);
        }
        if (y + 1 < height_) {
          add_edge(cy, chany_at(x, y + 1, t));
          add_edge(chany_at(x, y + 1, t), cy);
        }
        // Wilton-lite turns within the switch box.
        const int turn = (t + 1) % tracks_;
        add_edge(cx, chany_at(x, y, turn));
        add_edge(chany_at(x, y, turn), cx);
      }
    }
  }

  edge_offsets_.assign(nodes_.size() + 1, 0);
  for (const RREdge& e : raw) ++edge_offsets_[e.from + 1];
  for (std::size_t n = 1; n <= nodes_.size(); ++n) {
    edge_offsets_[n] += edge_offsets_[n - 1];
  }
  edges_.resize(raw.size());
  std::vector<RREdgeId> cursor(edge_offsets_.begin(), edge_offsets_.end() - 1);
  for (const RREdge& e : raw) edges_[cursor[e.from]++] = e;
}

RRNodeId RRGraph::opin_at(int x, int y) const {
  FPGADBG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_, "opin range");
  return base_opin_ + static_cast<RRNodeId>(y * width_ + x);
}

RRNodeId RRGraph::ipin_at(int x, int y) const {
  FPGADBG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_, "ipin range");
  return base_ipin_ + static_cast<RRNodeId>(y * width_ + x);
}

RRNodeId RRGraph::chanx_at(int x, int y, int track) const {
  FPGADBG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_ && track >= 0 &&
                     track < tracks_,
                 "chanx range");
  return base_chanx_ +
         static_cast<RRNodeId>((y * width_ + x) * tracks_ + track);
}

RRNodeId RRGraph::chany_at(int x, int y, int track) const {
  FPGADBG_ASSERT(x >= 0 && x < width_ && y >= 0 && y < height_ && track >= 0 &&
                     track < tracks_,
                 "chany range");
  return base_chany_ +
         static_cast<RRNodeId>((y * width_ + x) * tracks_ + track);
}

}  // namespace fpgadbg::arch
