// Routing-resource graph (VPR-style, simplified).
//
// Nodes are physical routing resources: block output pins (OPIN), block
// input pins (IPIN), and unit-length wire segments in the horizontal (CHANX)
// and vertical (CHANY) channels of every tile.  Edges are programmable
// switches.  The router (pnr/route.h) negotiates congestion over this graph;
// the bitstream generator assigns one configuration bit per switch.
//
// Connectivity (per tile, track t, channel width W):
//   OPIN(x,y)       -> CHANX(x,y,t), CHANY(x,y,t)           (full Fc_out)
//   CHANX(x,y,t)    -> CHANX(x±1,y,t)                       (wire continues)
//   CHANY(x,y,t)    -> CHANY(x,y±1,t)
//   CHANX(x,y,t)    -> CHANY(x,y,(t+1)%W) and back          (Wilton-lite turn)
//   CHANX/Y(x,y,t)  -> IPIN(x,y), IPIN of the adjacent tile
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "arch/device.h"

namespace fpgadbg::arch {

enum class RRKind : std::uint8_t { kOpin, kIpin, kChanX, kChanY };

/// Field order packs the struct to 10 bytes, so the router's reads of the
/// node array stay dense.
struct RRNode {
  std::int16_t x;
  std::int16_t y;
  std::int16_t track;    ///< -1 for pins
  std::int16_t capacity; ///< wires 1; pins = pin count of the block
  RRKind kind;
};
static_assert(sizeof(RRNode) == 10, "RRNode must stay 10 bytes");

using RRNodeId = std::uint32_t;
using RREdgeId = std::uint32_t;

struct RREdge {
  RRNodeId from;
  RRNodeId to;
};

/// Contiguous run of edge ids [first, first + count).  The adjacency is
/// stored in CSR form, so a node's outgoing edges are consecutive ids and
/// iterating a span walks the edge array linearly (cache-friendly for the
/// router's wavefront expansion).
class RREdgeSpan {
 public:
  class iterator {
   public:
    explicit iterator(RREdgeId e) : e_(e) {}
    RREdgeId operator*() const { return e_; }
    iterator& operator++() {
      ++e_;
      return *this;
    }
    bool operator!=(const iterator& o) const { return e_ != o.e_; }
    bool operator==(const iterator& o) const { return e_ == o.e_; }

   private:
    RREdgeId e_;
  };

  RREdgeSpan(RREdgeId first, RREdgeId last) : first_(first), last_(last) {}
  iterator begin() const { return iterator(first_); }
  iterator end() const { return iterator(last_); }
  std::size_t size() const { return last_ - first_; }
  bool empty() const { return first_ == last_; }

 private:
  RREdgeId first_;
  RREdgeId last_;
};

/// Built from the device on every compile and warm replay; never loaded
/// from the artifact cache (rebuilding it is cheaper than validating a
/// cached copy).
class RRGraph {
 public:
  explicit RRGraph(const Device& device);

  const Device& device() const { return device_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_edges() const { return edges_.size(); }
  const RRNode& node(RRNodeId id) const { return nodes_[id]; }
  const RREdge& edge(RREdgeId id) const { return edges_[id]; }

  /// Outgoing edge ids of a node: a contiguous CSR span, so the ids are
  /// consecutive and edge(e).to reads walk memory linearly.
  RREdgeSpan out_edges(RRNodeId id) const {
    return RREdgeSpan(edge_offsets_[id], edge_offsets_[id + 1]);
  }

  RRNodeId opin_at(int x, int y) const;
  RRNodeId ipin_at(int x, int y) const;
  RRNodeId chanx_at(int x, int y, int track) const;
  RRNodeId chany_at(int x, int y, int track) const;

  /// The exact number of RR nodes a path from `from` must still enter to
  /// reach the IPIN of tile (tx, ty), that IPIN included: the breadth-first
  /// distance on the empty fabric over the edges the constructor builds,
  /// never through another IPIN, in closed form.  A wire borders two
  /// tiles, so along its own channel it is `span` hops from a wire that
  /// enters IPIN(tx, ty); off the target's row (CHANX) or column (CHANY) it
  /// runs to the target's column (row) and turns there, one node more.
  /// Track choice never matters: every track turns and every IPIN accepts
  /// every track.  An IPIN reads 0: the router enters no IPIN but its
  /// target.
  int min_nodes_to_ipin(RRNodeId from, int tx, int ty) const {
    const RRNode& nd = nodes_[from];
    // Hops along one channel from coordinate v to a wire bordering tile t,
    // i.e. to coordinate t - 1 or t.
    const auto span = [](int v, int t) {
      return std::max({0, t - 1 - v, v - t});
    };
    const auto chanx = [&](int x, int y) {
      return y == ty ? span(x, tx) + 1
                     : std::abs(x - tx) + span(y, ty) + 2;
    };
    const auto chany = [&](int x, int y) {
      return x == tx ? span(y, ty) + 1
                     : std::abs(y - ty) + span(x, tx) + 2;
    };
    switch (nd.kind) {
      case RRKind::kChanX:
        return chanx(nd.x, nd.y);
      case RRKind::kChanY:
        return chany(nd.x, nd.y);
      case RRKind::kOpin:
        return 1 + std::min(chanx(nd.x, nd.y), chany(nd.x, nd.y));
      case RRKind::kIpin:
        break;
    }
    return 0;
  }

 private:
  const Device& device_;
  std::vector<RRNode> nodes_;
  /// CSR adjacency: edges is sorted by `from` (insertion order preserved
  /// within one source node); edge_offsets[n]..edge_offsets[n+1] indexes
  /// node n's outgoing edges.  Edge ids are CSR positions.
  std::vector<RREdge> edges_;
  std::vector<RREdgeId> edge_offsets_;
  // Dense index helpers.
  int width_, height_, tracks_;
  RRNodeId base_opin_, base_ipin_, base_chanx_, base_chany_;
};

}  // namespace fpgadbg::arch
