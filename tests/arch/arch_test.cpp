#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arch/device.h"
#include "arch/frames.h"
#include "arch/rr_graph.h"
#include "support/error.h"

namespace fpgadbg::arch {
namespace {

TEST(Device, SizesToMinClbs) {
  ArchParams params;
  for (std::size_t want : {1u, 10u, 50u, 200u}) {
    Device dev(params, want);
    EXPECT_GE(dev.num_clbs(), want);
    EXPECT_GE(dev.lut_capacity(), want * 8);
  }
}

TEST(Device, HasIoRing) {
  Device dev(ArchParams{}, 16);
  for (int x = 0; x < dev.width(); ++x) {
    EXPECT_EQ(dev.tile(x, 0), TileKind::kIo);
    EXPECT_EQ(dev.tile(x, dev.height() - 1), TileKind::kIo);
  }
  for (int y = 0; y < dev.height(); ++y) {
    EXPECT_EQ(dev.tile(0, y), TileKind::kIo);
    EXPECT_EQ(dev.tile(dev.width() - 1, y), TileKind::kIo);
  }
}

TEST(Device, BramColumnsPresent) {
  ArchParams params;
  params.bram_column_period = 4;
  Device dev(params, 100);
  EXPECT_GT(dev.num_brams(), 0u);
  EXPECT_GT(dev.trace_bits_capacity(), 0u);
  // All BRAM tiles align on columns.
  for (const auto& [x, y] : dev.bram_positions()) {
    EXPECT_EQ(x % (params.bram_column_period + 1), 0);
  }
}

TEST(Device, NoBramWhenDisabled) {
  ArchParams params;
  params.bram_column_period = 0;
  Device dev(params, 25);
  EXPECT_EQ(dev.num_brams(), 0u);
}

TEST(Device, TileCountsConsistent) {
  Device dev(ArchParams{}, 60);
  const std::size_t total =
      static_cast<std::size_t>(dev.width()) * static_cast<std::size_t>(dev.height());
  EXPECT_EQ(dev.num_clbs() + dev.num_brams() + dev.io_positions().size(),
            total);
}

TEST(RRGraph, NodeLookupsRoundTrip) {
  Device dev(ArchParams{}, 16);
  RRGraph rr(dev);
  for (int y = 0; y < dev.height(); y += 2) {
    for (int x = 0; x < dev.width(); x += 2) {
      const RRNodeId opin = rr.opin_at(x, y);
      EXPECT_EQ(rr.node(opin).kind, RRKind::kOpin);
      EXPECT_EQ(rr.node(opin).x, x);
      EXPECT_EQ(rr.node(opin).y, y);
      const RRNodeId cx = rr.chanx_at(x, y, 3);
      EXPECT_EQ(rr.node(cx).kind, RRKind::kChanX);
      EXPECT_EQ(rr.node(cx).track, 3);
    }
  }
}

TEST(RRGraph, EdgesConnectValidNodes) {
  Device dev(ArchParams{}, 9);
  RRGraph rr(dev);
  EXPECT_GT(rr.num_edges(), 0u);
  for (RREdgeId e = 0; e < rr.num_edges(); ++e) {
    EXPECT_LT(rr.edge(e).from, rr.num_nodes());
    EXPECT_LT(rr.edge(e).to, rr.num_nodes());
    // No edge terminates in an OPIN (outputs only drive).
    EXPECT_NE(rr.node(rr.edge(e).to).kind, RRKind::kOpin);
  }
}

TEST(RRGraph, OpinReachesNeighbourIpin) {
  Device dev(ArchParams{}, 9);
  RRGraph rr(dev);
  // BFS from an OPIN must reach the IPIN of a neighbouring tile.
  const RRNodeId start = rr.opin_at(2, 2);
  const RRNodeId goal = rr.ipin_at(3, 2);
  std::vector<bool> seen(rr.num_nodes(), false);
  std::vector<RRNodeId> queue{start};
  seen[start] = true;
  bool found = false;
  while (!queue.empty() && !found) {
    const RRNodeId cur = queue.back();
    queue.pop_back();
    for (RREdgeId e : rr.out_edges(cur)) {
      const RRNodeId next = rr.edge(e).to;
      if (next == goal) {
        found = true;
        break;
      }
      if (!seen[next]) {
        seen[next] = true;
        queue.push_back(next);
      }
    }
  }
  EXPECT_TRUE(found);
}

TEST(RRGraph, MinNodesToIpinIsTheBreadthFirstDistance) {
  // The router's A* lookahead is exact only while min_nodes_to_ipin stays
  // the closed form of the edges the constructor builds.  For every IPIN,
  // a breadth-first search backwards over the real edges (never through
  // another IPIN) must give the function's value at every other node.
  std::size_t checked = 0;
  for (const std::size_t min_clbs : {4u, 100u}) {
    for (const int width : {2, 5}) {
      ArchParams params;
      params.channel_width = width;
      Device dev(params, min_clbs);
      RRGraph rr(dev);
      if (min_clbs == 100) {
        ASSERT_GT(dev.num_brams(), 0u);
      }
      std::vector<std::vector<RRNodeId>> in_edges(rr.num_nodes());
      for (RREdgeId e = 0; e < rr.num_edges(); ++e) {
        in_edges[rr.edge(e).to].push_back(rr.edge(e).from);
      }
      std::vector<int> dist(rr.num_nodes());
      for (int ty = 0; ty < dev.height(); ++ty) {
        for (int tx = 0; tx < dev.width(); ++tx) {
          const RRNodeId target = rr.ipin_at(tx, ty);
          std::fill(dist.begin(), dist.end(), -1);
          dist[target] = 0;
          std::vector<RRNodeId> frontier{target};
          for (std::size_t head = 0; head < frontier.size(); ++head) {
            const RRNodeId cur = frontier[head];
            if (cur != target && rr.node(cur).kind == RRKind::kIpin) continue;
            for (const RRNodeId from : in_edges[cur]) {
              if (dist[from] >= 0) continue;
              dist[from] = dist[cur] + 1;
              frontier.push_back(from);
            }
          }
          for (RRNodeId id = 0; id < rr.num_nodes(); ++id) {
            if (rr.node(id).kind == RRKind::kIpin) continue;
            ASSERT_EQ(rr.min_nodes_to_ipin(id, tx, ty), dist[id])
                << "node " << id << " (kind "
                << static_cast<int>(rr.node(id).kind) << " at "
                << rr.node(id).x << "," << rr.node(id).y << ") to IPIN "
                << tx << "," << ty << ", W = " << width;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_GT(checked, 100000u);
}

TEST(FrameGeometry, FrameAlignedColumns) {
  Device dev(ArchParams{}, 25);
  RRGraph rr(dev);
  FrameGeometry frames(dev, rr);
  EXPECT_GT(frames.total_bits(), 0u);
  EXPECT_EQ(frames.total_bits() % FrameGeometry::kFrameBits, 0u);
  EXPECT_EQ(frames.num_frames(),
            frames.total_bits() / FrameGeometry::kFrameBits);
  std::size_t sum = 0;
  for (int x = 0; x < dev.width(); ++x) {
    sum += frames.frames_in_column(x);
  }
  EXPECT_EQ(sum, frames.num_frames());
}

TEST(FrameGeometry, LutBitsAreDistinctAndInColumn) {
  Device dev(ArchParams{}, 25);
  RRGraph rr(dev);
  FrameGeometry frames(dev, rr);
  const auto [x, y] = dev.clb_positions()[0];
  std::set<std::size_t> seen;
  for (int ble = 0; ble < dev.params().cluster_size; ++ble) {
    for (int bit = 0; bit < (1 << dev.params().lut_size); ++bit) {
      const std::size_t addr = frames.lut_bit(x, y, ble, bit);
      EXPECT_TRUE(seen.insert(addr).second);
      const std::size_t frame = frames.frame_of_bit(addr);
      EXPECT_GE(frame, frames.first_frame_of_column(x));
      EXPECT_LT(frame,
                frames.first_frame_of_column(x) + frames.frames_in_column(x));
    }
    EXPECT_TRUE(seen.insert(frames.ff_bit(x, y, ble)).second);
  }
}

TEST(FrameGeometry, SwitchBitsAreDistinct) {
  Device dev(ArchParams{}, 9);
  RRGraph rr(dev);
  FrameGeometry frames(dev, rr);
  std::set<std::size_t> seen;
  for (RREdgeId e = 0; e < rr.num_edges(); ++e) {
    EXPECT_TRUE(seen.insert(frames.switch_bit(e)).second) << e;
    EXPECT_LT(frames.switch_bit(e), frames.total_bits());
  }
}

}  // namespace
}  // namespace fpgadbg::arch
