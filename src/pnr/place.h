// TPlace: analytic seed + simulated-annealing placement (VPR/HeAP lineage).
//
// Clusters are assigned to CLB tiles, primary I/O and parameters to the IO
// ring, trace lanes to BRAM tiles.  An analytic pass (iterate the quadratic
// wirelength system's Jacobi form: every cluster moves to the weighted
// centroid of its nets, anchored by the fixed IO ring, then legalize to
// distinct CLB tiles) replaces the cold random start; the annealer then
// refines from that seed at reduced temperature with the classic swap/move +
// adaptive schedule.  The cost is HPWL over the extracted physical nets,
// or — timing-driven — the per-net blend
// hpwl * ((1-λ) + λ·criticality^crit_exp), with criticality refreshed from
// the STA (pnr/timing.h) at placed fidelity every temperature step.
#pragma once

#include <unordered_map>
#include <vector>

#include "arch/device.h"
#include "pnr/nets.h"
#include "pnr/pack.h"
#include "pnr/timing.h"

namespace fpgadbg::pnr {

struct PlaceOptions {
  std::uint64_t seed = 1;
};

struct Placement {
  /// Tile position per cluster.
  std::vector<std::pair<int, int>> cluster_pos;
  /// IO tile per source cell (inputs, params) and per primary output index.
  std::unordered_map<map::CellId, std::pair<int, int>> io_of_cell;
  std::vector<std::pair<int, int>> io_of_output;
  /// BRAM tile per trace lane.
  std::vector<std::pair<int, int>> bram_of_lane;

  /// Position of a net endpoint.
  std::pair<int, int> cell_pos(const map::MappedNetlist& mn,
                               const Packing& packing, map::CellId cell) const;

  double total_hpwl = 0.0;
};

Placement place(const map::MappedNetlist& mn, const Packing& packing,
                const NetExtraction& nets, const arch::Device& device,
                const PlaceOptions& options = {},
                const TimingOptions& timing = {});

}  // namespace fpgadbg::pnr
