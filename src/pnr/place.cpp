#include "pnr/place.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "support/error.h"
#include "support/rng.h"

namespace fpgadbg::pnr {

using map::CellId;
using map::kNullCell;
using map::MappedNetlist;
using map::MKind;

std::pair<int, int> Placement::cell_pos(const MappedNetlist& mn,
                                        const Packing& packing,
                                        CellId cell) const {
  // Latch outputs are co-located with their driver (the FF shares the BLE).
  CellId cur = cell;
  for (int hops = 0; hops < 64; ++hops) {
    const MKind k = mn.cell(cur).kind;
    if (k == MKind::kLatchOut) {
      for (const auto& latch : mn.latches()) {
        if (latch.output == cur) {
          cur = latch.input;
          break;
        }
      }
      if (cur == cell) break;  // unresolved
      continue;
    }
    const int cl = packing.cluster_of[cur];
    if (cl >= 0) return cluster_pos[static_cast<std::size_t>(cl)];
    if (auto it = io_of_cell.find(cur); it != io_of_cell.end()) {
      return it->second;
    }
    break;
  }
  return {0, 0};  // constants and unresolved endpoints park at the corner
}

namespace {

/// Centroid iterations of the analytic seed.
constexpr int kSeedIterations = 30;
/// Moves per temperature step = kMovesPerCell * sqrt(#clusters).
constexpr double kMovesPerCell = 10.0;
/// The anneal stops once the temperature falls below this fraction of the
/// average net cost.
constexpr double kExitTemperature = 0.005;

struct NetGeom {
  // Endpoint = either a movable cluster (index >= 0) or a fixed position.
  std::vector<int> clusters;                  // movable endpoints
  std::vector<std::pair<int, int>> fixed;     // immovable endpoints
};

double hpwl(const NetGeom& net,
            const std::vector<std::pair<int, int>>& cluster_pos) {
  int min_x = 1 << 20, max_x = -1, min_y = 1 << 20, max_y = -1;
  auto absorb = [&](std::pair<int, int> p) {
    min_x = std::min(min_x, p.first);
    max_x = std::max(max_x, p.first);
    min_y = std::min(min_y, p.second);
    max_y = std::max(max_y, p.second);
  };
  for (int c : net.clusters) absorb(cluster_pos[static_cast<std::size_t>(c)]);
  for (const auto& p : net.fixed) absorb(p);
  if (max_x < 0) return 0.0;
  return static_cast<double>((max_x - min_x) + (max_y - min_y));
}

/// Analytic placement seed (HeAP spirit, Jacobi form): every cluster moves to
/// the weighted centroid of the centroids of its nets, with the fixed IO/BRAM
/// endpoints anchoring the system so it does not collapse to a point.  Pure
/// sequential arithmetic over deterministic inputs — fully reproducible.
std::vector<std::pair<double, double>> analytic_positions(
    const std::vector<NetGeom>& geoms,
    const std::vector<std::vector<std::size_t>>& nets_of_cluster,
    const std::vector<double>& net_weight, const arch::Device& device,
    int iterations) {
  const std::size_t num_clusters = nets_of_cluster.size();
  // Start everything at the CLB-region center.
  double cx = 0.0, cy = 0.0;
  const auto& clbs = device.clb_positions();
  for (const auto& p : clbs) {
    cx += p.first;
    cy += p.second;
  }
  if (!clbs.empty()) {
    cx /= static_cast<double>(clbs.size());
    cy /= static_cast<double>(clbs.size());
  }
  std::vector<std::pair<double, double>> pos(num_clusters, {cx, cy});
  std::vector<std::pair<double, double>> next(num_clusters);

  for (int it = 0; it < iterations; ++it) {
    for (std::size_t c = 0; c < num_clusters; ++c) {
      double sx = 0.0, sy = 0.0, sw = 0.0;
      for (std::size_t n : nets_of_cluster[c]) {
        const NetGeom& g = geoms[n];
        // Net centroid over the other endpoints (self included is fine: it
        // only damps the update, it cannot bias the fixed point).
        double nx = 0.0, ny = 0.0;
        const std::size_t ends = g.clusters.size() + g.fixed.size();
        if (ends == 0) continue;
        for (int other : g.clusters) {
          nx += pos[static_cast<std::size_t>(other)].first;
          ny += pos[static_cast<std::size_t>(other)].second;
        }
        for (const auto& f : g.fixed) {
          nx += f.first;
          ny += f.second;
        }
        const double w = net_weight.empty() ? 1.0 : net_weight[n];
        sx += w * nx / static_cast<double>(ends);
        sy += w * ny / static_cast<double>(ends);
        sw += w;
      }
      next[c] = sw > 0.0 ? std::pair<double, double>{sx / sw, sy / sw}
                         : std::pair<double, double>{cx, cy};
    }
    pos.swap(next);
  }
  return pos;
}

/// Snaps analytic positions to distinct CLB tiles: clusters are visited in a
/// deterministic spatial order and each takes the nearest still-free slot
/// (squared distance, ties by slot order — the device's position list is
/// itself deterministic).
std::vector<std::pair<int, int>> legalize(
    const std::vector<std::pair<double, double>>& desired,
    const std::vector<std::pair<int, int>>& slots) {
  std::vector<std::size_t> order(desired.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (desired[a].first != desired[b].first) {
      return desired[a].first < desired[b].first;
    }
    if (desired[a].second != desired[b].second) {
      return desired[a].second < desired[b].second;
    }
    return a < b;
  });
  std::vector<char> taken(slots.size(), 0);
  std::vector<std::pair<int, int>> result(desired.size(), {0, 0});
  for (std::size_t c : order) {
    double best = 0.0;
    std::size_t best_slot = slots.size();
    for (std::size_t s = 0; s < slots.size(); ++s) {
      if (taken[s]) continue;
      const double dx = desired[c].first - slots[s].first;
      const double dy = desired[c].second - slots[s].second;
      const double d = dx * dx + dy * dy;
      if (best_slot == slots.size() || d < best) {
        best = d;
        best_slot = s;
      }
    }
    FPGADBG_ASSERT(best_slot < slots.size(), "legalize: out of CLB slots");
    taken[best_slot] = 1;
    result[c] = slots[best_slot];
  }
  return result;
}

}  // namespace

Placement place(const MappedNetlist& mn, const Packing& packing,
                const NetExtraction& nets, const arch::Device& device,
                const PlaceOptions& options, const TimingOptions& timing) {
  FPGADBG_REQUIRE(packing.num_clusters() <= device.num_clbs(),
                  "design does not fit: " +
                      std::to_string(packing.num_clusters()) + " clusters > " +
                      std::to_string(device.num_clbs()) + " CLBs");
  Rng rng(options.seed);
  Placement pl;

  // --- fixed assignments -----------------------------------------------
  const auto& ios = device.io_positions();
  std::size_t io_cursor = 0;
  auto next_io = [&]() {
    const auto pos = ios[io_cursor % ios.size()];
    ++io_cursor;
    return pos;
  };
  for (CellId id : mn.inputs()) pl.io_of_cell[id] = next_io();
  for (CellId id : mn.params()) pl.io_of_cell[id] = next_io();
  pl.io_of_output.resize(mn.outputs().size());
  for (std::size_t i = 0; i < mn.outputs().size(); ++i) {
    pl.io_of_output[i] = next_io();
  }

  std::size_t lanes = 0;
  for (std::size_t lane_idx : nets.trace_lane_of_output) {
    if (lane_idx != static_cast<std::size_t>(-1)) {
      lanes = std::max(lanes, lane_idx + 1);
    }
  }
  pl.bram_of_lane.resize(lanes);
  const auto& brams = device.bram_positions();
  for (std::size_t l = 0; l < lanes; ++l) {
    pl.bram_of_lane[l] =
        brams.empty() ? next_io() : brams[l % brams.size()];
  }

  // --- net geometry ------------------------------------------------------
  std::vector<NetGeom> geoms;
  geoms.reserve(nets.nets.size());
  std::vector<std::vector<std::size_t>> nets_of_cluster(
      packing.num_clusters());
  auto endpoint = [&](CellId cell, NetGeom* geom) {
    // Resolve through latch co-location like Placement::cell_pos but
    // classifying cluster endpoints as movable.
    CellId cur = cell;
    for (int hops = 0; hops < 64; ++hops) {
      if (mn.cell(cur).kind == MKind::kLatchOut) {
        CellId next = cur;
        for (const auto& latch : mn.latches()) {
          if (latch.output == cur) {
            next = latch.input;
            break;
          }
        }
        if (next == cur) break;
        cur = next;
        continue;
      }
      const int cl = packing.cluster_of[cur];
      if (cl >= 0) {
        geom->clusters.push_back(cl);
        return;
      }
      if (auto it = pl.io_of_cell.find(cur); it != pl.io_of_cell.end()) {
        geom->fixed.push_back(it->second);
        return;
      }
      break;
    }
    geom->fixed.emplace_back(0, 0);
  };
  for (const PhysNet& net : nets.nets) {
    NetGeom geom;
    endpoint(net.driver, &geom);
    for (const NetSink& sink : net.sinks) {
      switch (sink.kind) {
        case SinkKind::kCellPin:
          endpoint(sink.cell, &geom);
          break;
        case SinkKind::kPrimaryOutput:
          geom.fixed.push_back(pl.io_of_output[sink.index]);
          break;
        case SinkKind::kTraceBuffer:
          geom.fixed.push_back(pl.bram_of_lane[sink.index]);
          break;
      }
    }
    std::sort(geom.clusters.begin(), geom.clusters.end());
    geom.clusters.erase(
        std::unique(geom.clusters.begin(), geom.clusters.end()),
        geom.clusters.end());
    const std::size_t net_index = geoms.size();
    for (int c : geom.clusters) {
      nets_of_cluster[static_cast<std::size_t>(c)].push_back(net_index);
    }
    geoms.push_back(std::move(geom));
  }

  // --- timing: criticality-derived net weights ---------------------------
  // Timing-driven cost per net is hpwl * ((1-λ) + λ·crit^crit_exp): the
  // geometric extent IS the delay estimate at this fidelity, so weighting the
  // extent by criticality is exactly the blended (1-λ)·HPWL + λ·crit·delay of
  // the classic formulation, net by net.  Wirelength-driven runs keep every
  // weight at 1 and never build the analyzer.
  std::unique_ptr<TimingAnalyzer> sta;
  std::vector<double> net_weight;
  auto refresh_weights = [&]() {
    if (!sta) return;
    if (!pl.cluster_pos.empty()) {
      sta->use_placed_delays(packing, pl);
    }
    sta->update();
    const double lambda = timing.place_tradeoff;
    for (std::size_t n = 0; n < geoms.size(); ++n) {
      net_weight[n] = (1.0 - lambda) +
                      lambda * std::pow(sta->net_criticality(n),
                                        timing.crit_exp);
    }
  };
  if (timing.timing_driven) {
    sta = std::make_unique<TimingAnalyzer>(mn, nets, timing.delays);
    net_weight.assign(geoms.size(), 1.0);
    // Pre-place fidelity: fanout-estimated criticality seeds the analytic
    // pass before any position exists.
    refresh_weights();
  }

  // --- initial cluster placement -----------------------------------------
  if (packing.num_clusters() > 0) {
    const auto desired = analytic_positions(geoms, nets_of_cluster, net_weight,
                                            device, kSeedIterations);
    pl.cluster_pos = legalize(desired, device.clb_positions());
  }

  auto final_hpwl = [&]() {
    double wl = 0.0;
    for (const NetGeom& g : geoms) wl += hpwl(g, pl.cluster_pos);
    return wl;
  };

  if (packing.num_clusters() <= 1) {
    pl.total_hpwl = final_hpwl();
    return pl;
  }

  // Placed fidelity is now available: re-derive the weights the annealer
  // will price moves against.
  refresh_weights();

  std::vector<double> net_cost(geoms.size());
  double total = 0.0;
  auto weighted = [&](std::size_t n) {
    const double w = net_weight.empty() ? 1.0 : net_weight[n];
    return w * hpwl(geoms[n], pl.cluster_pos);
  };
  auto rebase_costs = [&]() {
    total = 0.0;
    for (std::size_t n = 0; n < geoms.size(); ++n) {
      net_cost[n] = weighted(n);
      total += net_cost[n];
    }
  };
  rebase_costs();

  // --- simulated annealing ----------------------------------------------
  // Which slot (if any) holds each position is tracked via a map from
  // position to cluster.
  std::unordered_map<std::uint64_t, int> occupant;
  auto pos_key = [](std::pair<int, int> p) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p.first))
            << 32) |
           static_cast<std::uint32_t>(p.second);
  };
  for (std::size_t c = 0; c < pl.cluster_pos.size(); ++c) {
    occupant[pos_key(pl.cluster_pos[c])] = static_cast<int>(c);
  }

  auto delta_for = [&](const std::vector<std::size_t>& affected) {
    double delta = 0.0;
    for (std::size_t n : affected) {
      delta += weighted(n) - net_cost[n];
    }
    return delta;
  };

  auto affected_nets = [&](int a, int b) {
    std::vector<std::size_t> affected = nets_of_cluster[static_cast<std::size_t>(a)];
    if (b >= 0) {
      affected.insert(affected.end(),
                      nets_of_cluster[static_cast<std::size_t>(b)].begin(),
                      nets_of_cluster[static_cast<std::size_t>(b)].end());
      std::sort(affected.begin(), affected.end());
      affected.erase(std::unique(affected.begin(), affected.end()),
                     affected.end());
    }
    return affected;
  };

  // Estimate the initial temperature from random move deltas.
  double sum_abs = 0.0;
  int samples = 0;
  for (int i = 0; i < 50; ++i) {
    const int a = static_cast<int>(rng.next_below(packing.num_clusters()));
    const auto target = device.clb_positions()[rng.next_below(
        device.clb_positions().size())];
    const auto old_pos = pl.cluster_pos[static_cast<std::size_t>(a)];
    const auto it = occupant.find(pos_key(target));
    const int b = it == occupant.end() ? -1 : it->second;
    if (b == a) continue;
    const auto affected = affected_nets(a, b);
    pl.cluster_pos[static_cast<std::size_t>(a)] = target;
    if (b >= 0) pl.cluster_pos[static_cast<std::size_t>(b)] = old_pos;
    sum_abs += std::abs(delta_for(affected));
    pl.cluster_pos[static_cast<std::size_t>(a)] = old_pos;
    if (b >= 0) pl.cluster_pos[static_cast<std::size_t>(b)] = target;
    ++samples;
  }
  // The analytic seed is already in a good basin, so the anneal starts at
  // half the mean move delta and refines instead of scrambling.
  double temperature =
      samples > 0 ? std::max(0.25, 0.5 * sum_abs / samples) : 0.25;

  const std::size_t moves_per_step = std::max<std::size_t>(
      16, static_cast<std::size_t>(
              kMovesPerCell *
              std::sqrt(static_cast<double>(packing.num_clusters()))));

  while (temperature > kExitTemperature *
                           std::max(1.0, total /
                                             std::max<std::size_t>(
                                                 1, geoms.size()))) {
    std::size_t accepted = 0;
    for (std::size_t m = 0; m < moves_per_step; ++m) {
      const int a = static_cast<int>(rng.next_below(packing.num_clusters()));
      const auto target = device.clb_positions()[rng.next_below(
          device.clb_positions().size())];
      const auto old_pos = pl.cluster_pos[static_cast<std::size_t>(a)];
      if (target == old_pos) continue;
      const auto it = occupant.find(pos_key(target));
      const int b = it == occupant.end() ? -1 : it->second;
      const auto affected = affected_nets(a, b);

      pl.cluster_pos[static_cast<std::size_t>(a)] = target;
      if (b >= 0) pl.cluster_pos[static_cast<std::size_t>(b)] = old_pos;
      const double delta = delta_for(affected);

      const bool accept =
          delta <= 0.0 || rng.next_double() < std::exp(-delta / temperature);
      if (accept) {
        for (std::size_t n : affected) {
          const double fresh = weighted(n);
          total += fresh - net_cost[n];
          net_cost[n] = fresh;
        }
        occupant.erase(pos_key(old_pos));
        occupant[pos_key(target)] = a;
        if (b >= 0) occupant[pos_key(old_pos)] = b;
        ++accepted;
      } else {
        pl.cluster_pos[static_cast<std::size_t>(a)] = old_pos;
        if (b >= 0) pl.cluster_pos[static_cast<std::size_t>(b)] = target;
      }
    }
    // VPR-style adaptive cooling.
    const double ratio =
        static_cast<double>(accepted) / static_cast<double>(moves_per_step);
    double alpha;
    if (ratio > 0.96) {
      alpha = 0.5;
    } else if (ratio > 0.8) {
      alpha = 0.9;
    } else if (ratio > 0.15) {
      alpha = 0.95;
    } else {
      alpha = 0.8;
    }
    temperature *= alpha;
    // Criticality drifts as the placement moves; refresh the weights (and
    // re-baseline the incremental costs against them) once per temperature
    // step — the sweep is O(cells + nets), far below the move loop's cost.
    if (sta) {
      refresh_weights();
      rebase_costs();
    }
  }

  pl.total_hpwl = final_hpwl();
  return pl;
}

}  // namespace fpgadbg::pnr
