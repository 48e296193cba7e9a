#include "debug/signal_param.h"

#include <algorithm>
#include <bit>

#include "support/error.h"

namespace fpgadbg::debug {

using netlist::Netlist;
using netlist::NodeId;
using netlist::NodeKind;
using logic::TruthTable;

namespace {

/// Truth table of a radix-r multiplexer with binary-encoded select:
/// vars [0, r) are data, vars [r, r+s) are select bits (LSB first);
/// f = data[sel].
TruthTable mux_tt(int radix, int sel_bits) {
  const int total = radix + sel_bits;
  TruthTable f = TruthTable::zero(total);
  for (int j = 0; j < radix; ++j) {
    TruthTable sel_eq = TruthTable::one(total);
    for (int b = 0; b < sel_bits; ++b) {
      const TruthTable sb = TruthTable::var(total, radix + b);
      sel_eq = sel_eq & (((j >> b) & 1) ? sb : ~sb);
    }
    f = f | (sel_eq & TruthTable::var(total, j));
  }
  return f;
}

}  // namespace

std::size_t Instrumented::num_observable() const {
  std::size_t n = 0;
  for (const auto& lane : lane_signals) n += lane.size();
  return n;
}

void Instrumented::index_placements() {
  placement_index.clear();
  placement_index.reserve(num_observable());
  for (std::size_t l = 0; l < lane_signals.size(); ++l) {
    const auto& lane = lane_signals[l];
    for (std::size_t i = 0; i < lane.size(); ++i) {
      Placements& found = placement_index[lane[i]];
      // A signal's first slot within each lane, as a scan would find it.
      if (found.empty() || found.back().first != l) found.emplace_back(l, i);
    }
  }
}

std::pair<std::size_t, std::size_t> Instrumented::locate(
    const std::string& signal) const {
  const auto it = placement_index.find(signal);
  if (it == placement_index.end()) {
    return {static_cast<std::size_t>(-1), static_cast<std::size_t>(-1)};
  }
  return it->second.front();
}

Instrumented::Placements Instrumented::locate_all(
    const std::string& signal) const {
  const auto it = placement_index.find(signal);
  return it == placement_index.end() ? Placements{} : it->second;
}

std::size_t Instrumented::num_params() const {
  std::size_t n = 0;
  for (const auto& lane : lane_params) n += lane.size();
  return n;
}

BitVec Instrumented::select_params(
    const std::vector<std::string>& signals) const {
  // Bipartite matching (Kuhn's augmenting paths): signals on the left,
  // lanes on the right; an edge wherever a replica of the signal lives.
  std::vector<const Placements*> candidates;
  candidates.reserve(signals.size());
  for (const std::string& signal : signals) {
    const auto it = placement_index.find(signal);
    if (it == placement_index.end()) {
      throw Error("signal is not observable: " + signal);
    }
    candidates.push_back(&it->second);
  }

  std::vector<int> lane_match(lane_signals.size(), -1);
  std::vector<std::size_t> lane_index(lane_signals.size(), 0);

  std::vector<bool> visited;
  auto try_assign = [&](auto&& self, std::size_t sig) -> bool {
    for (const auto& [lane, index] : *candidates[sig]) {
      if (visited[lane]) continue;
      visited[lane] = true;
      if (lane_match[lane] < 0 ||
          self(self, static_cast<std::size_t>(lane_match[lane]))) {
        lane_match[lane] = static_cast<int>(sig);
        lane_index[lane] = index;
        return true;
      }
    }
    return false;
  };
  for (std::size_t sig = 0; sig < signals.size(); ++sig) {
    visited.assign(lane_signals.size(), false);
    if (!try_assign(try_assign, sig)) {
      throw Error("no conflict-free lane assignment: signal " + signals[sig] +
                  " cannot be observed together with the others");
    }
  }

  BitVec params(num_params());
  std::size_t first = 0;  // lane's first parameter in the vector
  for (std::size_t lane = 0; lane < lane_params.size(); ++lane) {
    const std::size_t width = lane_params[lane].size();
    if (lane_match[lane] >= 0) {
      for (std::size_t b = 0; b < width; ++b) {
        params.set(first + b, ((lane_index[lane] >> b) & 1) != 0);
      }
    }
    first += width;
  }
  return params;
}

std::unordered_map<std::string, bool> Instrumented::select_signals(
    const std::vector<std::string>& signals) const {
  const BitVec params = select_params(signals);
  std::unordered_map<std::string, bool> assignment;
  std::size_t i = 0;
  for (const auto& lane : lane_params) {
    for (const std::string& p : lane) assignment[p] = params.get(i++);
  }
  return assignment;
}

std::vector<std::string> Instrumented::observed_under(
    const BitVec& params) const {
  FPGADBG_REQUIRE(params.size() == num_params(),
                  "parameter vector has the wrong size");
  std::vector<std::string> observed;
  observed.reserve(lane_signals.size());
  std::size_t first = 0;
  for (std::size_t l = 0; l < lane_signals.size(); ++l) {
    std::size_t index = 0;
    for (std::size_t b = 0; b < lane_params[l].size(); ++b) {
      if (params.get(first + b)) index |= std::size_t{1} << b;
    }
    first += lane_params[l].size();
    // Padded slots duplicate signal 0.
    observed.push_back(index < lane_signals[l].size() ? lane_signals[l][index]
                                                      : lane_signals[l][0]);
  }
  return observed;
}

std::vector<std::string> Instrumented::observed_under(
    const std::unordered_map<std::string, bool>& params) const {
  BitVec values(num_params());
  std::size_t i = 0;
  for (const auto& lane : lane_params) {
    for (const std::string& p : lane) {
      const auto it = params.find(p);
      values.set(i++, it != params.end() && it->second);
    }
  }
  return observed_under(values);
}

Instrumented parameterize_signals(const Netlist& nl,
                                  const InstrumentOptions& options) {
  FPGADBG_REQUIRE(options.trace_width > 0, "trace_width must be positive");
  FPGADBG_REQUIRE(options.mux_radix >= 2 && options.mux_radix <= 8 &&
                      std::has_single_bit(
                          static_cast<unsigned>(options.mux_radix)),
                  "mux_radix must be a power of two in [2, 8]");
  FPGADBG_REQUIRE(nl.params().empty(),
                  "input netlist is already parameterised");

  Instrumented result;
  result.netlist = nl;  // user circuit copied unchanged
  Netlist& out = result.netlist;

  // Collect observable signals in a deterministic order.
  std::vector<NodeId> observable;
  if (!options.observe_list.empty()) {
    for (const std::string& name : options.observe_list) {
      const auto id = nl.find(name);
      FPGADBG_REQUIRE(id.has_value(), "observe_list names unknown signal: " + name);
      const NodeKind k = nl.kind(*id);
      FPGADBG_REQUIRE(k == NodeKind::kLogic || k == NodeKind::kLatchOut,
                      "observe_list signal is not observable: " + name);
      observable.push_back(*id);
    }
  } else {
    for (NodeId id = 0; id < nl.num_nodes(); ++id) {
      const NodeKind k = nl.kind(id);
      if ((k == NodeKind::kLogic && options.observe_logic) ||
          (k == NodeKind::kLatchOut && options.observe_latch_outputs)) {
        observable.push_back(id);
      }
    }
  }
  if (options.max_observed > 0 && observable.size() > options.max_observed) {
    observable.resize(options.max_observed);
  }
  FPGADBG_REQUIRE(!observable.empty(), "nothing to observe");

  const std::size_t lanes = std::min(options.trace_width, observable.size());
  result.lane_signals.resize(lanes);
  result.lane_params.resize(lanes);

  // Concentrator-style assignment: each signal lands in `replication`
  // distinct lanes, spread deterministically.
  const std::size_t repl = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(1, options.replication)), lanes);
  std::vector<std::vector<NodeId>> lane_nodes(lanes);
  for (std::size_t i = 0; i < observable.size(); ++i) {
    std::size_t lane = i % lanes;
    for (std::size_t k = 0; k < repl; ++k) {
      // Skip lanes already holding this signal (the stride may wrap).
      while (std::find(lane_nodes[lane].begin(), lane_nodes[lane].end(),
                       observable[i]) != lane_nodes[lane].end()) {
        lane = (lane + 1) % lanes;
      }
      lane_nodes[lane].push_back(observable[i]);
      result.lane_signals[lane].push_back(nl.name(observable[i]));
      // Next replica: a large odd stride decorrelates replica groups.
      lane = (lane + 1 + (i * 2654435761u) % (lanes > 1 ? lanes - 1 : 1)) %
             lanes;
    }
  }

  const int radix = options.mux_radix;
  const int sel_bits_per_level = std::countr_zero(static_cast<unsigned>(radix));

  for (std::size_t l = 0; l < lanes; ++l) {
    std::vector<NodeId> current = lane_nodes[l];
    int level = 0;
    std::size_t mux_counter = 0;
    while (current.size() > 1) {
      // Shared select parameters for this tree level.
      std::vector<NodeId> sel;
      for (int b = 0; b < sel_bits_per_level; ++b) {
        const std::string pname = "dbgsel_l" + std::to_string(l) + "_v" +
                                  std::to_string(level) + "_b" +
                                  std::to_string(b);
        sel.push_back(out.add_param(pname));
        result.lane_params[l].push_back(pname);
      }
      // Pad to a multiple of the radix with duplicates of the lane's first
      // signal (unreachable indices simply alias signal 0).
      while (current.size() % static_cast<std::size_t>(radix) != 0) {
        current.push_back(lane_nodes[l][0]);
      }
      std::vector<NodeId> next;
      next.reserve(current.size() / static_cast<std::size_t>(radix));
      const TruthTable tt = mux_tt(radix, sel_bits_per_level);
      for (std::size_t j = 0; j < current.size();
           j += static_cast<std::size_t>(radix)) {
        std::vector<NodeId> fanins(current.begin() + static_cast<std::ptrdiff_t>(j),
                                   current.begin() +
                                       static_cast<std::ptrdiff_t>(
                                           j + static_cast<std::size_t>(radix)));
        fanins.insert(fanins.end(), sel.begin(), sel.end());
        next.push_back(out.add_logic("dbgmux_l" + std::to_string(l) + "_n" +
                                         std::to_string(mux_counter++),
                                     std::move(fanins), tt));
      }
      current = std::move(next);
      ++level;
    }
    const std::string trace_name = "trace" + std::to_string(l);
    out.add_output(current[0], trace_name);
    result.trace_outputs.push_back(trace_name);
  }

  out.check();
  result.index_placements();
  return result;
}

support::Result<std::unordered_map<std::string, bool>>
Instrumented::try_select_signals(const std::vector<std::string>& signals) const {
  try {
    return select_signals(signals);
  } catch (const Error& e) {
    return support::Status::invalid_argument(e.what());
  } catch (...) {
    return support::status_from_current_exception();
  }
}

support::Result<Instrumented> try_parameterize_signals(
    const Netlist& nl, const InstrumentOptions& options) {
  try {
    return parameterize_signals(nl, options);
  } catch (...) {
    return support::status_from_current_exception();
  }
}

}  // namespace fpgadbg::debug
