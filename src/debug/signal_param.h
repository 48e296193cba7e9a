// Signal parameterisation (paper §IV-A.2).
//
// Instruments a user circuit so that EVERY observable internal signal is
// multiplexed toward trace-buffer inputs.  The multiplexer select lines are
// not regular inputs: they are annotated as *parameters*, i.e. inputs that
// change only between debugging turns.  Downstream, TconMap folds the whole
// network into tuneable routing (TCONs) so it costs (almost) no LUTs, and
// the PConf machinery turns a new signal selection into a Boolean-function
// evaluation plus partial reconfiguration instead of a recompile.
//
// Structure (paper Fig. 6): per trace lane, a binary mux tree with shared
// select parameters per tree level.  Lane l observes signal index j when its
// select parameters spell out j in binary (LSB = level-0 select).
#pragma once

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/netlist.h"
#include "support/bitvec.h"
#include "support/status.h"

namespace fpgadbg::debug {

struct InstrumentOptions {
  /// Number of trace-buffer inputs (lanes); one signal per lane is visible
  /// per debugging turn.
  std::size_t trace_width = 64;
  bool observe_logic = true;
  bool observe_latch_outputs = true;
  /// Cap on observed signals (0 = all observable).  The paper's future-work
  /// "critical signal selection" corresponds to lowering this.
  std::size_t max_observed = 0;
  /// Explicit observation list (e.g. from select_critical_signals); when
  /// non-empty only these signals are instrumented, in the given order.
  std::vector<std::string> observe_list;
  /// Mux radix per tree level; 2 = binary trees (default).  Higher radixes
  /// trade parameters for shallower trees (ablation B).
  int mux_radix = 2;
  /// Number of distinct lanes each signal is wired into.  1 = plain
  /// round-robin (two signals hashed to the same lane can never be watched
  /// together); higher values make the observability network a concentrator
  /// so that (almost) any W-subset of signals is simultaneously observable —
  /// the flexibility the paper's "dynamically change the small set of
  /// observed signals" requires.  Costs replication x more muxes, which is
  /// exactly the overhead the conventional mappers pay in Table I.
  int replication = 3;
};

struct Instrumented {
  netlist::Netlist netlist;  ///< user circuit + parameterized mux network

  /// Observable signal names per lane, in selection-index order.
  std::vector<std::vector<std::string>> lane_signals;
  /// Select parameter names per lane, LSB-first (level order).
  std::vector<std::vector<std::string>> lane_params;
  /// Name of each lane's trace output (feeds the trace buffer).
  std::vector<std::string> trace_outputs;

  /// (lane, index) placements of one signal.
  using Placements = std::vector<std::pair<std::size_t, std::size_t>>;
  /// Signal name -> its placements, derived from lane_signals by
  /// index_placements().
  std::unordered_map<std::string, Placements> placement_index;

  /// Rebuilds placement_index from lane_signals.  parameterize_signals()
  /// and the instrument artifact loader call it; so must any other code
  /// that fills lane_signals.
  void index_placements();

  std::size_t num_observable() const;

  /// First (lane, index) of a signal, or (npos, npos) if unobservable.
  std::pair<std::size_t, std::size_t> locate(const std::string& signal) const;
  /// All (lane, index) placements of a signal (replication >= 1 entries):
  /// lanes ascending, the first slot of the signal within each lane.
  Placements locate_all(const std::string& signal) const;

  /// Number of select parameters over all lanes.
  std::size_t num_params() const;

  /// Parameter values that make the requested signals simultaneously
  /// visible, one per lane, in lane_params order flattened (lane 0 first,
  /// each lane LSB-first).  The instrumenter creates the parameters in that
  /// order, so it is also the netlist's params() order.  Lanes are chosen
  /// by bipartite matching over each signal's replicated placements; lanes
  /// not used keep index 0.  Throws if a name is unobservable or no
  /// conflict-free lane assignment exists.
  BitVec select_params(const std::vector<std::string>& signals) const;

  /// select_params() with each value named by its parameter.
  std::unordered_map<std::string, bool> select_signals(
      const std::vector<std::string>& signals) const;

  /// Result form of select_signals: an unobservable name or an unsatisfiable
  /// lane assignment comes back as kInvalidArgument instead of throwing.
  support::Result<std::unordered_map<std::string, bool>> try_select_signals(
      const std::vector<std::string>& signals) const;

  /// The signal each lane shows under parameter values in select_params()
  /// order.
  std::vector<std::string> observed_under(const BitVec& params) const;
  /// observed_under() of an assignment by parameter name (missing names
  /// are false).
  std::vector<std::string> observed_under(
      const std::unordered_map<std::string, bool>& params) const;
};

/// Runs the signal parameterisation pass.  The returned netlist contains the
/// original circuit unchanged (same names) plus the mux network; its
/// params() are exactly the inserted select lines.
Instrumented parameterize_signals(const netlist::Netlist& nl,
                                  const InstrumentOptions& options = {});

/// Result form of parameterize_signals: invalid options or an
/// uninstrumentable netlist come back as a Status instead of throwing.
support::Result<Instrumented> try_parameterize_signals(
    const netlist::Netlist& nl, const InstrumentOptions& options = {});

}  // namespace fpgadbg::debug
