// Priority-cut enumeration on a fine-grained (arity <= 2) logic network.
//
// A cut of node n is a set of leaves such that every path from sources to n
// crosses a leaf; the cut function expresses n over its leaves.  The TCON
// flow distinguishes *data* leaves (count against the LUT input limit K)
// from *parameter* leaves (absorbed into reconfiguration, bounded only by
// max_param_leaves).  Conventional mappers run with params_free = false, in
// which case parameter sources are ordinary data leaves — exactly the
// difference the paper's Table I measures.
#pragma once

#include <vector>

#include "logic/truth_table.h"
#include "netlist/netlist.h"

namespace fpgadbg::map {

struct Cut {
  std::vector<netlist::NodeId> data_leaves;   // sorted ascending
  std::vector<netlist::NodeId> param_leaves;  // sorted ascending
  /// Function of the root over data_leaves ++ param_leaves.
  logic::TruthTable function;

  int num_data() const { return static_cast<int>(data_leaves.size()); }
  int num_params() const { return static_cast<int>(param_leaves.size()); }
};

struct CutConfig {
  int lut_size = 6;          ///< K: max data leaves per cut
  int cut_limit = 8;         ///< priority cuts kept per node
  bool params_free = false;  ///< parameters do not count against K
  int max_param_leaves = 4;  ///< only with params_free
  int max_total_vars = 10;   ///< truth-table width cap (memory bound)
  /// Optional layer mask (paper Fig. 6): true = node belongs to the
  /// parameterized debug (mux) layer.  Cuts of debug nodes treat non-debug
  /// logic fanins as hard leaves, so the mux network never swallows the user
  /// circuit — the observed signals stay intact and the mux layer collapses
  /// into TCONs/TLUTs on its own.  This is the mapper-side effect of the
  /// `.par` annotation in the paper's flow.
  const std::vector<bool>* debug_layer = nullptr;
};

/// Enumerates cuts for every logic node of `nl` (arity must be <= 2; run
/// synth::decompose first).  Cut sets always end with the trivial cut
/// {node} so a cover always exists.
class CutEnumerator {
 public:
  CutEnumerator(const netlist::Netlist& nl, const CutConfig& config);

  const std::vector<Cut>& cuts(netlist::NodeId node) const {
    return cuts_.at(node);
  }

  /// Lower-bound LUT-level of the node under this cut universe (sources 0).
  int est_arrival(netlist::NodeId node) const { return est_arrival_.at(node); }

  const CutConfig& config() const { return config_; }

 private:
  /// Merges the fanins' leaf sets, prunes and ranks them, and builds the
  /// functions of only the cuts it keeps.
  void enumerate(netlist::NodeId node);
  Cut leaf_cut(netlist::NodeId node) const;
  int cut_arrival(const netlist::NodeId* data_begin,
                  const netlist::NodeId* data_end) const;

  const netlist::Netlist& nl_;
  CutConfig config_;
  std::vector<std::vector<Cut>> cuts_;
  std::vector<int> est_arrival_;
  std::size_t generated_cuts_ = 0;  ///< pre-prune total (telemetry)
};

/// True iff `f` (over nd data vars then np param vars, np > 0) reduces, for
/// every parameter assignment, to a constant or a projection of one data
/// variable (map::tcon_source() is never kTconNotWire).  Such functions are
/// realizable in the reconfigurable routing (TCON).
bool tcon_feasible(const logic::TruthTable& f, int nd, int np);

}  // namespace fpgadbg::map
