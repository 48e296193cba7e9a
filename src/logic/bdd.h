// Reduced Ordered Binary Decision Diagrams.
//
// PConf configuration bits are Boolean functions of debug parameters; the
// Specialized Configuration Generator evaluates thousands of them per
// debugging turn.  BDDs give canonical, shared storage for those functions:
// equality is pointer equality and evaluation is a walk from the root.
//
// Design notes:
//  - no complement edges (simpler invariants; the functions involved are
//    tiny mux-select expressions, so the 2x node overhead is irrelevant);
//  - a unique table for hash-consing and an operation cache for ITE;
//  - nodes are never freed (arena semantics); managers are cheap to discard;
//  - a cached artifact restores the arena wholesale (load_arena); the
//    unique table is rebuilt by the first make_node after the load, so a
//    load that only evaluates never pays for it.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "support/bitvec.h"
#include "support/status.h"
#include "logic/truth_table.h"

namespace fpgadbg::logic {

/// Handle to a BDD node within its manager.  Index 0/1 are the constants.
using BddRef = std::uint32_t;

class BddManager {
 public:
  /// Arena node layout.  Public (and layout-pinned) because the
  /// pconf-build artifact writes the arena as its raw bytes and the
  /// incremental SCG sweeps it; all twelve bytes are explicit, so the raw
  /// bytes are deterministic.
  struct Node {
    std::uint32_t var;  // level; constants use var = 0xffffffff
    BddRef low;
    BddRef high;
  };
  static_assert(sizeof(Node) == 12, "arena nodes must be packed");

  explicit BddManager(int num_vars = 0);

  int num_vars() const { return num_vars_; }
  /// Grows the variable universe (existing functions are unaffected).
  void ensure_vars(int num_vars);

  BddRef zero() const { return 0; }
  BddRef one() const { return 1; }
  BddRef var(int v);
  BddRef nvar(int v);

  BddRef bdd_not(BddRef f);
  BddRef bdd_and(BddRef f, BddRef g);
  BddRef bdd_or(BddRef f, BddRef g);
  BddRef bdd_xor(BddRef f, BddRef g);
  BddRef bdd_ite(BddRef f, BddRef g, BddRef h);

  /// Restrict variable v to a constant.
  BddRef restrict_var(BddRef f, int v, bool value);

  bool is_const(BddRef f) const { return f <= 1; }
  bool const_value(BddRef f) const { return f == 1; }

  /// Evaluate under a full assignment (bit v of `assignment` = value of
  /// variable v).  When `visited` is non-null it is incremented once per
  /// decision node walked (SCG telemetry).
  bool evaluate(BddRef f, const BitVec& assignment,
                std::size_t* visited = nullptr) const;

  /// Variables in the support of f, ascending.
  std::vector<int> support(BddRef f) const;

  /// Number of decision nodes reachable from f (constants excluded).
  std::size_t node_count(BddRef f) const;

  /// Number of satisfying assignments over the full variable universe.
  /// Saturates at ~2^63.
  std::uint64_t sat_count(BddRef f) const;

  /// Build a BDD from a truth table, mapping tt variable i to BDD var
  /// var_map[i].
  BddRef from_truth_table(const TruthTable& tt, const std::vector<int>& var_map);

  /// Total nodes allocated in the manager (diagnostics).
  std::size_t size() const { return nodes_.size(); }

  /// The arena [0, size()): constants first, then decision nodes, children
  /// always before their parents.
  const std::vector<Node>& arena() const { return nodes_; }

  /// Replaces this manager's nodes with `nodes`, an arena read back from a
  /// cached artifact, over the manager's current variables.  Validates the
  /// structural invariants that keep every read in bounds — constants at
  /// [0,2), children strictly before parents, variables below num_vars(),
  /// low != high — and rejects violations as kCorruptArtifact.
  /// Canonicity (no duplicate nodes) is trusted from the hash-verified
  /// producer: a duplicate cannot cause an unsafe read.  The unique table
  /// is rebuilt by the first make_node after the load.
  support::Status load_arena(std::vector<Node> nodes);

 private:
  struct NodeKey {
    std::uint32_t var;
    BddRef low;
    BddRef high;
    bool operator==(const NodeKey&) const = default;
  };
  struct NodeKeyHash {
    std::size_t operator()(const NodeKey& k) const {
      std::uint64_t h = k.var;
      h = h * 0x9e3779b97f4a7c15ULL + k.low;
      h = h * 0x9e3779b97f4a7c15ULL + k.high;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };
  struct IteKey {
    BddRef f, g, h;
    bool operator==(const IteKey&) const = default;
  };
  struct IteKeyHash {
    std::size_t operator()(const IteKey& k) const {
      std::uint64_t h = k.f;
      h = h * 0x9e3779b97f4a7c15ULL + k.g;
      h = h * 0x9e3779b97f4a7c15ULL + k.h;
      return static_cast<std::size_t>(h ^ (h >> 32));
    }
  };

  static constexpr std::uint32_t kConstVar = 0xffffffffu;

  const Node& node_at(BddRef f) const { return nodes_[f]; }
  /// Hash-conses every arena node into the unique table (after a load).
  void rebuild_unique_table();

  BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  std::uint32_t top_var(BddRef f, BddRef g, BddRef h) const;
  BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;
  std::uint64_t sat_count_rec(BddRef f,
                              std::unordered_map<BddRef, std::uint64_t>& memo,
                              int* level_of) const;

  int num_vars_;
  std::vector<Node> nodes_;
  /// True from load_arena() until the next make_node rebuilds unique_.
  bool unique_stale_ = false;
  std::unordered_map<NodeKey, BddRef, NodeKeyHash> unique_;
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
};

}  // namespace fpgadbg::logic
