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
//  - the arena can BORROW node storage from a memory-mapped artifact
//    (adopt_arena): reads walk the mapping directly with zero copies, and
//    the first mutation transparently materializes an owned copy and
//    rebuilds the unique table (copy-on-write).
#pragma once

#include <cstdint>
#include <memory>
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
  /// Arena node layout.  Public (and layout-pinned) because blob artifacts
  /// serialize the arena as one contiguous span and borrow it back on
  /// load; all twelve bytes are explicit, so the raw bytes are
  /// deterministic.
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
  std::size_t size() const { return borrowed() ? arena_count_ : nodes_.size(); }

  /// Contiguous arena [0, size()) for the blob encoder: constants first,
  /// then decision nodes, children always before their parents.
  const Node* arena_data() const {
    return borrowed() ? arena_ : nodes_.data();
  }

  // --- zero-copy arena adoption --------------------------------------------
  /// Replaces this manager's contents with a borrowed arena of `count`
  /// nodes living inside `backing` (typically an mmap'd blob).  Validates
  /// the structural invariants that keep every read in bounds — constants
  /// at [0,2), children strictly before parents, variables within
  /// `num_vars`, low != high — and rejects violations as
  /// kCorruptArtifact.  Canonicity (no duplicate nodes) is trusted from
  /// the digest-verified producer: a duplicate cannot cause an unsafe read
  /// and is re-consed away if the arena is ever mutated.  After adoption
  /// reads are zero-copy; the first make_node materializes an owned copy.
  support::Status adopt_arena(int num_vars, const Node* nodes,
                              std::size_t count,
                              std::shared_ptr<const void> backing);

  bool borrowed() const { return arena_ != nullptr; }

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

  const Node& node_at(BddRef f) const {
    return borrowed() ? arena_[f] : nodes_[f];
  }
  /// Copy-on-write: copies the borrowed arena into owned storage and
  /// rebuilds the unique table so mutation can proceed.
  void thaw();

  BddRef make_node(std::uint32_t var, BddRef low, BddRef high);
  std::uint32_t top_var(BddRef f, BddRef g, BddRef h) const;
  BddRef cofactor(BddRef f, std::uint32_t var, bool value) const;
  std::uint64_t sat_count_rec(BddRef f,
                              std::unordered_map<BddRef, std::uint64_t>& memo,
                              int* level_of) const;

  int num_vars_;
  std::vector<Node> nodes_;
  // Borrowed mode: reads go through arena_ (which points into backing_)
  // and nodes_/unique_ stay empty until thaw().  The raw pointer is safe
  // to copy between managers because every copy shares the backing.
  const Node* arena_ = nullptr;
  std::size_t arena_count_ = 0;
  std::shared_ptr<const void> backing_;
  std::unordered_map<NodeKey, BddRef, NodeKeyHash> unique_;
  std::unordered_map<IteKey, BddRef, IteKeyHash> ite_cache_;
};

}  // namespace fpgadbg::logic
