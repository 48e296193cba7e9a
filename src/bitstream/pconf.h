// Parameterized configurations (PConf).
//
// "A PConf is an FPGA configuration bitstream with some of its bits
// expressed as Boolean functions of parameters.  They can be used to
// efficiently and quickly generate specialized configuration bitstreams by
// evaluating the Boolean functions."  (paper §I)
//
// Constant bits live in a dense ConfigMemory; parameterized bits are a
// sparse map from bit address to a BDD over the parameter variables.  The
// Specialized Configuration Generator (the online half, normally running on
// the embedded processor next to the HWICAP) evaluates every parameterized
// bit for a concrete parameter assignment.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "bitstream/config_memory.h"
#include "logic/bdd.h"
#include "support/status.h"

namespace fpgadbg::bitstream {

/// Read view over the parameterized-bit table: parallel arrays sorted by
/// ascending bit address.  `bits[i]` is a configuration bit address and
/// `refs[i]` the BDD of its Boolean function.  The view stays valid until
/// the next mutating PConf call.
struct FunctionView {
  const std::uint64_t* bits = nullptr;
  const std::uint32_t* refs = nullptr;
  std::size_t count = 0;
};

class PConf {
 public:
  PConf(std::size_t total_bits, std::vector<std::string> param_names);

  std::size_t total_bits() const { return constant_.total_bits(); }
  std::size_t num_params() const { return param_names_.size(); }
  const std::vector<std::string>& param_names() const { return param_names_; }
  int param_index(const std::string& name) const;

  logic::BddManager& bdd() { return bdd_; }
  const logic::BddManager& bdd() const { return bdd_; }

  /// Sets a constant configuration bit.
  void set_constant(std::size_t bit, bool value);
  /// Declares a bit as the Boolean function `f` of the parameters.
  /// A constant BDD is folded into the constant plane immediately.
  void set_function(std::size_t bit, logic::BddRef f);

  /// The constant bit plane (every non-parameterized bit).  The mutable
  /// overload exists for artifact deserialization, which restores the plane
  /// wholesale instead of replaying set_constant bit by bit.
  const ConfigMemory& constants() const { return constant_; }
  ConfigMemory& constants() { return constant_; }

  std::size_t num_parameterized_bits() const {
    return map_dirty_ ? build_map_.size() : fn_bits_.size();
  }
  /// Flat sorted view of the parameterized bits.  Folds any pending
  /// build-side mutations into the flat arrays first (cheap and idempotent
  /// once built).
  FunctionView functions() const;
  /// True when `bit` currently has a Boolean function attached.
  bool is_parameterized(std::size_t bit) const;

  /// Replaces the function table with `bits` and `refs`, parallel arrays
  /// read back from a cached artifact (load the BDD arena first).
  /// Validates that the arrays are the same length, that bit addresses are
  /// strictly ascending and in range, and that every ref names a decision
  /// node of the current BDD manager; violations are rejected as
  /// kCorruptArtifact.
  support::Status load_functions(std::vector<std::uint64_t> bits,
                                 std::vector<std::uint32_t> refs);

  /// Frames containing at least one parameterized bit — the only frames a
  /// specialization can ever touch.
  std::vector<std::size_t> parameterized_frames() const;

  struct Specialization {
    ConfigMemory memory;
    std::size_t bits_evaluated = 0;
    /// Ascending addresses of the bits that differ from the previous
    /// specialization.  Only specialize_incremental fills it.
    std::vector<std::size_t> changed_bits;
    double eval_seconds = 0.0;  ///< measured SCG evaluation time
  };

  /// What respecialize() did to the configuration memory it rewrote.
  struct Respecialization {
    std::size_t bits_evaluated = 0;
    std::vector<std::size_t> changed_bits;  ///< the bits it flipped, ascending
    double eval_seconds = 0.0;              ///< measured SCG evaluation time
  };

  /// Parameter values in param_names() order from an assignment by name
  /// (missing names are false).  Throws on a name that is no parameter.
  BitVec values_from(
      const std::unordered_map<std::string, bool>& assignment) const;

  /// The Specialized Configuration Generator: evaluate all parameterized
  /// bits under `values` (one per parameter, in param_names() order).  One
  /// independent BDD walk per bit: the reference the incremental SCG is
  /// checked against.
  Specialization specialize(const BitVec& values) const;
  /// specialize() of an assignment by parameter name (missing names
  /// default to false).
  Specialization specialize(
      const std::unordered_map<std::string, bool>& assignment) const;

  /// Incremental SCG, in place: rewrite `config` from the specialization
  /// for the parameter values `from` into the one for `to`, re-evaluating
  /// ONLY the functions whose support contains a changed parameter.
  /// Functions are grouped by support set.  A group over at most
  /// kTableParams parameters reads its table's rows for the old and the
  /// new values of its support; a wider group sweeps its BDD nodes once
  /// under both assignments.  Either way, every distinct function whose
  /// value changed flips its bits.  The embedded-processor optimization
  /// behind the paper's microsecond-scale turns on large PConfs.
  ///
  /// Precondition: `config` holds specialize(from).memory.  The SCG reads
  /// no bit of `config`, it only flips the bits whose value changes, so a
  /// configuration that disagrees with `from` is not repaired.  Under the
  /// precondition `config` is bit-identical to specialize(to).memory
  /// afterwards.
  Respecialization respecialize(ConfigMemory& config, const BitVec& from,
                                const BitVec& to) const;

  /// respecialize() on a copy of `previous.memory`, with both assignments
  /// by parameter name.  `previous` must hold the specialization for
  /// `previous_assignment` (respecialize()'s precondition).
  Specialization specialize_incremental(
      const Specialization& previous,
      const std::unordered_map<std::string, bool>& previous_assignment,
      const std::unordered_map<std::string, bool>& assignment) const;

  /// Builds the support-group index the incremental SCG uses: a value
  /// table per group of at most kTableParams parameters, a node program
  /// per wider group.  Called by the offline stage so no online turn pays
  /// the one-time cost; safe (and idempotent) to call any time.  Any edit
  /// of the function table drops the index; the next call rebuilds it.
  void prepare_incremental() const { (void)incremental_index(); }

  /// Compacts the BDD arena to the nodes some function reaches, keeping
  /// their order (children before parents), and renumbers the function
  /// table to match.  Every other BddRef into the arena becomes invalid.
  /// build_pconf calls it last, so no stored or loaded arena carries the
  /// intermediate nodes of the build.
  void drop_unreachable_nodes();

  /// Widest support that gets a value table: 2^10 rows per group.
  static constexpr std::size_t kTableParams = 10;

 private:
  /// One support group: the functions whose support is exactly `vars`.
  /// Its distinct BDD roots are numbered 0..R-1, and the configuration bits
  /// of root r are bits[root_bits[r]] .. bits[root_bits[r + 1] - 1],
  /// ascending.  A group over at most kTableParams parameters keeps only a
  /// table: row c, `words_per_row` words from rows[c * words_per_row],
  /// holds bit r = root r's value under code c, where code bit i is the
  /// value of vars[i].  A wider group keeps its straight-line program
  /// instead: the arena nodes its roots reach, in ascending arena order
  /// and renumbered from 2 (0 and 1 are the constants, so every child id
  /// is local too), and root r's local id in root_node[r].
  struct SupportGroup {
    std::vector<std::uint32_t> vars;  ///< the support, ascending
    std::vector<std::uint32_t> root_bits;
    std::vector<std::uint32_t> bits;
    std::size_t words_per_row = 0;
    std::vector<std::uint64_t> rows;  ///< empty for a wide group
    std::vector<logic::BddManager::Node> nodes;
    std::vector<std::uint32_t> root_node;
  };
  /// The incremental SCG's index: the function table grouped by support
  /// set.  Holds copies of table entries and values derived from the
  /// arena, so every edit of the table and every compaction drops it.
  struct IncrementalIndex {
    std::vector<SupportGroup> groups;
    /// Per parameter, the groups whose support contains it.
    std::vector<std::vector<std::uint32_t>> groups_of_param;
    /// Node count of the largest wide group (sizes the sweep's scratch).
    std::size_t max_group_nodes = 0;
  };

  /// Lazily built support-group index over the current function table.
  const IncrementalIndex& incremental_index() const;

  /// Folds build_map_ into the sorted flat arrays (no-op when clean).
  void sync_functions() const;
  /// Moves the flat table back into build_map_ so mutation can proceed.
  /// Drops the incremental index.
  void thaw_functions();

  ConfigMemory constant_;
  std::vector<std::string> param_names_;
  std::unordered_map<std::string, int> param_index_;
  logic::BddManager bdd_;
  // Function table, dual-store.  Build-time mutation goes through
  // build_map_ (map_dirty_ = true); the first read folds it into the
  // sorted flat arrays below and clears it.  Warm loads skip the map
  // entirely (load_functions fills the flat arrays) until the first
  // mutation thaws them back into the map.
  mutable std::unordered_map<std::size_t, logic::BddRef> build_map_;
  mutable bool map_dirty_ = false;
  mutable std::vector<std::uint64_t> fn_bits_;
  mutable std::vector<std::uint32_t> fn_refs_;
  mutable std::optional<IncrementalIndex> index_;
};

}  // namespace fpgadbg::bitstream
