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

  /// The Specialized Configuration Generator: evaluate all parameterized
  /// bits under `assignment` (by parameter name; missing names default to
  /// false).  One independent BDD walk per bit: the reference the
  /// incremental SCG is checked against.
  Specialization specialize(
      const std::unordered_map<std::string, bool>& assignment) const;

  /// Incremental SCG: given the previous specialization and its assignment,
  /// re-evaluate ONLY the functions whose support contains a changed
  /// parameter.  Functions are grouped by support set; each group that
  /// reads a changed parameter has its BDD nodes swept once, children
  /// before parents, and every function reads its value at its root.  The
  /// embedded-processor optimization behind the paper's microsecond-scale
  /// turns on large PConfs.  The memory is bit-identical to
  /// specialize(assignment), and `changed_bits` lists the bits that flipped.
  Specialization specialize_incremental(
      const Specialization& previous,
      const std::unordered_map<std::string, bool>& previous_assignment,
      const std::unordered_map<std::string, bool>& assignment) const;

  /// Builds the support-group index the incremental SCG uses.  Called by
  /// the offline stage so no online turn pays the one-time cost; safe (and
  /// idempotent) to call any time.  Any edit of the function table drops
  /// the index; the next call rebuilds it.
  void prepare_incremental() const { (void)incremental_index(); }

 private:
  /// The incremental SCG's index: the function table grouped by support
  /// set.  Holds function-table positions, so any rebuild of the flat table
  /// invalidates it.
  struct SupportGroup {
    std::vector<std::uint32_t> fns;    ///< function-table positions
    std::vector<std::uint32_t> nodes;  ///< arena nodes they reach, ascending
  };
  struct IncrementalIndex {
    std::vector<SupportGroup> groups;
    /// Per parameter, the groups whose support contains it.
    std::vector<std::vector<std::uint32_t>> groups_of_param;
  };

  BitVec values_from(
      const std::unordered_map<std::string, bool>& assignment) const;
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
