#include "sim/compiled_simulator.h"

#include <algorithm>

#include "sim/sim_kernels.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {

using kernels::apply_fault_word;
using kernels::broadcast;
using kernels::eval_op_word;

CompiledSimulator::CompiledSimulator(const netlist::Netlist& nl,
                                     CompiledSimOptions options)
    : prog_(lower_program(nl)), opts_(options) {
  init();
}

CompiledSimulator::CompiledSimulator(const map::MappedNetlist& mn,
                                     CompiledSimOptions options)
    : prog_(lower_program(mn)), opts_(options) {
  init();
}

void CompiledSimulator::init() {
  if (opts_.num_threads == 0) {
    pool_ = &ThreadPool::global();
  } else if (opts_.num_threads > 1) {
    own_pool_ = std::make_unique<ThreadPool>(opts_.num_threads);
    pool_ = own_pool_.get();
  }
  if (pool_ && pool_->size() <= 1) pool_ = nullptr;
  values_.assign(prog_.num_slots, 0);
  // The broadcast loop's copy of the program (see BroadcastOp).
  broadcast_ops_.resize(prog_.ops.size());
  for (std::size_t i = 0; i < prog_.ops.size(); ++i) {
    const SimOp& op = prog_.ops[i];
    const std::uint32_t k = op.fanin_count;
    const std::uint32_t* f = prog_.fanins.data() + op.fanin_begin;
    BroadcastOp& w = broadcast_ops_[i];
    w.mask = k == SimProgram::kMaxOpArity
                 ? op.mask
                 : op.mask & ((std::uint64_t{1} << (1u << k)) - 1);
    for (std::uint32_t width = 1u << k; width < 64; width <<= 1) {
      w.mask |= w.mask << width;
    }
    w.out = op.out;
    for (std::uint32_t j = 0; j < SimProgram::kMaxOpArity; ++j) {
      w.fanins[j] = j < k ? f[j] : (k != 0 ? f[0] : op.out);
    }
  }
  latch_words_.resize(prog_.latches.size());
  if (opts_.event_driven) dirty_.assign(prog_.num_slots, 0);
  op_has_fault_.assign(prog_.ops.size(), 0);
  reset();
}

void CompiledSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = broadcast(prog_.latches[i].init != 0);
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  full_eval_pending_ = true;
  values_current_ = false;
}

void CompiledSimulator::set_source_word(std::uint32_t slot,
                                        std::uint64_t word) {
  // No branch on whether the word changed: under random stimulus it would
  // be a coin flip per input.
  const bool changed = values_[slot] != word;
  if (word != 0 && word != ~0ULL) uniform_ = false;
  if (opts_.event_driven) dirty_[slot] |= changed;
  values_[slot] = word;
  values_current_ = values_current_ & !changed;
}

void CompiledSimulator::set_input(std::uint32_t id, bool value) {
  set_input_word(id, broadcast(value));
}

void CompiledSimulator::set_inputs(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.inputs.size(),
                  "set_inputs size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source_word(prog_.inputs[i], broadcast(values[i]));
  }
}

void CompiledSimulator::set_param(std::uint32_t id, bool value) {
  set_param_word(id, broadcast(value));
}

void CompiledSimulator::set_params(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.params.size(),
                  "set_params size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source_word(prog_.params[i], broadcast(values[i]));
  }
}

void CompiledSimulator::set_input_word(std::uint32_t id, std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kInput,
                  "set_input target is not an input");
  set_source_word(id, word);
}

void CompiledSimulator::set_param_word(std::uint32_t id, std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kParam,
                  "set_param target is not a parameter");
  set_source_word(id, word);
}

void CompiledSimulator::run_ops(std::size_t begin, std::size_t end,
                                bool full) {
  const SimOp* ops = prog_.ops.data();
  const std::uint32_t* arena = prog_.fanins.data();
  std::uint64_t* vals = values_.data();
  const bool event = opts_.event_driven;
  std::uint8_t* dirty = event ? dirty_.data() : nullptr;
  const std::uint8_t* op_fault = op_has_fault_.data();
  const bool have_faults = !faults_by_op_.empty();
  std::uint64_t skipped = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const SimOp& op = ops[i];
    const std::uint32_t* f = arena + op.fanin_begin;
    const std::uint32_t k = op.fanin_count;
    const bool faulted = have_faults && op_fault[i];
    if (event && !full && !faulted) {
      std::uint8_t any = 0;
      for (std::uint32_t j = 0; j < k; ++j) any |= dirty[f[j]];
      if (!any) {
        dirty[op.out] = 0;
        ++skipped;
        continue;
      }
    }
    std::uint64_t w[SimProgram::kMaxOpArity];
    for (std::uint32_t j = 0; j < k; ++j) w[j] = vals[f[j]];
    std::uint64_t r = eval_op_word(op.mask, k, w);
    if (faulted) {
      for (const Fault& fl : faults_by_op_.find(static_cast<std::uint32_t>(i))
                                 ->second) {
        r = apply_fault_word(fl, r, cycle_);
      }
    }
    if (event) {
      dirty[op.out] = vals[op.out] != r;
      vals[op.out] = r;
    } else {
      vals[op.out] = r;
    }
  }
  if (skipped != 0) {
    // One relaxed add per chunk; the per-op loop stays atomic-free.
    static telemetry::Counter& skip_counter =
        telemetry::metrics().counter("sim.ops_skipped");
    skip_counter.add(skipped);
  }
}

void CompiledSimulator::run_broadcast_ops(std::size_t begin,
                                          std::size_t end) {
  // Every lane agrees, so an op's result is one mask bit, indexed by lane 0
  // of its fanins.  With every op widened to six fanins, no branch depends
  // on the op.  A switch on the arity made the sweep's speed hinge on how
  // much of the program's arity sequence the branch predictor held, and it
  // swung by up to 1.3 times from one run to the next.
  const BroadcastOp* ops = broadcast_ops_.data();
  std::uint64_t* vals = values_.data();
  for (std::size_t i = begin; i < end; ++i) {
    const BroadcastOp& op = ops[i];
    const std::uint32_t* f = op.fanins;
    const std::uint64_t idx =
        (vals[f[0]] & 1) | (vals[f[1]] & 1) << 1 | (vals[f[2]] & 1) << 2 |
        (vals[f[3]] & 1) << 3 | (vals[f[4]] & 1) << 4 | (vals[f[5]] & 1) << 5;
    vals[op.out] = broadcast((op.mask >> idx) & 1);
  }
}

void CompiledSimulator::sweep_level(std::size_t begin, std::size_t end,
                                    bool full, bool broadcast_only) {
  telemetry::TraceScope span("sim.level_sweep", "sim");
  const std::size_t width = end - begin;
  if (pool_ != nullptr && width >= opts_.parallel_min_level_width) {
    static telemetry::Counter& parallel_sweeps =
        telemetry::metrics().counter("sim.parallel_sweeps");
    parallel_sweeps.add(1);
    // Chunked dispatch: ops only read slots written by strictly lower
    // levels plus their own output slot, so chunks never race.
    const std::size_t chunks = std::min(width, pool_->size() * 4);
    const std::size_t chunk = (width + chunks - 1) / chunks;
    pool_->parallel_for(chunks, [&](std::size_t c) {
      // Parent-links to sim.level_sweep via the pool's context capture;
      // "sim" category keeps it off the hot path outside full tracing.
      telemetry::TraceScope chunk_span("sim.level_chunk", "sim");
      const std::size_t b = begin + c * chunk;
      const std::size_t e = std::min(end, b + chunk);
      broadcast_only ? run_broadcast_ops(b, e) : run_ops(b, e, full);
    });
  } else {
    broadcast_only ? run_broadcast_ops(begin, end) : run_ops(begin, end, full);
  }
}

void CompiledSimulator::eval() {
  telemetry::TraceScope span("sim.eval", "sim");
  static telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  evals.add(1);
  const bool event = opts_.event_driven;
  const bool full = full_eval_pending_ || !event;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    set_source_word(prog_.latches[i].out_slot, latch_words_[i]);
  }
  // Chosen once per sweep: the scalar debug-session DUT always takes the
  // broadcast loop; word, event-driven and faulted sweeps take run_ops.
  const bool broadcast_only = uniform_ && !event && faults_by_op_.empty();
  for (std::size_t l = 0; l + 1 < prog_.level_begin.size(); ++l) {
    sweep_level(prog_.level_begin[l], prog_.level_begin[l + 1], full,
                broadcast_only);
  }
  if (event) {
    for (std::uint32_t id : prog_.inputs) dirty_[id] = 0;
    for (std::uint32_t id : prog_.params) dirty_[id] = 0;
    for (const SimLatch& latch : prog_.latches) dirty_[latch.out_slot] = 0;
  }
  full_eval_pending_ = false;
  values_current_ = true;
}

void CompiledSimulator::step() {
  if (!values_current_) eval();
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = values_[prog_.latches[i].in_slot];
  }
  ++cycle_;
  values_current_ = false;
}

bool CompiledSimulator::output(std::size_t index) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return values_[prog_.outputs[index]] & 1;
}

std::uint64_t CompiledSimulator::output_word(std::size_t index) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return values_[prog_.outputs[index]];
}

std::vector<bool> CompiledSimulator::output_values() const {
  std::vector<bool> out;
  out.reserve(prog_.outputs.size());
  for (std::uint32_t id : prog_.outputs) out.push_back(values_[id] & 1);
  return out;
}

void CompiledSimulator::inject_fault(const Fault& fault) {
  FPGADBG_REQUIRE(fault.node < prog_.num_design_nodes,
                  "fault node out of range");
  faults_.push_back(fault);
  const std::uint32_t op = prog_.op_of_node[fault.node];
  if (op != kNoOp) {
    faults_by_op_[op].push_back(fault);
    op_has_fault_[op] = 1;
  }
  full_eval_pending_ = true;
  values_current_ = false;
}

void CompiledSimulator::clear_faults() {
  faults_.clear();
  faults_by_op_.clear();
  std::fill(op_has_fault_.begin(), op_has_fault_.end(), 0);
  full_eval_pending_ = true;
  values_current_ = false;
}

void CompiledSimulator::restore(const Snapshot& snapshot) {
  FPGADBG_REQUIRE(snapshot.version == kSnapshotVersion,
                  "snapshot from an incompatible engine version");
  FPGADBG_REQUIRE(snapshot.lanes == kLanes,
                  "snapshot was taken at a different batch width");
  FPGADBG_REQUIRE(snapshot.latch_words.size() == latch_words_.size(),
                  "snapshot is for a different design");
  latch_words_ = snapshot.latch_words;
  cycle_ = snapshot.cycle;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    const std::uint64_t w = latch_words_[i];
    if (w != 0 && w != ~0ULL) uniform_ = false;
    values_[prog_.latches[i].out_slot] = w;
  }
  full_eval_pending_ = true;
  values_current_ = false;
}

}  // namespace fpgadbg::sim
