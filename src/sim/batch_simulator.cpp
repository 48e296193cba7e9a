#include "sim/batch_simulator.h"

#include <algorithm>

#include "sim/sim_kernels.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {

namespace {

/// Evaluates one op for the block range [b0, b1).  The fanin base pointers
/// and the mask are loop-invariant, so the whole per-block body reduces to K
/// contiguous loads, the unrolled Shannon arithmetic, and one contiguous
/// store — exactly the shape the auto-vectorizer wants.
template <int K>
void eval_op_blocks(std::uint64_t mask, const std::uint64_t* const* in,
                    std::uint64_t* out, std::size_t b0, std::size_t b1) {
  for (std::size_t b = b0; b < b1; ++b) {
    if constexpr (K == 0) {
      out[b] = kernels::shannon<0>(mask, nullptr);
    } else {
      std::uint64_t w[K];
      for (int j = 0; j < K; ++j) w[j] = in[j][b];
      out[b] = kernels::shannon<K>(mask, w);
    }
  }
}

void eval_op_blocks_dispatch(std::uint64_t mask, std::uint32_t arity,
                             const std::uint64_t* const* in,
                             std::uint64_t* out, std::size_t b0,
                             std::size_t b1) {
  switch (arity) {
    case 0: eval_op_blocks<0>(mask, in, out, b0, b1); break;
    case 1: eval_op_blocks<1>(mask, in, out, b0, b1); break;
    case 2: eval_op_blocks<2>(mask, in, out, b0, b1); break;
    case 3: eval_op_blocks<3>(mask, in, out, b0, b1); break;
    case 4: eval_op_blocks<4>(mask, in, out, b0, b1); break;
    case 5: eval_op_blocks<5>(mask, in, out, b0, b1); break;
    default: eval_op_blocks<6>(mask, in, out, b0, b1); break;
  }
}

std::size_t popcount_words(const std::vector<std::uint64_t>& words) {
  std::size_t n = 0;
  for (std::uint64_t w : words) n += static_cast<std::size_t>(__builtin_popcountll(w));
  return n;
}

}  // namespace

BatchSimulator::BatchSimulator(const netlist::Netlist& nl,
                               BatchSimOptions options)
    : prog_(lower_program(nl)), opts_(options) {
  init();
}

BatchSimulator::BatchSimulator(const map::MappedNetlist& mn,
                               BatchSimOptions options)
    : prog_(lower_program(mn)), opts_(options) {
  init();
}

BatchSimulator::BatchSimulator(SimProgram program, BatchSimOptions options)
    : prog_(std::move(program)), opts_(options) {
  init();
}

void BatchSimulator::init() {
  FPGADBG_REQUIRE(opts_.blocks >= 1, "batch must have at least one block");
  blocks_ = opts_.blocks;
  values_.assign(prog_.num_slots * blocks_, 0);
  for (std::size_t i = 0; i < prog_.param_values.size(); ++i) {
    std::fill_n(slot_words(prog_.params[i]), blocks_,
                kernels::broadcast(prog_.param_values[i] != 0));
  }
  latch_words_.assign(prog_.latches.size() * blocks_, 0);
  op_has_fault_.assign(prog_.ops.size(), 0);
  faulted_mask_.assign(blocks_, 0);
  telemetry::metrics().counter("sim.batch.engines").add(1);
  reset();
}

void BatchSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    const std::uint64_t w = kernels::broadcast(prog_.latches[i].init != 0);
    std::fill_n(latch_words_.begin() + i * blocks_, blocks_, w);
    std::fill_n(slot_words(prog_.latches[i].out_slot), blocks_, w);
  }
}

void BatchSimulator::set_input_word(std::uint32_t id, std::size_t block,
                                    std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kInput,
                  "set_input target is not an input");
  FPGADBG_REQUIRE(block < blocks_, "scenario block out of range");
  slot_words(id)[block] = word;
}

void BatchSimulator::set_param_word(std::uint32_t id, std::size_t block,
                                    std::uint64_t word) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kParam,
                  "set_param target is not a parameter");
  FPGADBG_REQUIRE(prog_.param_values.empty(),
                  "set_param target is bound in this program");
  FPGADBG_REQUIRE(block < blocks_, "scenario block out of range");
  slot_words(id)[block] = word;
}

void BatchSimulator::broadcast_input(std::uint32_t id, bool value) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kInput,
                  "set_input target is not an input");
  std::fill_n(slot_words(id), blocks_, kernels::broadcast(value));
}

void BatchSimulator::broadcast_param(std::uint32_t id, bool value) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kParam,
                  "set_param target is not a parameter");
  FPGADBG_REQUIRE(prog_.param_values.empty(),
                  "set_param target is bound in this program");
  std::fill_n(slot_words(id), blocks_, kernels::broadcast(value));
}

void BatchSimulator::run_blocks(std::size_t b0, std::size_t b1, bool clock) {
  const std::size_t B = blocks_;
  std::uint64_t* vals = values_.data();
  // Latch Q values feed this pass's combinational logic.
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    std::copy(latch_words_.begin() + i * B + b0,
              latch_words_.begin() + i * B + b1,
              vals + static_cast<std::size_t>(prog_.latches[i].out_slot) * B +
                  b0);
  }
  const SimOp* ops = prog_.ops.data();
  const std::uint32_t* arena = prog_.fanins.data();
  const std::uint8_t* op_fault = op_has_fault_.data();
  const bool have_faults = !faults_by_op_.empty();
  for (std::size_t i = 0; i < prog_.ops.size(); ++i) {
    const SimOp& op = ops[i];
    const std::uint32_t* f = arena + op.fanin_begin;
    const std::uint32_t k = op.fanin_count;
    const std::uint64_t* in[SimProgram::kMaxOpArity];
    for (std::uint32_t j = 0; j < k; ++j) {
      in[j] = vals + static_cast<std::size_t>(f[j]) * B;
    }
    std::uint64_t* out = vals + static_cast<std::size_t>(op.out) * B;
    eval_op_blocks_dispatch(op.mask, k, in, out, b0, b1);
    if (have_faults && op_fault[i]) {
      for (const BatchFault& bf :
           faults_by_op_.find(static_cast<std::uint32_t>(i))->second) {
        for (std::size_t b = b0; b < b1; ++b) {
          const std::uint64_t m = bf.mask[b];
          if (m != 0) {
            out[b] = kernels::apply_fault_masked(bf.fault, out[b], m, cycle_);
          }
        }
      }
    }
  }
  if (clock) {
    for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
      const std::uint64_t* d =
          vals + static_cast<std::size_t>(prog_.latches[i].in_slot) * B;
      std::copy(d + b0, d + b1, latch_words_.begin() + i * B + b0);
    }
  }
}

void BatchSimulator::eval() {
  telemetry::TraceScope span("sim.batch.eval", "sim");
  static telemetry::Counter& blocks_swept =
      telemetry::metrics().counter("sim.batch.blocks");
  blocks_swept.add(blocks_);
  run_blocks(0, blocks_, false);
}

void BatchSimulator::step() {
  telemetry::TraceScope span("sim.batch.step", "sim");
  static telemetry::Counter& blocks_swept =
      telemetry::metrics().counter("sim.batch.blocks");
  static telemetry::Counter& scenario_cycles =
      telemetry::metrics().counter("sim.batch.scenario_cycles");
  blocks_swept.add(blocks_);
  scenario_cycles.add(num_scenarios());
  run_blocks(0, blocks_, true);
  ++cycle_;
}

BatchSimulator::BatchView BatchSimulator::view(std::uint32_t slot) const {
  FPGADBG_REQUIRE(slot < prog_.num_slots, "slot out of range");
  return BatchView(slot_words(slot), blocks_);
}

std::uint64_t BatchSimulator::word(std::uint32_t id,
                                   std::size_t block) const {
  FPGADBG_REQUIRE(id < prog_.num_slots, "slot out of range");
  FPGADBG_REQUIRE(block < blocks_, "scenario block out of range");
  return slot_words(id)[block];
}

bool BatchSimulator::value(std::uint32_t id, std::size_t scenario) const {
  FPGADBG_REQUIRE(scenario < num_scenarios(), "scenario out of range");
  return (word(id, scenario / kLanesPerBlock) >>
          (scenario % kLanesPerBlock)) &
         1;
}

BatchSimulator::BatchView BatchSimulator::output_view(
    std::size_t index) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return BatchView(slot_words(prog_.outputs[index]), blocks_);
}

std::uint64_t BatchSimulator::output_word(std::size_t index,
                                          std::size_t block) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return word(prog_.outputs[index], block);
}

bool BatchSimulator::output_value(std::size_t index,
                                  std::size_t scenario) const {
  FPGADBG_REQUIRE(index < prog_.outputs.size(), "output index out of range");
  return value(prog_.outputs[index], scenario);
}

void BatchSimulator::fold_output_signatures(std::uint64_t* signatures,
                                            std::size_t valid_blocks) const {
  FPGADBG_REQUIRE(valid_blocks <= blocks_, "scenario block out of range");
  // Built with this unit's vector ISA: the lane loop's 64-bit multiplies
  // vectorize here, and the order of the folds is the signature definition.
  for (const std::uint32_t out : prog_.outputs) {
    const std::uint64_t* words = slot_words(out);
    for (std::size_t b = 0; b < valid_blocks; ++b) {
      const std::uint64_t w = words[b];
      std::uint64_t* sig = signatures + b * kLanesPerBlock;
      for (std::size_t l = 0; l < kLanesPerBlock; ++l) {
        sig[l] = (sig[l] ^ ((w >> l) & 1)) * kSignaturePrime;
      }
    }
  }
}

void BatchSimulator::account_fault(const Fault& fault,
                                   std::vector<std::uint64_t> mask) {
  faults_.push_back(fault);
  const std::uint32_t op = prog_.op_of_node[fault.node];
  if (op == kNoOp) return;  // source node: never re-evaluated, no effect
  const std::size_t before = popcount_words(faulted_mask_);
  for (std::size_t b = 0; b < blocks_; ++b) faulted_mask_[b] |= mask[b];
  const std::size_t added = popcount_words(faulted_mask_) - before;
  if (added != 0) {
    telemetry::metrics().counter("sim.batch.faulted_scenarios").add(added);
  }
  faults_by_op_[op].push_back(BatchFault{fault, std::move(mask)});
  op_has_fault_[op] = 1;
}

void BatchSimulator::inject_fault(const Fault& fault, std::size_t scenario) {
  FPGADBG_REQUIRE(fault.node < prog_.num_design_nodes,
                  "fault node out of range");
  std::vector<std::uint64_t> mask(blocks_, 0);
  if (scenario == kAllScenarios) {
    std::fill(mask.begin(), mask.end(), ~0ULL);
  } else {
    FPGADBG_REQUIRE(scenario < num_scenarios(), "fault scenario out of range");
    mask[scenario / kLanesPerBlock] = 1ULL << (scenario % kLanesPerBlock);
  }
  account_fault(fault, std::move(mask));
}

void BatchSimulator::inject_fault_masked(
    const Fault& fault, const std::vector<std::uint64_t>& mask) {
  FPGADBG_REQUIRE(fault.node < prog_.num_design_nodes,
                  "fault node out of range");
  FPGADBG_REQUIRE(mask.size() == blocks_,
                  "fault mask has wrong number of blocks");
  account_fault(fault, mask);
}

void BatchSimulator::clear_faults() {
  faults_.clear();
  faults_by_op_.clear();
  std::fill(op_has_fault_.begin(), op_has_fault_.end(), 0);
  std::fill(faulted_mask_.begin(), faulted_mask_.end(), 0);
}

std::size_t BatchSimulator::num_faulted_scenarios() const {
  return popcount_words(faulted_mask_);
}

BatchSimulator::Snapshot BatchSimulator::snapshot() const {
  Snapshot snap;
  snap.blocks = blocks_;
  snap.latch_words = latch_words_;
  snap.cycle = cycle_;
  return snap;
}

void BatchSimulator::restore(const Snapshot& snapshot) {
  FPGADBG_REQUIRE(snapshot.version == kSnapshotVersion,
                  "snapshot from an incompatible engine version");
  FPGADBG_REQUIRE(snapshot.blocks == blocks_,
                  "snapshot was taken at a different batch width");
  FPGADBG_REQUIRE(snapshot.latch_words.size() == latch_words_.size(),
                  "snapshot is for a different design");
  latch_words_ = snapshot.latch_words;
  cycle_ = snapshot.cycle;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    std::copy(latch_words_.begin() + i * blocks_,
              latch_words_.begin() + (i + 1) * blocks_,
              slot_words(prog_.latches[i].out_slot));
  }
}

}  // namespace fpgadbg::sim
