#include "sim/compiled_simulator.h"

#include "sim/sim_kernels.h"
#include "support/error.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {

using kernels::broadcast;

CompiledSimulator::CompiledSimulator(const netlist::Netlist& nl)
    : prog_(lower_program(nl)) {
  init();
}

CompiledSimulator::CompiledSimulator(const map::MappedNetlist& mn)
    : prog_(lower_program(mn)) {
  init();
}

void CompiledSimulator::init() {
  values_.assign(prog_.num_slots, 0);
  // The sweep's copy of the program (see BroadcastOp).
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
  reset();
}

void CompiledSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = broadcast(prog_.latches[i].init != 0);
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  values_current_ = false;
}

void CompiledSimulator::set_source(std::uint32_t slot, bool value) {
  // No branch on whether the value changed: under random stimulus it would
  // be a coin flip per input.
  const std::uint64_t word = broadcast(value);
  const bool changed = values_[slot] != word;
  values_[slot] = word;
  values_current_ = values_current_ & !changed;
}

void CompiledSimulator::set_input(std::uint32_t id, bool value) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kInput,
                  "set_input target is not an input");
  set_source(id, value);
}

void CompiledSimulator::set_inputs(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.inputs.size(),
                  "set_inputs size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source(prog_.inputs[i], values[i]);
  }
}

void CompiledSimulator::set_param(std::uint32_t id, bool value) {
  FPGADBG_REQUIRE(id < prog_.num_design_nodes &&
                      prog_.node_kind[id] == SimProgram::SlotKind::kParam,
                  "set_param target is not a parameter");
  set_source(id, value);
}

void CompiledSimulator::set_params(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.params.size(),
                  "set_params size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_source(prog_.params[i], values[i]);
  }
}

void CompiledSimulator::eval() {
  telemetry::TraceScope span("sim.eval", "sim");
  static telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  evals.add(1);
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  // Every slot is a broadcast word, so an op's result is one mask bit,
  // indexed by lane 0 of its fanins.  The ops are sorted by level, so one
  // pass in program order sees every fanin settled.  With every op widened
  // to six fanins, no branch depends on the op.  A switch on the arity made
  // the sweep's speed hinge on how much of the program's arity sequence the
  // branch predictor held, and it swung by up to 1.3 times from one run to
  // the next.
  const BroadcastOp* ops = broadcast_ops_.data();
  const std::size_t n = broadcast_ops_.size();
  std::uint64_t* vals = values_.data();
  for (std::size_t i = 0; i < n; ++i) {
    const BroadcastOp& op = ops[i];
    const std::uint32_t* f = op.fanins;
    const std::uint64_t idx =
        (vals[f[0]] & 1) | (vals[f[1]] & 1) << 1 | (vals[f[2]] & 1) << 2 |
        (vals[f[3]] & 1) << 3 | (vals[f[4]] & 1) << 4 | (vals[f[5]] & 1) << 5;
    vals[op.out] = broadcast((op.mask >> idx) & 1);
  }
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

std::vector<bool> CompiledSimulator::output_values() const {
  std::vector<bool> out;
  out.reserve(prog_.outputs.size());
  for (std::uint32_t id : prog_.outputs) out.push_back(values_[id] & 1);
  return out;
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
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  values_current_ = false;
}

}  // namespace fpgadbg::sim
