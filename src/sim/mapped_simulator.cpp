#include "sim/mapped_simulator.h"

#include "support/error.h"

namespace fpgadbg::sim {

using map::CellId;
using map::MappedNetlist;
using map::MKind;

MappedSimulator::MappedSimulator(const MappedNetlist& mn, SimBackend backend)
    : mn_(mn), backend_(backend) {
  if (backend_ == SimBackend::kCompiled) {
    engine_.emplace(mn);
    return;
  }
  topo_ = mn.topo_order();
  values_.assign(mn.num_cells(), 0);
  latch_state_.resize(mn.latches().size(), 0);
  reset();
}

void MappedSimulator::reset() {
  if (engine_) {
    engine_->reset();
    return;
  }
  cycle_ = 0;
  for (std::size_t i = 0; i < mn_.latches().size(); ++i) {
    latch_state_[i] = mn_.latches()[i].init_value == 1 ? 1 : 0;
    values_[mn_.latches()[i].output] = latch_state_[i];
  }
}

void MappedSimulator::set_input(CellId id, bool value) {
  FPGADBG_REQUIRE(mn_.cell(id).kind == MKind::kInput,
                  "set_input target is not an input");
  if (engine_) {
    engine_->set_input(id, value);
  } else {
    values_[id] = value ? 1 : 0;
  }
}

void MappedSimulator::set_input(const std::string& name, bool value) {
  const auto id = mn_.find(name);
  FPGADBG_REQUIRE(id.has_value(), "unknown input: " + name);
  set_input(*id, value);
}

void MappedSimulator::set_inputs(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == mn_.inputs().size(),
                  "set_inputs size mismatch");
  if (engine_) {
    engine_->set_inputs(values);
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    values_[mn_.inputs()[i]] = values[i] ? 1 : 0;
  }
}

void MappedSimulator::set_param(CellId id, bool value) {
  FPGADBG_REQUIRE(mn_.cell(id).kind == MKind::kParam,
                  "set_param target is not a parameter");
  if (engine_) {
    engine_->set_param(id, value);
  } else {
    values_[id] = value ? 1 : 0;
  }
}

void MappedSimulator::set_params(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == mn_.params().size(),
                  "set_params size mismatch");
  if (engine_) {
    engine_->set_params(values);
    return;
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    values_[mn_.params()[i]] = values[i] ? 1 : 0;
  }
}

void MappedSimulator::set_watched(const std::vector<CellId>& ids) {
  if (engine_) engine_->set_watched(ids);
}

void MappedSimulator::bind() {
  if (engine_) engine_->bind();
}

void MappedSimulator::eval() {
  if (engine_) {
    engine_->eval();
    return;
  }
  for (std::size_t i = 0; i < mn_.latches().size(); ++i) {
    values_[mn_.latches()[i].output] = latch_state_[i];
  }
  for (CellId id : topo_) {
    const auto& cell = mn_.cell(id);
    std::uint64_t assignment = 0;
    std::size_t v = 0;
    for (CellId in : cell.data_inputs) {
      if (values_[in]) assignment |= 1ULL << v;
      ++v;
    }
    for (CellId in : cell.param_inputs) {
      if (values_[in]) assignment |= 1ULL << v;
      ++v;
    }
    values_[id] = cell.function.evaluate(assignment) ? 1 : 0;
  }
}

void MappedSimulator::step() {
  if (engine_) {
    engine_->step();
    return;
  }
  eval();
  for (std::size_t i = 0; i < mn_.latches().size(); ++i) {
    latch_state_[i] = values_[mn_.latches()[i].input];
  }
  ++cycle_;
}

bool MappedSimulator::output(std::size_t index) const {
  FPGADBG_REQUIRE(index < mn_.outputs().size(), "output index out of range");
  return engine_ ? engine_->output(index)
                 : values_[mn_.outputs()[index]] != 0;
}

MappedSimulator::Snapshot MappedSimulator::snapshot() const {
  if (!engine_) return Snapshot{latch_state_, cycle_};
  const auto snap = engine_->snapshot();
  Snapshot out;
  out.cycle = snap.cycle;
  out.latch_state.reserve(snap.latch_words.size());
  // Scalar stimulus broadcasts across all lanes, so lane 0 carries the state.
  for (std::uint64_t w : snap.latch_words) {
    out.latch_state.push_back(static_cast<std::uint8_t>(w & 1));
  }
  return out;
}

void MappedSimulator::restore(const Snapshot& snap) {
  if (!engine_) {
    FPGADBG_REQUIRE(snap.latch_state.size() == latch_state_.size(),
                    "snapshot is for a different design");
    latch_state_ = snap.latch_state;
    cycle_ = snap.cycle;
    for (std::size_t i = 0; i < mn_.latches().size(); ++i) {
      values_[mn_.latches()[i].output] = latch_state_[i];
    }
    return;
  }
  CompiledSimulator::Snapshot full;
  full.cycle = snap.cycle;
  full.latch_words.reserve(snap.latch_state.size());
  for (std::uint8_t b : snap.latch_state) {
    full.latch_words.push_back(b ? ~0ULL : 0ULL);
  }
  engine_->restore(full);
}

std::vector<bool> MappedSimulator::output_values() const {
  if (engine_) return engine_->output_values();
  std::vector<bool> out;
  out.reserve(mn_.outputs().size());
  for (CellId id : mn_.outputs()) out.push_back(values_[id] != 0);
  return out;
}

}  // namespace fpgadbg::sim
