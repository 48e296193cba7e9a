#include "sim/compiled_simulator.h"

#include <bit>
#include <numeric>

#include "sim/sim_kernels.h"
#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::sim {

using kernels::broadcast;

namespace {

constexpr std::uint32_t kArity = SimProgram::kMaxOpArity;

bool is_source(const SimProgram& prog, std::uint32_t slot) {
  if (slot >= prog.num_design_nodes) return false;
  const SimProgram::SlotKind kind = prog.node_kind[slot];
  return kind == SimProgram::SlotKind::kInput ||
         kind == SimProgram::SlotKind::kParam ||
         kind == SimProgram::SlotKind::kLatchOut;
}

/// The low 2^k bits of `mask` (a k-input table) repeated across all 64.
std::uint64_t widen(std::uint64_t mask, std::uint32_t k) {
  if (k < kArity) mask &= (std::uint64_t{1} << (1u << k)) - 1;
  for (std::uint32_t width = 1u << k; width < 64; width <<= 1) {
    mask |= mask << width;
  }
  return mask;
}

}  // namespace

void CompiledSimulator::Rows::add_row(const std::vector<std::uint32_t>& row) {
  items.insert(items.end(), row.begin(), row.end());
  begin.push_back(static_cast<std::uint32_t>(items.size()));
}

CompiledSimulator::CompiledSimulator(const netlist::Netlist& nl)
    : prog_(lower_program(nl)) {
  init();
}

CompiledSimulator::CompiledSimulator(const map::MappedNetlist& mn)
    : prog_(lower_bindable_program(mn)) {
  init();
  init_binding(mn);
}

void CompiledSimulator::init() {
  // Two slots past the program's hold the constants a TCON can select.
  const std::size_t slots = prog_.num_slots + 2;
  values_.assign(slots, 0);
  values_[slots - 1] = ~std::uint64_t{0};
  slot_of_.resize(slots);
  std::iota(slot_of_.begin(), slot_of_.end(), std::uint32_t{0});
  // The sweep's copy of the program (see BroadcastOp).
  broadcast_ops_.resize(prog_.ops.size());
  for (std::size_t i = 0; i < prog_.ops.size(); ++i) {
    const SimOp& op = prog_.ops[i];
    const std::uint32_t k = op.fanin_count;
    const std::uint32_t* f = prog_.fanins.data() + op.fanin_begin;
    BroadcastOp& w = broadcast_ops_[i];
    w.mask = widen(op.mask, k);
    w.out = op.out;
    for (std::uint32_t j = 0; j < kArity; ++j) {
      w.fanins[j] = j < k ? f[j] : (k != 0 ? f[0] : op.out);
    }
  }
  in_rest_.assign(slots, 0);
  out_slots_ = prog_.outputs;
  latch_in_slots_.clear();
  for (const SimLatch& latch : prog_.latches) {
    latch_in_slots_.push_back(latch.in_slot);
  }
  latch_words_.resize(prog_.latches.size());
  reset();
}

void CompiledSimulator::init_binding(const map::MappedNetlist& mn) {
  using map::MKind;
  const auto const0 = static_cast<std::uint32_t>(prog_.num_slots);
  // TCONs first, in topological order, so a TCON's index is its rank; then
  // the TLUTs the bindable program gave one op over their data inputs.
  std::vector<std::uint32_t> rank_of(mn.num_cells(), kNoOp);
  std::vector<map::CellId> tluts;
  std::size_t num_tcons = 0;
  for (map::CellId id : mn.topo_order()) {
    const map::MCell& cell = mn.cell(id);
    if (cell.kind == MKind::kTcon) {
      rank_of[id] = static_cast<std::uint32_t>(num_tcons++);
      bound_.push_back(BoundCell{id});
    } else if (cell.kind == MKind::kTlut &&
               cell.data_inputs.size() <= kArity) {
      tluts.push_back(id);
    }
  }
  for (map::CellId id : tluts) {
    bound_.push_back(BoundCell{id, prog_.op_of_node[id]});
  }
  std::vector<std::vector<std::uint32_t>> readers_of_param(mn.num_cells());
  for (std::size_t b = 0; b < bound_.size(); ++b) {
    BoundCell& c = bound_[b];
    const map::MCell& cell = mn.cell(c.cell);
    c.num_data = static_cast<std::uint32_t>(cell.data_inputs.size());
    c.params_begin = static_cast<std::uint32_t>(bound_params_.size());
    c.num_params = static_cast<std::uint32_t>(cell.param_inputs.size());
    for (map::CellId p : cell.param_inputs) {
      bound_params_.push_back(p);
      readers_of_param[p].push_back(static_cast<std::uint32_t>(b));
    }
    if (c.op != kNoOp) {
      c.table = static_cast<std::uint32_t>(tlut_words_.size());
      tlut_words_.insert(tlut_words_.end(), cell.function.words().begin(),
                         cell.function.words().end());
      continue;
    }
    c.table = static_cast<std::uint32_t>(tcon_sources_.size());
    for (std::uint64_t a = 0; a < (std::uint64_t{1} << c.num_params); ++a) {
      const int source =
          map::tcon_source(cell.function, static_cast<int>(c.num_data), a);
      FPGADBG_REQUIRE(source != map::kTconNotWire,
                      "cell " + cell.name +
                          " is marked TCON but is not a wire under parameters");
      tcon_sources_.push_back(
          source >= 0 ? cell.data_inputs[static_cast<std::size_t>(source)]
                      : const0 + (source == map::kTconConst1 ? 1 : 0));
    }
  }
  for (const auto& row : readers_of_param) cells_of_param_.add_row(row);

  // The TCONs each TCON feeds, and the sites that name each TCON.
  std::vector<std::vector<std::uint32_t>> readers(num_tcons);
  std::vector<std::vector<std::uint32_t>> sites(num_tcons);
  for (std::size_t t = 0; t < num_tcons; ++t) {
    for (map::CellId in : mn.cell(bound_[t].cell).data_inputs) {
      if (rank_of[in] != kNoOp) {
        readers[rank_of[in]].push_back(static_cast<std::uint32_t>(t));
      }
    }
  }
  auto note_site = [&](std::uint32_t slot, std::size_t s) {
    if (slot < rank_of.size() && rank_of[slot] != kNoOp) {
      sites[rank_of[slot]].push_back(static_cast<std::uint32_t>(s));
    }
  };
  for (std::size_t i = 0; i < broadcast_ops_.size(); ++i) {
    for (std::uint32_t j = 0; j < kArity; ++j) {
      note_site(broadcast_ops_[i].fanins[j], i * kArity + j);
    }
  }
  std::size_t s = broadcast_ops_.size() * kArity;
  for (std::uint32_t out : out_slots_) note_site(out, s++);
  for (std::uint32_t in : latch_in_slots_) note_site(in, s++);
  for (const auto& row : readers) tcon_readers_.add_row(row);
  for (const auto& row : sites) tcon_sites_.add_row(row);

  // Bind everything once.  A TCON still reads its own (never written)
  // slot, so each resolves to a different one.
  dirty_.assign((bound_.size() + 63) / 64, ~std::uint64_t{0});
  if (bound_.size() % 64 != 0) {
    dirty_.back() = (std::uint64_t{1} << (bound_.size() % 64)) - 1;
  }
  rebind_dirty();
}

std::uint32_t& CompiledSimulator::site(std::uint32_t s) {
  const std::size_t op_sites = broadcast_ops_.size() * kArity;
  if (s < op_sites) return broadcast_ops_[s / kArity].fanins[s % kArity];
  s -= static_cast<std::uint32_t>(op_sites);
  if (s < out_slots_.size()) return out_slots_[s];
  return latch_in_slots_[s - out_slots_.size()];
}

void CompiledSimulator::bind() {
  if (pending_cells_ == 0) return;
  telemetry::TraceScope span("sim.bind", "sim");
  const Stopwatch timer;
  rebind_dirty();
  static telemetry::Counter& cells =
      telemetry::metrics().counter("sim.bind.cells");
  static telemetry::Histogram& seconds =
      telemetry::metrics().histogram("sim.bind_seconds");
  cells.add(pending_cells_);
  pending_cells_ = 0;
  seconds.observe(timer.elapsed_seconds());
}

void CompiledSimulator::rebind_dirty() {
  // Ascending index order re-binds every TCON before the TCONs it feeds
  // (they rank higher), so a chain re-resolves front to back in one pass;
  // a TCON whose resolved source moved marks its TCON readers on the way.
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    while (dirty_[w] != 0) {
      const auto b = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(dirty_[w])));
      dirty_[w] &= dirty_[w] - 1;
      const BoundCell& c = bound_[b];
      std::uint32_t a = 0;
      for (std::uint32_t k = 0; k < c.num_params; ++k) {
        a |= static_cast<std::uint32_t>(
                 values_[bound_params_[c.params_begin + k]] & 1)
             << k;
      }
      if (c.op != kNoOp) {
        // Parameters are the top variables: assignment a's residual is
        // bits [a * 2^nd, (a + 1) * 2^nd) of the table.
        const std::size_t begin = std::size_t{a} << c.num_data;
        const std::uint64_t mask = widen(
            tlut_words_[c.table + begin / 64] >> (begin % 64), c.num_data);
        cone_stale_ |= broadcast_ops_[c.op].mask != mask;
        broadcast_ops_[c.op].mask = mask;
        continue;
      }
      const std::uint32_t slot = slot_of_[tcon_sources_[c.table + a]];
      if (slot == slot_of_[c.cell]) continue;
      cone_stale_ = true;
      slot_of_[c.cell] = slot;
      for (const std::uint32_t* s = tcon_sites_.row_begin(b);
           s != tcon_sites_.row_end(b); ++s) {
        site(*s) = slot;
      }
      for (const std::uint32_t* r = tcon_readers_.row_begin(b);
           r != tcon_readers_.row_end(b); ++r) {
        dirty_[*r / 64] |= std::uint64_t{1} << (*r % 64);
      }
    }
  }
}

void CompiledSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = broadcast(prog_.latches[i].init != 0);
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  values_current_ = false;
}

bool CompiledSimulator::set_source(std::uint32_t slot, bool value) {
  // No branch on whether the value changed: under random stimulus it would
  // be a coin flip per input.
  const std::uint64_t word = broadcast(value);
  const bool changed = values_[slot] != word;
  values_[slot] = word;
  values_current_ = values_current_ & !changed;
  return changed;
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
  if (!set_source(id, value) || bound_.empty()) return;
  // Mark the cells that read it; bind() re-binds them.
  for (const std::uint32_t* b = cells_of_param_.row_begin(id);
       b != cells_of_param_.row_end(id); ++b) {
    std::uint64_t& word = dirty_[*b / 64];
    const std::uint64_t bit = std::uint64_t{1} << (*b % 64);
    pending_cells_ += (word & bit) == 0 ? 1 : 0;
    word |= bit;
  }
}

void CompiledSimulator::set_params(const std::vector<bool>& values) {
  FPGADBG_REQUIRE(values.size() == prog_.params.size(),
                  "set_params size mismatch");
  for (std::size_t i = 0; i < values.size(); ++i) {
    set_param(prog_.params[i], values[i]);
  }
}

void CompiledSimulator::set_watched(std::vector<std::uint32_t> ids) {
  for (std::uint32_t id : ids) {
    FPGADBG_REQUIRE(id < prog_.num_design_nodes,
                    "watched node is not in the design");
  }
  watched_ = std::move(ids);
  cone_stale_ = true;
}

void CompiledSimulator::split_program() {
  // The cone: walking the ops backwards, an op is in it when a watched
  // node, a latch D-pin or an op already in it reads the op's output.  No
  // op reads the output of one after it, so once the walk is done,
  // needed[op.out] says whether op is in the cone.
  std::vector<std::uint8_t> needed(values_.size(), watched_.empty() ? 1 : 0);
  for (std::uint32_t id : watched_) needed[slot_of_[id]] = 1;
  for (std::uint32_t slot : latch_in_slots_) needed[slot] = 1;
  for (auto op = broadcast_ops_.rbegin(); op != broadcast_ops_.rend(); ++op) {
    if (needed[op->out] == 0) continue;
    for (std::uint32_t f : op->fanins) needed[f] = 1;
  }
  cone_ops_.clear();
  rest_ops_.clear();
  saved_slots_.clear();
  std::vector<std::uint8_t> saved(values_.size(), 0);
  for (const BroadcastOp& op : broadcast_ops_) {
    in_rest_[op.out] = needed[op.out] == 0 ? 1 : 0;
    if (needed[op.out] != 0) {
      cone_ops_.push_back(op);
      continue;
    }
    rest_ops_.push_back(op);
    for (std::uint32_t f : op.fanins) {
      if (saved[f] == 0 && is_source(prog_, f)) {
        saved[f] = 1;
        saved_slots_.push_back(f);
      }
    }
  }
  saved_words_.resize(saved_slots_.size());
  cone_stale_ = false;
}

void CompiledSimulator::sweep(const std::vector<BroadcastOp>& ops,
                              std::uint64_t* vals) {
  // Every slot is a broadcast word, so an op's result is one mask bit,
  // indexed by lane 0 of its fanins.  The ops are sorted by level, so one
  // pass in program order sees every fanin settled.  With every op widened
  // to six fanins, no branch depends on the op.  A switch on the arity made
  // the sweep's speed hinge on how much of the program's arity sequence the
  // branch predictor held, and it swung by up to 1.3 times from one run to
  // the next.
  for (const BroadcastOp& op : ops) {
    const std::uint32_t* f = op.fanins;
    const std::uint64_t idx =
        (vals[f[0]] & 1) | (vals[f[1]] & 1) << 1 | (vals[f[2]] & 1) << 2 |
        (vals[f[3]] & 1) << 3 | (vals[f[4]] & 1) << 4 | (vals[f[5]] & 1) << 5;
    vals[op.out] = broadcast((op.mask >> idx) & 1);
  }
}

void CompiledSimulator::eval() {
  bind();
  telemetry::TraceScope span("sim.eval", "sim");
  if (cone_stale_) split_program();
  static telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  static telemetry::Counter& swept =
      telemetry::metrics().counter("sim.sweep.ops");
  evals.add(1);
  swept.add(cone_ops_.size());
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    values_[prog_.latches[i].out_slot] = latch_words_[i];
  }
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    saved_words_[i] = values_[saved_slots_[i]];
  }
  sweep(cone_ops_, values_.data());
  rest_current_ = rest_ops_.empty();
  values_current_ = true;
}

void CompiledSimulator::sweep_rest() const {
  // Inputs, latch outputs and parameters may have moved since eval(); the
  // rest reads them as eval() did.  Everything else it reads is a constant
  // or an op's output: the cone's, which only eval() writes, or its own,
  // written earlier in this pass.
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    std::swap(values_[saved_slots_[i]], saved_words_[i]);
  }
  sweep(rest_ops_, values_.data());
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    std::swap(values_[saved_slots_[i]], saved_words_[i]);
  }
  rest_current_ = true;
  static telemetry::Counter& deferred =
      telemetry::metrics().counter("sim.sweep.deferred_ops");
  deferred.add(rest_ops_.size());
}

void CompiledSimulator::step() {
  if (!values_current_) eval();
  for (std::size_t i = 0; i < latch_in_slots_.size(); ++i) {
    latch_words_[i] = values_[latch_in_slots_[i]];
  }
  ++cycle_;
  values_current_ = false;
}

bool CompiledSimulator::output(std::size_t index) const {
  FPGADBG_REQUIRE(index < out_slots_.size(), "output index out of range");
  return read(out_slots_[index]);
}

std::vector<bool> CompiledSimulator::output_values() const {
  std::vector<bool> out;
  out.reserve(out_slots_.size());
  for (std::uint32_t slot : out_slots_) out.push_back(read(slot));
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
