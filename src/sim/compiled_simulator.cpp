#include "sim/compiled_simulator.h"

#include <algorithm>
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

/// The bits of a k-input table.
std::uint64_t table_mask(std::uint32_t k) {
  return k < kArity ? (std::uint64_t{1} << (1u << k)) - 1 : ~std::uint64_t{0};
}

/// Sweeps `n` ops of arity K: per op, its output slot, then its K fanins.
template <std::uint32_t K>
void sweep_run(const std::uint64_t* masks, const std::uint32_t* slots,
               std::uint32_t n, std::uint32_t* vals) {
  for (std::uint32_t i = 0; i < n; ++i, slots += K + 1) {
    std::uint32_t index = 0;
    for (std::uint32_t j = 0; j < K; ++j) index |= vals[slots[1 + j]] << j;
    vals[slots[0]] = static_cast<std::uint32_t>(masks[i] >> index) & 1;
  }
}

}  // namespace

void CompiledSimulator::Rows::add_row(const std::vector<std::uint32_t>& row) {
  items.insert(items.end(), row.begin(), row.end());
  begin.push_back(static_cast<std::uint32_t>(items.size()));
}

void CompiledSimulator::Sweep::clear() {
  runs.clear();
  masks.clear();
  slots.clear();
}

void CompiledSimulator::Sweep::add(const Op& op) {
  if (runs.empty() || runs.back().arity != op.arity) {
    runs.push_back(Run{op.arity, 0});
  }
  ++runs.back().ops;
  masks.push_back(op.mask);
  slots.push_back(op.out);
  slots.insert(slots.end(), op.fanins, op.fanins + op.arity);
}

CompiledSimulator::CompiledSimulator(const netlist::Netlist& nl)
    : prog_(lower_program(nl)) {
  init();
  cut_static();
}

CompiledSimulator::CompiledSimulator(const map::MappedNetlist& mn)
    : prog_(lower_bindable_program(mn)) {
  init();
  init_binding(mn);
  cut_static();
  rebind_dirty();
}

void CompiledSimulator::init() {
  // Two slots past the program's hold the constants a TCON can select.
  const std::size_t slots = prog_.num_slots + 2;
  values_.assign(slots, 0);
  values_[slots - 1] = 1;
  slot_of_.resize(slots);
  std::iota(slot_of_.begin(), slot_of_.end(), std::uint32_t{0});
  // The master program in sweep order: level by level, and within a level
  // by arity, ascending on even levels and descending on odd ones, so that
  // a level's last run and the next level's first often share an arity
  // and merge into one run.  Ops of one level read none of each other.
  ops_.clear();
  ops_.reserve(prog_.ops.size());
  for (std::size_t l = 0; l < prog_.num_levels(); ++l) {
    for (std::uint32_t k = 0; k <= kArity; ++k) {
      const std::uint32_t arity = l % 2 == 0 ? k : kArity - k;
      for (std::uint32_t i = prog_.level_begin[l];
           i < prog_.level_begin[l + 1]; ++i) {
        const SimOp& op = prog_.ops[i];
        if (op.fanin_count != arity) continue;
        Op& m = ops_.emplace_back();
        m.mask = op.mask;
        m.out = op.out;
        m.arity = arity;
        std::copy_n(prog_.fanins.data() + op.fanin_begin, arity, m.fanins);
      }
    }
  }
  op_of_slot_.assign(slots, kNoOp);
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    op_of_slot_[ops_[i].out] = static_cast<std::uint32_t>(i);
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
    const std::uint32_t op = op_of_slot_[id];
    BoundCell c{id, op};
    c.mask = ops_[op].mask;
    bound_.push_back(c);
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

  // The TCONs each TCON feeds, and the op fanins and pins that name each.
  std::vector<std::vector<std::uint32_t>> readers(num_tcons);
  std::vector<std::vector<std::uint32_t>> fanins(num_tcons);
  std::vector<std::vector<std::uint32_t>> pins(num_tcons);
  for (std::size_t t = 0; t < num_tcons; ++t) {
    for (map::CellId in : mn.cell(bound_[t].cell).data_inputs) {
      if (rank_of[in] != kNoOp) {
        readers[rank_of[in]].push_back(static_cast<std::uint32_t>(t));
      }
    }
  }
  auto tcon_of = [&](std::uint32_t slot) {
    return slot < rank_of.size() ? rank_of[slot] : kNoOp;
  };
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (std::uint32_t j = 0; j < ops_[i].arity; ++j) {
      if (const std::uint32_t t = tcon_of(ops_[i].fanins[j]); t != kNoOp) {
        fanins[t].push_back(static_cast<std::uint32_t>(i * kArity + j));
      }
    }
  }
  std::uint32_t p = 0;
  for (std::uint32_t out : out_slots_) {
    if (const std::uint32_t t = tcon_of(out); t != kNoOp) pins[t].push_back(p);
    ++p;
  }
  for (std::uint32_t in : latch_in_slots_) {
    if (const std::uint32_t t = tcon_of(in); t != kNoOp) pins[t].push_back(p);
    ++p;
  }
  for (const auto& row : readers) tcon_readers_.add_row(row);
  for (const auto& row : fanins) tcon_fanins_.add_row(row);
  for (const auto& row : pins) tcon_pins_.add_row(row);

  // Everything is to be bound once.  A TCON still reads its own (never
  // written) slot, so each resolves to a different one and moves.
  dirty_.assign((bound_.size() + 63) / 64, ~std::uint64_t{0});
  if (bound_.size() % 64 != 0) {
    dirty_.back() = (std::uint64_t{1} << (bound_.size() % 64)) - 1;
  }
  moved_.assign(dirty_.size(), 0);
}

void CompiledSimulator::cut_static() {
  // The ops a binding can reach: TLUT ops, and every op with a TCON or such
  // an op among its fanins.  In sweep order an op's fanins come first.
  std::vector<std::uint8_t> tcon(values_.size(), 0);
  std::vector<std::uint8_t> bindable(ops_.size(), 0);
  for (const BoundCell& c : bound_) {
    if (c.op == kNoOp) {
      tcon[c.cell] = 1;
    } else {
      bindable[c.op] = 1;
    }
  }
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    for (std::uint32_t j = 0; j < ops_[i].arity; ++j) {
      const std::uint32_t f = ops_[i].fanins[j];
      const std::uint32_t o = op_of_slot_[f];
      bindable[i] |= tcon[f] | (o != kNoOp ? bindable[o] : 0);
    }
  }
  // The static cone: walk back from every latch D-pin through the ops no
  // binding reaches.  The walk stops at a D-pin that names a TCON and at
  // an op a binding reaches; the dynamic walk starts there.
  std::vector<std::uint8_t> in_static(ops_.size(), 0);
  std::vector<std::uint8_t> stopped(values_.size(), 0);
  std::vector<std::uint32_t> stack;
  auto enter = [&](std::uint32_t slot) {
    const std::uint32_t o = op_of_slot_[slot];
    if (o == kNoOp || in_static[o] != 0 || stopped[slot] != 0) return;
    if (bindable[o] != 0) {
      stopped[slot] = 1;
      frontier_slots_.push_back(slot);
      return;
    }
    in_static[o] = 1;
    stack.push_back(o);
  };
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    const std::uint32_t d = prog_.latches[i].in_slot;
    if (tcon[d] != 0) {
      tcon_latches_.push_back(static_cast<std::uint32_t>(i));
      continue;
    }
    enter(d);
    while (!stack.empty()) {
      const Op& op = ops_[stack.back()];
      stack.pop_back();
      for (std::uint32_t j = 0; j < op.arity; ++j) enter(op.fanins[j]);
    }
  }
  // The sources the rest may read under any binding: those a non-static op
  // names, and those any TCON can select.
  std::vector<std::uint8_t> saved(values_.size(), 0);
  auto save = [&](std::uint32_t slot) {
    if (saved[slot] == 0 && is_source(prog_, slot)) {
      saved[slot] = 1;
      saved_slots_.push_back(slot);
    }
  };
  for (std::size_t i = 0; i < ops_.size(); ++i) {
    if (in_static[i] != 0) {
      static_.add(ops_[i]);
      continue;
    }
    in_rest_[ops_[i].out] = 1;
    for (std::uint32_t j = 0; j < ops_[i].arity; ++j) save(ops_[i].fanins[j]);
  }
  for (std::uint32_t slot : tcon_sources_) save(slot);
  saved_words_.resize(saved_slots_.size());
  static telemetry::Counter& cut =
      telemetry::metrics().counter("sim.cone.static_ops");
  cut.add(static_.size());
}

std::uint32_t& CompiledSimulator::pin(std::uint32_t p) {
  if (p < out_slots_.size()) return out_slots_[p];
  return latch_in_slots_[p - out_slots_.size()];
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
  // A cell that moved is marked in moved_ for the master program, which
  // takes it at the next eval().
  for (std::size_t w = 0; w < dirty_.size(); ++w) {
    while (dirty_[w] != 0) {
      const auto b = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(dirty_[w])));
      dirty_[w] &= dirty_[w] - 1;
      BoundCell& c = bound_[b];
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
        const std::uint64_t mask =
            (tlut_words_[c.table + begin / 64] >> (begin % 64)) &
            table_mask(c.num_data);
        if (mask == c.mask) continue;
        c.mask = mask;
      } else {
        const std::uint32_t slot = slot_of_[tcon_sources_[c.table + a]];
        if (slot == slot_of_[c.cell]) continue;
        slot_of_[c.cell] = slot;
        for (const std::uint32_t* p = tcon_pins_.row_begin(b);
             p != tcon_pins_.row_end(b); ++p) {
          pin(*p) = slot;
        }
        for (const std::uint32_t* r = tcon_readers_.row_begin(b);
             r != tcon_readers_.row_end(b); ++r) {
          dirty_[*r / 64] |= std::uint64_t{1} << (*r % 64);
        }
      }
      moved_[w] |= std::uint64_t{1} << (b % 64);
      cone_stale_ = true;
    }
  }
}

void CompiledSimulator::apply_moves() {
  for (std::size_t w = 0; w < moved_.size(); ++w) {
    while (moved_[w] != 0) {
      const auto b = static_cast<std::uint32_t>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(moved_[w])));
      moved_[w] &= moved_[w] - 1;
      const BoundCell& c = bound_[b];
      if (c.op != kNoOp) {
        ops_[c.op].mask = c.mask;
        continue;
      }
      const std::uint32_t slot = slot_of_[c.cell];
      for (const std::uint32_t* s = tcon_fanins_.row_begin(b);
           s != tcon_fanins_.row_end(b); ++s) {
        ops_[*s / kArity].fanins[*s % kArity] = slot;
      }
    }
  }
}

void CompiledSimulator::cut_dynamic() {
  apply_moves();
  // in_rest_ doubles as the walk's mark: an op is still to enter while the
  // rest holds its output.  Sources, constants and static ops never are.
  for (std::uint32_t op : dynamic_ops_) in_rest_[ops_[op].out] = 1;
  dynamic_ops_.clear();
  auto enter = [&](std::uint32_t slot) {
    if (in_rest_[slot] == 0) return;
    in_rest_[slot] = 0;
    dynamic_ops_.push_back(op_of_slot_[slot]);
  };
  if (watched_.empty()) {
    for (const Op& op : ops_) enter(op.out);
  } else {
    for (std::uint32_t id : watched_) enter(slot_of_[id]);
    for (std::uint32_t latch : tcon_latches_) enter(latch_in_slots_[latch]);
    for (std::uint32_t slot : frontier_slots_) enter(slot);
    for (std::size_t i = 0; i < dynamic_ops_.size(); ++i) {
      const Op& op = ops_[dynamic_ops_[i]];
      for (std::uint32_t j = 0; j < op.arity; ++j) enter(op.fanins[j]);
    }
    std::sort(dynamic_ops_.begin(), dynamic_ops_.end());
  }
  dynamic_.clear();
  for (std::uint32_t op : dynamic_ops_) dynamic_.add(ops_[op]);
  rest_cut_ = false;
  cone_stale_ = false;
  static telemetry::Counter& walks =
      telemetry::metrics().counter("sim.cone.rewalks");
  static telemetry::Counter& walked =
      telemetry::metrics().counter("sim.cone.rewalked_ops");
  walks.add(1);
  walked.add(dynamic_ops_.size());
}

void CompiledSimulator::reset() {
  cycle_ = 0;
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    latch_words_[i] = broadcast(prog_.latches[i].init != 0);
    values_[prog_.latches[i].out_slot] = prog_.latches[i].init != 0 ? 1 : 0;
  }
  values_current_ = false;
}

bool CompiledSimulator::set_source(std::uint32_t slot, bool value) {
  // No branch on whether the value changed: under random stimulus it would
  // be a coin flip per input.
  const std::uint32_t bit = value ? 1 : 0;
  const bool changed = values_[slot] != bit;
  values_[slot] = bit;
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

void CompiledSimulator::sweep(const Sweep& ops, std::uint32_t* vals) {
  // An op's result is the bit of its mask that its fanins' values index.
  // The ops are in level order, so one pass sees every fanin settled.  The
  // switch on the arity is taken once per run, not per op: a branch per op
  // made the sweep's speed hinge on how much of the program's arity
  // sequence the branch predictor held.
  const std::uint64_t* masks = ops.masks.data();
  const std::uint32_t* slots = ops.slots.data();
  for (const Sweep::Run& run : ops.runs) {
    switch (run.arity) {
      case 0: sweep_run<0>(masks, slots, run.ops, vals); break;
      case 1: sweep_run<1>(masks, slots, run.ops, vals); break;
      case 2: sweep_run<2>(masks, slots, run.ops, vals); break;
      case 3: sweep_run<3>(masks, slots, run.ops, vals); break;
      case 4: sweep_run<4>(masks, slots, run.ops, vals); break;
      case 5: sweep_run<5>(masks, slots, run.ops, vals); break;
      default: sweep_run<6>(masks, slots, run.ops, vals); break;
    }
    masks += run.ops;
    slots += std::size_t{run.ops} * (run.arity + 1);
  }
}

void CompiledSimulator::eval() {
  bind();
  telemetry::TraceScope span("sim.eval", "sim");
  if (cone_stale_) cut_dynamic();
  static telemetry::Counter& evals = telemetry::metrics().counter("sim.evals");
  static telemetry::Counter& swept =
      telemetry::metrics().counter("sim.sweep.ops");
  const std::size_t cone = static_.size() + dynamic_.size();
  evals.add(1);
  swept.add(cone);
  for (std::size_t i = 0; i < prog_.latches.size(); ++i) {
    values_[prog_.latches[i].out_slot] =
        static_cast<std::uint32_t>(latch_words_[i] & 1);
  }
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    saved_words_[i] = values_[saved_slots_[i]];
  }
  // No static op reads a dynamic one.
  sweep(static_, values_.data());
  sweep(dynamic_, values_.data());
  rest_current_ = cone == ops_.size();
  values_current_ = true;
}

void CompiledSimulator::sweep_rest() const {
  // The master program still holds the binding of the last eval(), and
  // in_rest_ that eval()'s cone.
  if (!rest_cut_) {
    rest_.clear();
    for (const Op& op : ops_) {
      if (in_rest_[op.out] != 0) rest_.add(op);
    }
    rest_cut_ = true;
  }
  // Inputs, latch outputs and parameters may have moved since eval(); the
  // rest reads them as eval() did.  Everything else it reads is a constant
  // or an op's output: the cone's, which only eval() writes, or its own,
  // written earlier in this pass.
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    std::swap(values_[saved_slots_[i]], saved_words_[i]);
  }
  sweep(rest_, values_.data());
  for (std::size_t i = 0; i < saved_slots_.size(); ++i) {
    std::swap(values_[saved_slots_[i]], saved_words_[i]);
  }
  rest_current_ = true;
  static telemetry::Counter& deferred =
      telemetry::metrics().counter("sim.sweep.deferred_ops");
  deferred.add(rest_.size());
}

void CompiledSimulator::step() {
  if (!values_current_) eval();
  for (std::size_t i = 0; i < latch_in_slots_.size(); ++i) {
    latch_words_[i] = broadcast(values_[latch_in_slots_[i]] != 0);
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
    values_[prog_.latches[i].out_slot] =
        static_cast<std::uint32_t>(latch_words_[i] & 1);
  }
  values_current_ = false;
}

}  // namespace fpgadbg::sim
