#include "bitstream/pconf.h"

#include <algorithm>
#include <bit>
#include <map>

#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::bitstream {

namespace {

/// One batched registry update per SCG invocation (the per-bit loops stay
/// free of atomics).  `runs` is the calling path's own counter.
void record_scg(telemetry::Counter& runs, std::size_t bits_evaluated,
                std::size_t bdd_nodes_visited, double eval_seconds) {
  static telemetry::Counter& bits =
      telemetry::metrics().counter("scg.bits_reevaluated");
  static telemetry::Counter& nodes =
      telemetry::metrics().counter("scg.bdd_nodes_visited");
  static telemetry::Histogram& seconds =
      telemetry::metrics().histogram("scg.eval_seconds");
  runs.add(1);
  bits.add(bits_evaluated);
  nodes.add(bdd_nodes_visited);
  seconds.observe(eval_seconds);
}

}  // namespace

PConf::PConf(std::size_t total_bits, std::vector<std::string> param_names)
    : constant_(total_bits),
      param_names_(std::move(param_names)),
      bdd_(static_cast<int>(param_names_.size())) {
  for (std::size_t i = 0; i < param_names_.size(); ++i) {
    const auto [it, inserted] =
        param_index_.emplace(param_names_[i], static_cast<int>(i));
    FPGADBG_REQUIRE(inserted, "duplicate parameter name: " + param_names_[i]);
  }
}

int PConf::param_index(const std::string& name) const {
  const auto it = param_index_.find(name);
  FPGADBG_REQUIRE(it != param_index_.end(), "unknown parameter: " + name);
  return it->second;
}

void PConf::sync_functions() const {
  if (!map_dirty_) return;
  fn_bits_.clear();
  fn_refs_.clear();
  fn_bits_.reserve(build_map_.size());
  fn_refs_.reserve(build_map_.size());
  std::vector<std::size_t> bits;
  bits.reserve(build_map_.size());
  for (const auto& [bit, f] : build_map_) bits.push_back(bit);
  std::sort(bits.begin(), bits.end());
  for (std::size_t bit : bits) {
    fn_bits_.push_back(bit);
    fn_refs_.push_back(build_map_.at(bit));
  }
  build_map_.clear();
  map_dirty_ = false;
}

void PConf::thaw_functions() {
  index_.reset();
  if (map_dirty_) return;
  build_map_.clear();
  build_map_.reserve(fn_bits_.size());
  for (std::size_t i = 0; i < fn_bits_.size(); ++i) {
    build_map_.emplace(static_cast<std::size_t>(fn_bits_[i]), fn_refs_[i]);
  }
  fn_bits_.clear();
  fn_refs_.clear();
  map_dirty_ = true;
}

FunctionView PConf::functions() const {
  sync_functions();
  return FunctionView{fn_bits_.data(), fn_refs_.data(), fn_bits_.size()};
}

bool PConf::is_parameterized(std::size_t bit) const {
  if (map_dirty_) return build_map_.contains(bit);
  const FunctionView view = functions();
  const std::uint64_t* end = view.bits + view.count;
  const std::uint64_t* it = std::lower_bound(view.bits, end, bit);
  return it != end && *it == bit;
}

support::Status PConf::load_functions(std::vector<std::uint64_t> bits,
                                      std::vector<std::uint32_t> refs) {
  using support::Status;
  if (bits.size() != refs.size()) {
    return Status::corrupt_artifact(
        "PConf function table: bit/ref count mismatch");
  }
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] >= total_bits()) {
      return Status::corrupt_artifact(
          "PConf function table: bit address out of range");
    }
    if (i > 0 && bits[i] <= bits[i - 1]) {
      return Status::corrupt_artifact(
          "PConf function table: bit addresses not strictly ascending");
    }
    // Constant functions are folded into the constant plane at build time,
    // so every stored ref must name a decision node.
    if (refs[i] < 2 || refs[i] >= bdd_.size()) {
      return Status::corrupt_artifact(
          "PConf function table: BDD ref out of range");
    }
  }
  build_map_.clear();
  map_dirty_ = false;
  fn_bits_ = std::move(bits);
  fn_refs_ = std::move(refs);
  index_.reset();
  return Status();
}

void PConf::set_constant(std::size_t bit, bool value) {
  FPGADBG_REQUIRE(bit < total_bits(), "bit address out of range");
  FPGADBG_REQUIRE(!is_parameterized(bit), "bit is already parameterized");
  constant_.set(bit, value);
}

void PConf::set_function(std::size_t bit, logic::BddRef f) {
  FPGADBG_REQUIRE(bit < total_bits(), "bit address out of range");
  if (bdd_.is_const(f)) {
    constant_.set(bit, bdd_.const_value(f));
    if (is_parameterized(bit)) {
      thaw_functions();
      build_map_.erase(bit);
    }
    return;
  }
  thaw_functions();
  build_map_[bit] = f;
}

std::vector<std::size_t> PConf::parameterized_frames() const {
  std::vector<bool> touched(constant_.num_frames(), false);
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    touched[view.bits[i] / arch::FrameGeometry::kFrameBits] = true;
  }
  std::vector<std::size_t> frames;
  for (std::size_t i = 0; i < touched.size(); ++i) {
    if (touched[i]) frames.push_back(i);
  }
  return frames;
}

BitVec PConf::values_from(
    const std::unordered_map<std::string, bool>& assignment) const {
  BitVec values(param_names_.size());
  for (const auto& [name, value] : assignment) {
    const auto it = param_index_.find(name);
    FPGADBG_REQUIRE(it != param_index_.end(), "unknown parameter: " + name);
    values.set(static_cast<std::size_t>(it->second), value);
  }
  return values;
}

PConf::Specialization PConf::specialize(const BitVec& values) const {
  FPGADBG_REQUIRE(values.size() == num_params(),
                  "parameter vector has the wrong size");
  telemetry::TraceScope span("scg.specialize_full", "scg");
  Specialization result;
  Stopwatch timer;
  result.memory = constant_;
  std::size_t visited = 0;
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    result.memory.set(view.bits[i], bdd_.evaluate(view.refs[i], values, &visited));
    ++result.bits_evaluated;
  }
  result.eval_seconds = timer.elapsed_seconds();
  static telemetry::Counter& runs =
      telemetry::metrics().counter("scg.full_specializations");
  record_scg(runs, result.bits_evaluated, visited, result.eval_seconds);
  return result;
}

PConf::Specialization PConf::specialize(
    const std::unordered_map<std::string, bool>& assignment) const {
  return specialize(values_from(assignment));
}

const PConf::IncrementalIndex& PConf::incremental_index() const {
  if (index_) return *index_;
  const FunctionView view = functions();
  const logic::BddManager::Node* arena = bdd_.arena().data();
  FPGADBG_REQUIRE(total_bits() <= 0xffffffffu,
                  "configuration too large for the incremental SCG");
  // Build-time only: per group, the table positions of its functions and
  // the arena nodes they reach.
  struct GroupBuild {
    std::vector<std::uint32_t> fns;
    std::vector<std::uint32_t> nodes;
  };
  std::vector<GroupBuild> builds;
  // One DFS per distinct root collects the nodes it reaches and its
  // support; functions that share a root share its group.  Stamps (table
  // position + 1, group + 1) stand in for per-walk sets.
  constexpr std::uint32_t kNoGroup = 0xffffffffu;
  std::vector<std::uint32_t> group_of_root(bdd_.size(), kNoGroup);
  std::vector<std::uint32_t> walk_stamp(bdd_.size(), 0);
  std::vector<std::uint32_t> group_stamp(bdd_.size(), 0);
  std::vector<std::uint32_t> var_stamp(param_names_.size(), 0);
  std::map<std::vector<std::uint32_t>, std::uint32_t> group_of_support;
  std::vector<std::uint32_t> stack, reached, support;
  for (std::size_t i = 0; i < view.count; ++i) {
    const logic::BddRef root = view.refs[i];
    if (group_of_root[root] == kNoGroup) {
      const std::uint32_t stamp = static_cast<std::uint32_t>(i + 1);
      reached.clear();
      support.clear();
      stack.assign(1, root);
      while (!stack.empty()) {
        const logic::BddRef r = stack.back();
        stack.pop_back();
        if (bdd_.is_const(r) || walk_stamp[r] == stamp) continue;
        walk_stamp[r] = stamp;
        reached.push_back(r);
        const logic::BddManager::Node& n = arena[r];
        FPGADBG_REQUIRE(n.var < param_names_.size(),
                        "PConf function reads a variable that is no parameter");
        if (var_stamp[n.var] != stamp) {
          var_stamp[n.var] = stamp;
          support.push_back(n.var);
        }
        stack.push_back(n.low);
        stack.push_back(n.high);
      }
      std::sort(support.begin(), support.end());
      const auto [it, inserted] = group_of_support.try_emplace(
          support, static_cast<std::uint32_t>(builds.size()));
      if (inserted) builds.emplace_back();
      const std::uint32_t g = it->second;
      group_of_root[root] = g;
      for (const std::uint32_t r : reached) {
        // Roots of different groups interleave in the table, so a node
        // shared between groups can still be appended twice; deduped below.
        if (group_stamp[r] == g + 1) continue;
        group_stamp[r] = g + 1;
        builds[g].nodes.push_back(r);
      }
    }
    builds[group_of_root[root]].fns.push_back(static_cast<std::uint32_t>(i));
  }

  IncrementalIndex index;
  index.groups.resize(builds.size());
  // Arena id -> id within the group being lowered.  A group's node list is
  // closed under children, so every child read below was set for the same
  // group.
  std::vector<std::uint32_t> local(bdd_.size(), 0);
  local[1] = 1;
  for (std::size_t g = 0; g < builds.size(); ++g) {
    GroupBuild& build = builds[g];
    // Ascending node ids are a topological order: the arena keeps children
    // before parents (make_node appends; load_arena checks it).
    std::sort(build.nodes.begin(), build.nodes.end());
    build.nodes.erase(std::unique(build.nodes.begin(), build.nodes.end()),
                      build.nodes.end());
    for (std::size_t k = 0; k < build.nodes.size(); ++k) {
      local[build.nodes[k]] = static_cast<std::uint32_t>(k + 2);
    }
    SupportGroup& group = index.groups[g];
    group.nodes.reserve(build.nodes.size());
    for (const std::uint32_t r : build.nodes) {
      const logic::BddManager::Node& n = arena[r];
      group.nodes.push_back({n.var, local[n.low], local[n.high]});
    }
    group.fns.reserve(build.fns.size());
    for (const std::uint32_t i : build.fns) {
      group.fns.push_back({static_cast<std::uint32_t>(view.bits[i]),
                           local[view.refs[i]]});
    }
    index.max_group_nodes = std::max(index.max_group_nodes, group.nodes.size());
  }
  index.groups_of_param.resize(param_names_.size());
  for (const auto& [vars, g] : group_of_support) {
    for (const std::uint32_t v : vars) index.groups_of_param[v].push_back(g);
  }
  return index_.emplace(std::move(index));
}

PConf::Respecialization PConf::respecialize(ConfigMemory& config,
                                            const BitVec& from,
                                            const BitVec& to) const {
  FPGADBG_REQUIRE(config.total_bits() == total_bits(),
                  "configuration memory has the wrong geometry");
  FPGADBG_REQUIRE(from.size() == num_params() && to.size() == num_params(),
                  "parameter vector has the wrong size");
  telemetry::TraceScope span("scg.specialize_incremental", "scg");
  Respecialization result;
  Stopwatch timer;
  const IncrementalIndex& index = incremental_index();

  // Flag every group that reads a changed parameter, once.
  std::vector<std::uint8_t> flagged(index.groups.size(), 0);
  std::vector<std::uint32_t> dirty;
  for (std::size_t w = 0; w < to.word_count(); ++w) {
    for (std::uint64_t diff = from.word(w) ^ to.word(w); diff != 0;
         diff &= diff - 1) {
      const std::size_t p = w * 64 + static_cast<std::size_t>(
                                         std::countr_zero(diff));
      for (const std::uint32_t g : index.groups_of_param[p]) {
        if (!flagged[g]) {
          flagged[g] = 1;
          dirty.push_back(g);
        }
      }
    }
  }
  std::vector<std::uint8_t> param_value(num_params());
  for (std::size_t p = 0; p < param_value.size(); ++p) {
    param_value[p] = to.get(p);
  }

  BitVec& memory = config.bits();
  // Node values of one group's program, by local id.  The program lists
  // children first, so each read below hits a node this sweep already
  // wrote (or a constant).
  std::vector<std::uint8_t> value(index.max_group_nodes + 2, 0);
  value[1] = 1;
  std::size_t visited = 0;
  for (const std::uint32_t g : dirty) {
    const SupportGroup& group = index.groups[g];
    const logic::BddManager::Node* nodes = group.nodes.data();
    const std::size_t count = group.nodes.size();
    for (std::size_t k = 0; k < count; ++k) {
      const logic::BddManager::Node& n = nodes[k];
      // Branch-free select: a parameter's value is no predictable branch.
      const std::uint32_t high = 0u - param_value[n.var];
      value[k + 2] = value[n.low ^ ((n.low ^ n.high) & high)];
    }
    visited += count;
    for (const GroupFunction& f : group.fns) {
      if (((memory.word(f.bit >> 6) >> (f.bit & 63)) & 1) != value[f.root]) {
        memory.flip(f.bit);
        result.changed_bits.push_back(f.bit);
      }
    }
    result.bits_evaluated += group.fns.size();
  }
  // Groups interleave in the table, so their flipped bits do too.
  std::sort(result.changed_bits.begin(), result.changed_bits.end());
  result.eval_seconds = timer.elapsed_seconds();
  static telemetry::Counter& runs =
      telemetry::metrics().counter("scg.incremental_specializations");
  record_scg(runs, result.bits_evaluated, visited, result.eval_seconds);
  return result;
}

PConf::Specialization PConf::specialize_incremental(
    const Specialization& previous,
    const std::unordered_map<std::string, bool>& previous_assignment,
    const std::unordered_map<std::string, bool>& assignment) const {
  Specialization result;
  result.memory = previous.memory;
  Respecialization delta = respecialize(
      result.memory, values_from(previous_assignment), values_from(assignment));
  result.bits_evaluated = delta.bits_evaluated;
  result.changed_bits = std::move(delta.changed_bits);
  result.eval_seconds = delta.eval_seconds;
  return result;
}

void PConf::drop_unreachable_nodes() {
  sync_functions();
  const std::vector<logic::BddManager::Node>& arena = bdd_.arena();
  std::vector<std::uint8_t> live(arena.size(), 0);
  live[0] = live[1] = 1;
  for (const std::uint32_t root : fn_refs_) live[root] = 1;
  // Parents sit after their children, so one descending pass reaches every
  // node below a live root.
  for (std::size_t r = arena.size(); r-- > 2;) {
    if (live[r]) live[arena[r].low] = live[arena[r].high] = 1;
  }
  std::vector<logic::BddRef> renumbered(arena.size(), 0);
  std::vector<logic::BddManager::Node> kept;
  kept.reserve(static_cast<std::size_t>(
      std::count(live.begin(), live.end(), std::uint8_t{1})));
  for (std::size_t r = 0; r < arena.size(); ++r) {
    if (!live[r]) continue;
    renumbered[r] = static_cast<logic::BddRef>(kept.size());
    logic::BddManager::Node n = arena[r];
    if (r >= 2) n = {n.var, renumbered[n.low], renumbered[n.high]};
    kept.push_back(n);
  }
  for (std::uint32_t& root : fn_refs_) root = renumbered[root];
  const support::Status loaded = bdd_.load_arena(std::move(kept));
  FPGADBG_ASSERT(loaded.ok(), "compacted BDD arena breaks its invariants");
  index_.reset();
}

}  // namespace fpgadbg::bitstream
