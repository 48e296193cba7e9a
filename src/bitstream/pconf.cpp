#include "bitstream/pconf.h"

#include <algorithm>
#include <map>

#include "support/error.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::bitstream {

namespace {

/// One batched registry update per SCG invocation (the per-bit loops stay
/// free of atomics).
void record_scg(const char* path, std::size_t bits_evaluated,
                std::size_t bdd_nodes_visited, double eval_seconds) {
  telemetry::MetricsRegistry& m = telemetry::metrics();
  m.counter(path).add(1);
  m.counter("scg.bits_reevaluated").add(bits_evaluated);
  m.counter("scg.bdd_nodes_visited").add(bdd_nodes_visited);
  m.histogram("scg.eval_seconds").observe(eval_seconds);
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

PConf::Specialization PConf::specialize(
    const std::unordered_map<std::string, bool>& assignment) const {
  telemetry::TraceScope span("scg.specialize_full", "scg");
  Specialization result;
  Stopwatch timer;
  const BitVec values = values_from(assignment);
  result.memory = constant_;
  std::size_t visited = 0;
  const FunctionView view = functions();
  for (std::size_t i = 0; i < view.count; ++i) {
    result.memory.set(view.bits[i], bdd_.evaluate(view.refs[i], values, &visited));
    ++result.bits_evaluated;
  }
  result.eval_seconds = timer.elapsed_seconds();
  record_scg("scg.full_specializations", result.bits_evaluated, visited,
             result.eval_seconds);
  return result;
}

const PConf::IncrementalIndex& PConf::incremental_index() const {
  if (index_) return *index_;
  const FunctionView view = functions();
  const logic::BddManager::Node* arena = bdd_.arena().data();
  IncrementalIndex index;
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
          support, static_cast<std::uint32_t>(index.groups.size()));
      if (inserted) index.groups.emplace_back();
      const std::uint32_t g = it->second;
      group_of_root[root] = g;
      for (const std::uint32_t r : reached) {
        // Roots of different groups interleave in the table, so a node
        // shared between groups can still be appended twice; deduped below.
        if (group_stamp[r] == g + 1) continue;
        group_stamp[r] = g + 1;
        index.groups[g].nodes.push_back(r);
      }
    }
    index.groups[group_of_root[root]].fns.push_back(
        static_cast<std::uint32_t>(i));
  }
  // Ascending node ids are a topological order: the arena keeps children
  // before parents (make_node appends; load_arena checks it).
  for (SupportGroup& group : index.groups) {
    std::sort(group.nodes.begin(), group.nodes.end());
    group.nodes.erase(std::unique(group.nodes.begin(), group.nodes.end()),
                      group.nodes.end());
  }
  index.groups_of_param.resize(param_names_.size());
  for (const auto& [vars, g] : group_of_support) {
    for (const std::uint32_t v : vars) index.groups_of_param[v].push_back(g);
  }
  return index_.emplace(std::move(index));
}

PConf::Specialization PConf::specialize_incremental(
    const Specialization& previous,
    const std::unordered_map<std::string, bool>& previous_assignment,
    const std::unordered_map<std::string, bool>& assignment) const {
  FPGADBG_REQUIRE(previous.memory.total_bits() == total_bits(),
                  "previous specialization has the wrong geometry");
  telemetry::TraceScope span("scg.specialize_incremental", "scg");
  Specialization result;
  Stopwatch timer;
  const BitVec old_values = values_from(previous_assignment);
  const BitVec new_values = values_from(assignment);
  const IncrementalIndex& index = incremental_index();

  // Flag every group that reads a changed parameter, once.
  std::vector<std::uint8_t> param_value(param_names_.size());
  std::vector<std::uint8_t> flagged(index.groups.size(), 0);
  std::vector<std::uint32_t> dirty;
  for (std::size_t p = 0; p < param_value.size(); ++p) {
    param_value[p] = new_values.get(p);
    if (old_values.get(p) == new_values.get(p)) continue;
    for (const std::uint32_t g : index.groups_of_param[p]) {
      if (!flagged[g]) {
        flagged[g] = 1;
        dirty.push_back(g);
      }
    }
  }

  result.memory = previous.memory;
  BitVec& memory = result.memory.bits();
  const FunctionView view = functions();
  const logic::BddManager::Node* arena = bdd_.arena().data();
  // Node values of this call.  A group's node list holds every node its
  // functions reach, children first, so each read below hits a node this
  // sweep already wrote (or a constant).
  std::vector<std::uint8_t> value(bdd_.size(), 0);
  value[1] = 1;
  std::size_t visited = 0;
  for (const std::uint32_t g : dirty) {
    const SupportGroup& group = index.groups[g];
    for (const std::uint32_t r : group.nodes) {
      const logic::BddManager::Node& n = arena[r];
      // Branch-free select: a parameter's value is no predictable branch.
      const std::uint32_t high = 0u - param_value[n.var];
      value[r] = value[n.low ^ ((n.low ^ n.high) & high)];
    }
    visited += group.nodes.size();
    for (const std::uint32_t i : group.fns) {
      const std::size_t bit = static_cast<std::size_t>(view.bits[i]);
      if (((memory.word(bit >> 6) >> (bit & 63)) & 1) != value[view.refs[i]]) {
        memory.flip(bit);
        result.changed_bits.push_back(bit);
      }
    }
    result.bits_evaluated += group.fns.size();
  }
  // Groups interleave in the table, so their flipped bits do too.
  std::sort(result.changed_bits.begin(), result.changed_bits.end());
  result.eval_seconds = timer.elapsed_seconds();
  record_scg("scg.incremental_specializations", result.bits_evaluated, visited,
             result.eval_seconds);
  return result;
}

}  // namespace fpgadbg::bitstream
