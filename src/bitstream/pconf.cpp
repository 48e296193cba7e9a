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
                std::size_t bdd_nodes_visited, std::size_t table_rows_read,
                double eval_seconds) {
  static telemetry::Counter& bits =
      telemetry::metrics().counter("scg.bits_reevaluated");
  static telemetry::Counter& nodes =
      telemetry::metrics().counter("scg.bdd_nodes_visited");
  static telemetry::Counter& rows =
      telemetry::metrics().counter("scg.table_rows_read");
  static telemetry::Histogram& seconds =
      telemetry::metrics().histogram("scg.eval_seconds");
  runs.add(1);
  bits.add(bits_evaluated);
  nodes.add(bdd_nodes_visited);
  rows.add(table_rows_read);
  seconds.observe(eval_seconds);
}

/// Within one 64-code word, the codes whose bit i (i < 6) is set.
constexpr std::uint64_t kCodeBitPattern[6] = {
    0xaaaaaaaaaaaaaaaaull, 0xccccccccccccccccull, 0xf0f0f0f0f0f0f0f0ull,
    0xff00ff00ff00ff00ull, 0xffff0000ffff0000ull, 0xffffffff00000000ull};

/// Transposes a 64 x 64 bit matrix in place: bit j of m[i] moves to bit i
/// of m[j].  Six rounds, each swapping the off-diagonal blocks of every
/// 2j x 2j tile (Hacker's Delight, 7-3).
void transpose64(std::uint64_t* m) {
  std::uint64_t mask = 0x00000000ffffffffull;
  for (unsigned j = 32; j != 0; j >>= 1, mask ^= mask << j) {
    for (unsigned k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const std::uint64_t t = ((m[k] >> j) ^ m[k | j]) & mask;
      m[k] ^= t << j;
      m[k | j] ^= t;
    }
  }
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
  record_scg(runs, result.bits_evaluated, visited, 0, result.eval_seconds);
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
  // Build-time only: per group, its support, the table positions of its
  // functions and the arena nodes they reach.
  struct GroupBuild {
    std::vector<std::uint32_t> vars;
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
      if (inserted) builds.push_back({support, {}, {}});
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
  index.groups_of_param.resize(param_names_.size());
  // Arena id -> id within the group being lowered.  A group's node list is
  // closed under children, so every child read below was set for the same
  // group.
  std::vector<std::uint32_t> local(bdd_.size(), 0);
  local[1] = 1;
  // Arena id -> root number within the group, valid where root_stamp holds
  // the group + 1.
  std::vector<std::uint32_t> root_of(bdd_.size(), 0);
  std::vector<std::uint32_t> root_stamp(bdd_.size(), 0);
  std::vector<std::uint32_t> roots;
  // Parameter -> its code bit within the group being tabled.
  std::vector<std::uint32_t> code_bit(param_names_.size(), 0);
  // Truth tables over the group's codes, one word per 64 codes per node.
  std::vector<std::uint64_t> tt;
  for (std::size_t g = 0; g < builds.size(); ++g) {
    GroupBuild& build = builds[g];
    SupportGroup& group = index.groups[g];
    const std::uint32_t gs = static_cast<std::uint32_t>(g + 1);
    for (const std::uint32_t v : build.vars) {
      index.groups_of_param[v].push_back(static_cast<std::uint32_t>(g));
    }
    // Distinct roots in order of first use, then each root's bits: the
    // table lists them by ascending address, so each run is ascending.
    roots.clear();
    group.root_bits.assign(1, 0);
    for (const std::uint32_t i : build.fns) {
      const logic::BddRef r = view.refs[i];
      if (root_stamp[r] != gs) {
        root_stamp[r] = gs;
        root_of[r] = static_cast<std::uint32_t>(roots.size());
        roots.push_back(r);
        group.root_bits.push_back(0);
      }
      ++group.root_bits[root_of[r] + 1];
    }
    for (std::size_t r = 0; r < roots.size(); ++r) {
      group.root_bits[r + 1] += group.root_bits[r];
    }
    group.bits.resize(build.fns.size());
    std::vector<std::uint32_t> cursor(group.root_bits.begin(),
                                      group.root_bits.end() - 1);
    for (const std::uint32_t i : build.fns) {
      group.bits[cursor[root_of[view.refs[i]]]++] =
          static_cast<std::uint32_t>(view.bits[i]);
    }

    // Ascending node ids are a topological order: the arena keeps children
    // before parents (make_node appends; load_arena checks it).
    std::sort(build.nodes.begin(), build.nodes.end());
    build.nodes.erase(std::unique(build.nodes.begin(), build.nodes.end()),
                      build.nodes.end());
    for (std::size_t k = 0; k < build.nodes.size(); ++k) {
      local[build.nodes[k]] = static_cast<std::uint32_t>(k + 2);
    }
    group.vars = std::move(build.vars);
    if (group.vars.size() > kTableParams) {
      group.nodes.reserve(build.nodes.size());
      for (const std::uint32_t r : build.nodes) {
        const logic::BddManager::Node& n = arena[r];
        group.nodes.push_back({n.var, local[n.low], local[n.high]});
      }
      for (const std::uint32_t r : roots) group.root_node.push_back(local[r]);
      index.max_group_nodes =
          std::max(index.max_group_nodes, group.nodes.size());
      continue;
    }

    // Every node's truth table over the codes, children first: word w of a
    // node holds its values under codes 64w .. 64w + 63.
    const std::size_t codes = std::size_t{1} << group.vars.size();
    const std::size_t words = (codes + 63) / 64;
    for (std::size_t i = 0; i < group.vars.size(); ++i) {
      code_bit[group.vars[i]] = static_cast<std::uint32_t>(i);
    }
    tt.assign((build.nodes.size() + 2) * words, 0);
    std::fill_n(tt.begin() + static_cast<std::ptrdiff_t>(words), words,
                ~std::uint64_t{0});
    for (std::size_t k = 0; k < build.nodes.size(); ++k) {
      const logic::BddManager::Node& n = arena[build.nodes[k]];
      const std::uint32_t bit = code_bit[n.var];
      const std::uint64_t* low = &tt[local[n.low] * words];
      const std::uint64_t* high = &tt[local[n.high] * words];
      std::uint64_t* out = &tt[(k + 2) * words];
      for (std::size_t w = 0; w < words; ++w) {
        // Codes whose bit `bit` is set: a fixed pattern within a word for
        // the low six bits, whole words above them.
        const std::uint64_t high_codes =
            bit < 6 ? kCodeBitPattern[bit]
                    : 0 - static_cast<std::uint64_t>((w >> (bit - 6)) & 1);
        out[w] = (high[w] & high_codes) | (low[w] & ~high_codes);
      }
    }
    // Transposed into rows, 64 roots by 64 codes at a time.  Under fewer
    // than 64 codes, a word's bits past the last code are no row.
    const std::size_t row_words = (roots.size() + 63) / 64;
    const std::size_t codes_per_word = std::min<std::size_t>(64, codes);
    group.words_per_row = row_words;
    group.rows.resize(codes * row_words);
    std::uint64_t block[64];
    for (std::size_t rw = 0; rw < row_words; ++rw) {
      for (std::size_t w = 0; w < words; ++w) {
        for (std::size_t r = 0; r < 64; ++r) {
          const std::size_t root = rw * 64 + r;
          block[r] = root < roots.size() ? tt[local[roots[root]] * words + w]
                                         : 0;
        }
        transpose64(block);
        for (std::size_t c = 0; c < codes_per_word; ++c) {
          group.rows[(w * 64 + c) * row_words + rw] = block[c];
        }
      }
    }
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

  BitVec& memory = config.bits();
  // Root r of `group` changed value: flip its bits.
  const auto flip_root = [&](const SupportGroup& group, std::size_t r) {
    for (std::uint32_t j = group.root_bits[r]; j < group.root_bits[r + 1];
         ++j) {
      memory.flip(group.bits[j]);
      result.changed_bits.push_back(group.bits[j]);
    }
  };
  const auto value_of = [](const BitVec& values, std::uint32_t p) {
    return static_cast<std::size_t>((values.word(p >> 6) >> (p & 63)) & 1);
  };
  // Wide groups only: per parameter its value under `from` (bit 0) and
  // under `to` (bit 1), and the two-lane node values of one program.
  std::vector<std::uint8_t> lanes;
  std::vector<std::uint8_t> value;
  std::size_t visited = 0, rows_read = 0;
  for (const std::uint32_t g : dirty) {
    const SupportGroup& group = index.groups[g];
    result.bits_evaluated += group.bits.size();
    if (group.vars.size() <= kTableParams) {
      std::size_t from_code = 0, to_code = 0;
      for (std::size_t i = 0; i < group.vars.size(); ++i) {
        from_code |= value_of(from, group.vars[i]) << i;
        to_code |= value_of(to, group.vars[i]) << i;
      }
      const std::size_t words = group.words_per_row;
      const std::uint64_t* before = group.rows.data() + from_code * words;
      const std::uint64_t* after = group.rows.data() + to_code * words;
      for (std::size_t w = 0; w < words; ++w) {
        for (std::uint64_t diff = before[w] ^ after[w]; diff != 0;
             diff &= diff - 1) {
          flip_root(group, w * 64 + static_cast<std::size_t>(
                                        std::countr_zero(diff)));
        }
      }
      rows_read += 2;
      continue;
    }
    if (lanes.empty()) {
      lanes.resize(num_params());
      for (std::uint32_t p = 0; p < lanes.size(); ++p) {
        lanes[p] = static_cast<std::uint8_t>(value_of(from, p) |
                                             value_of(to, p) << 1);
      }
      value.assign(index.max_group_nodes + 2, 0);
      value[1] = 3;
    }
    // The program lists children first, so each read below hits a node
    // this sweep already wrote (or a constant).  Each lane takes high
    // where its parameter is set: a branch-free select, since a
    // parameter's value is no predictable branch.
    const logic::BddManager::Node* nodes = group.nodes.data();
    const std::size_t count = group.nodes.size();
    for (std::size_t k = 0; k < count; ++k) {
      const logic::BddManager::Node& n = nodes[k];
      const std::uint8_t take_high = lanes[n.var];
      value[k + 2] = static_cast<std::uint8_t>(
          (value[n.low] & ~take_high) | (value[n.high] & take_high));
    }
    visited += count;
    for (std::size_t r = 0; r < group.root_node.size(); ++r) {
      const std::uint8_t v = value[group.root_node[r]];
      if ((v ^ (v >> 1)) & 1) flip_root(group, r);
    }
  }
  // Groups interleave in the table, and so do the roots of one group, so
  // their flipped bits do too.
  std::sort(result.changed_bits.begin(), result.changed_bits.end());
  result.eval_seconds = timer.elapsed_seconds();
  static telemetry::Counter& runs =
      telemetry::metrics().counter("scg.incremental_specializations");
  record_scg(runs, result.bits_evaluated, visited, rows_read,
             result.eval_seconds);
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
