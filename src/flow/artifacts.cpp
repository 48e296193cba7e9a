#include "flow/artifacts.h"

#include <algorithm>
#include <exception>
#include <utility>

namespace fpgadbg::flow {

namespace {

using support::Result;
using support::Status;

// Shared small helpers: signed ints and coordinate pairs ride as u32 pairs
// (two's-complement round trip through static_cast is exact).
void write_int_vec(ByteWriter& w, const std::vector<int>& v) {
  w.u64(v.size());
  for (int x : v) w.u32(static_cast<std::uint32_t>(x));
}

std::vector<int> read_int_vec(ByteReader& r) {
  const std::uint64_t n = r.count(4);
  std::vector<int> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    v.push_back(static_cast<int>(r.u32()));
  }
  return v;
}

void write_pos_vec(ByteWriter& w, const std::vector<std::pair<int, int>>& v) {
  w.u64(v.size());
  for (const auto& [x, y] : v) {
    w.u32(static_cast<std::uint32_t>(x));
    w.u32(static_cast<std::uint32_t>(y));
  }
}

std::vector<std::pair<int, int>> read_pos_vec(ByteReader& r) {
  const std::uint64_t n = r.count(8);
  std::vector<std::pair<int, int>> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const int x = static_cast<int>(r.u32());
    const int y = static_cast<int>(r.u32());
    v.emplace_back(x, y);
  }
  return v;
}

void write_tt(ByteWriter& w, const logic::TruthTable& tt) {
  w.i32(tt.num_vars());
  w.u64_vec(tt.words());
}

logic::TruthTable read_tt(ByteReader& r) {
  const int num_vars = r.i32();
  std::vector<std::uint64_t> words = r.u64_vec();
  if (!r.ok() || num_vars < 0 || num_vars > logic::TruthTable::kMaxVars) {
    return logic::TruthTable(0);  // caller notices via r.ok()
  }
  return logic::TruthTable::from_words(num_vars, std::move(words));
}

void write_str_vec_vec(ByteWriter& w,
                       const std::vector<std::vector<std::string>>& v) {
  w.u64(v.size());
  for (const auto& inner : v) w.str_vec(inner);
}

std::vector<std::vector<std::string>> read_str_vec_vec(ByteReader& r) {
  const std::uint64_t n = r.count(8);
  std::vector<std::vector<std::string>> v;
  v.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) v.push_back(r.str_vec());
  return v;
}

/// Runs a replay-style rebuild, converting invariant violations (duplicate
/// names, dangling ids) raised by the construction API into a corrupt-
/// artifact status instead of letting them escape as exceptions.
template <typename F>
auto guarded(const char* what, F&& rebuild) -> decltype(rebuild()) {
  try {
    return rebuild();
  } catch (const std::exception& e) {
    return Status::corrupt_artifact(std::string(what) + ": " + e.what());
  }
}

}  // namespace

// --- netlist ---------------------------------------------------------------

void serialize_netlist(const netlist::Netlist& nl, ByteWriter& w) {
  using netlist::NodeKind;
  w.str(nl.model_name());
  w.u64(nl.num_nodes());
  std::size_t latch_cursor = 0;  // latches() is creation-ordered == id order
  for (netlist::NodeId id = 0; id < nl.num_nodes(); ++id) {
    const netlist::Node& n = nl.node(id);
    w.u8(static_cast<std::uint8_t>(n.kind));
    w.str(n.name);
    if (n.kind == NodeKind::kLogic) {
      w.u32_vec(n.fanins);
      write_tt(w, n.function);
    } else if (n.kind == NodeKind::kLatchOut) {
      // The latch's init value rides with its Q node so replay can call
      // add_latch directly; the driver comes in the trailing section (it
      // may have a larger id than the Q node).
      w.i32(nl.latches()[latch_cursor++].init_value);
    }
  }
  // Latch drivers in creation order (== id order of their kLatchOut nodes).
  w.u64(nl.latches().size());
  for (const netlist::Latch& l : nl.latches()) w.u32(l.input);
  w.u32_vec(nl.outputs());
  w.str_vec(nl.output_names());
}

Result<netlist::Netlist> deserialize_netlist(ByteReader& r) {
  using netlist::NodeKind;
  return guarded("netlist artifact", [&]() -> Result<netlist::Netlist> {
    netlist::Netlist nl(r.str());
    const std::uint64_t num_nodes = r.u64();
    std::vector<netlist::NodeId> latch_outs;
    for (std::uint64_t i = 0; i < num_nodes && r.ok(); ++i) {
      const auto kind = static_cast<NodeKind>(r.u8());
      const std::string name = r.str();
      if (!r.ok()) break;
      switch (kind) {
        case NodeKind::kConst0: nl.add_const0(name); break;
        case NodeKind::kInput: nl.add_input(name); break;
        case NodeKind::kParam: nl.add_param(name); break;
        case NodeKind::kLatchOut: {
          const int init = r.i32();
          latch_outs.push_back(nl.add_latch(name, netlist::kNullNode, init));
          break;
        }
        case NodeKind::kLogic: {
          std::vector<netlist::NodeId> fanins = r.u32_vec();
          logic::TruthTable tt = read_tt(r);
          if (!r.ok()) break;
          nl.add_logic(name, std::move(fanins), std::move(tt));
          break;
        }
        default:
          return Status::corrupt_artifact("netlist artifact: bad node kind");
      }
    }
    const std::uint64_t num_latches = r.u64();
    if (num_latches != latch_outs.size() || !r.ok()) {
      return r.ok() ? Status::corrupt_artifact(
                          "netlist artifact: latch count mismatch")
                    : r.status("netlist artifact");
    }
    for (std::uint64_t i = 0; i < num_latches; ++i) {
      const netlist::NodeId input = r.u32();
      if (!r.ok()) break;
      nl.set_latch_input(i, input);
    }
    const std::vector<netlist::NodeId> outputs = r.u32_vec();
    const std::vector<std::string> names = r.str_vec();
    if (!r.ok() || outputs.size() != names.size()) {
      return r.ok() ? Status::corrupt_artifact(
                          "netlist artifact: output name mismatch")
                    : r.status("netlist artifact");
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      nl.add_output(outputs[i], names[i]);
    }
    nl.check();
    return nl;
  });
}

std::uint64_t netlist_content_hash(const netlist::Netlist& nl) {
  ByteWriter w;
  serialize_netlist(nl, w);
  return w.content_hash();
}

// --- instrument ------------------------------------------------------------

void serialize_instrumented(const debug::Instrumented& inst, ByteWriter& w) {
  serialize_netlist(inst.netlist, w);
  write_str_vec_vec(w, inst.lane_signals);
  write_str_vec_vec(w, inst.lane_params);
  w.str_vec(inst.trace_outputs);
}

Result<debug::Instrumented> deserialize_instrumented(ByteReader& r) {
  FPGADBG_ASSIGN_OR_RETURN(netlist::Netlist nl, deserialize_netlist(r));
  debug::Instrumented inst;
  inst.netlist = std::move(nl);
  inst.lane_signals = read_str_vec_vec(r);
  inst.lane_params = read_str_vec_vec(r);
  inst.trace_outputs = r.str_vec();
  FPGADBG_RETURN_IF_ERROR(r.status("instrument artifact"));
  inst.index_placements();
  return inst;
}

// --- tcon-map --------------------------------------------------------------

void serialize_map_result(const map::MapResult& result, ByteWriter& w) {
  const map::MappedNetlist& mn = result.netlist;
  w.str(mn.model_name());
  w.u64(mn.num_cells());
  std::size_t latch_cursor = 0;  // latches() is creation-ordered == id order
  for (map::CellId id = 0; id < mn.num_cells(); ++id) {
    const map::MCell& c = mn.cell(id);
    w.u8(static_cast<std::uint8_t>(c.kind));
    w.str(c.name);
    if (c.kind == map::MKind::kLatchOut) {
      // As in the netlist: the init value rides with the Q cell, the
      // driver comes in the trailing section.
      w.i32(mn.latches()[latch_cursor++].init_value);
    } else if (!mn.is_source(id)) {
      w.u32_vec(c.data_inputs);
      w.u32_vec(c.param_inputs);
      write_tt(w, c.function);
    }
  }
  w.u64(mn.latches().size());
  for (const map::MLatch& l : mn.latches()) w.u32(l.input);
  w.u32_vec(mn.outputs());
  w.str_vec(mn.output_names());
  const map::MapStats& stats = result.stats;
  w.str(stats.mapper);
  w.u64(stats.num_luts);
  w.u64(stats.num_tluts);
  w.u64(stats.num_tcons);
  w.u64(stats.lut_area);
  w.i32(stats.depth);
  // runtime_seconds intentionally not serialized (volatile).
}

Result<map::MapResult> deserialize_map_result(ByteReader& r) {
  using map::MKind;
  return guarded("map artifact", [&]() -> Result<map::MapResult> {
    map::MappedNetlist mn(r.str());
    const std::uint64_t num_cells = r.u64();
    for (std::uint64_t i = 0; i < num_cells && r.ok(); ++i) {
      const auto kind = static_cast<MKind>(r.u8());
      const std::string name = r.str();
      if (!r.ok()) break;
      switch (kind) {
        case MKind::kConst0:
        case MKind::kInput:
        case MKind::kParam:
          mn.add_source(kind, name);
          break;
        case MKind::kLatchOut:
          mn.add_latch_source(name, r.i32());
          break;
        case MKind::kLut:
        case MKind::kTlut:
        case MKind::kTcon: {
          std::vector<map::CellId> data = r.u32_vec();
          std::vector<map::CellId> params = r.u32_vec();
          logic::TruthTable tt = read_tt(r);
          if (!r.ok()) break;
          mn.add_cell(kind, name, std::move(data), std::move(params),
                      std::move(tt));
          break;
        }
        default:
          return Status::corrupt_artifact("map artifact: bad cell kind");
      }
    }
    const std::uint64_t num_latches = r.u64();
    if (num_latches != mn.latches().size() || !r.ok()) {
      return r.ok() ? Status::corrupt_artifact(
                          "map artifact: latch count mismatch")
                    : r.status("map artifact");
    }
    for (std::uint64_t i = 0; i < num_latches; ++i) {
      const map::CellId input = r.u32();
      if (!r.ok()) break;
      mn.set_latch_input(i, input);
    }
    const std::vector<map::CellId> outputs = r.u32_vec();
    const std::vector<std::string> names = r.str_vec();
    if (!r.ok() || outputs.size() != names.size()) {
      return r.ok() ? Status::corrupt_artifact(
                          "map artifact: output name mismatch")
                    : r.status("map artifact");
    }
    for (std::size_t i = 0; i < outputs.size(); ++i) {
      mn.add_output(outputs[i], names[i]);
    }
    mn.check();
    map::MapResult result;
    result.netlist = std::move(mn);
    map::MapStats& stats = result.stats;
    stats.mapper = r.str();
    stats.num_luts = r.u64();
    stats.num_tluts = r.u64();
    stats.num_tcons = r.u64();
    stats.lut_area = r.u64();
    stats.depth = r.i32();
    FPGADBG_RETURN_IF_ERROR(r.status("map artifact"));
    return result;
  });
}

// --- packing ---------------------------------------------------------------

void serialize_packing(const pnr::Packing& packing, ByteWriter& w) {
  w.u64(packing.clusters.size());
  for (const pnr::Cluster& c : packing.clusters) w.u32_vec(c.bles);
  write_int_vec(w, packing.cluster_of);
}

Result<pnr::Packing> deserialize_packing(ByteReader& r) {
  pnr::Packing packing;
  const std::uint64_t n = r.count(8);
  packing.clusters.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    packing.clusters.push_back(pnr::Cluster{r.u32_vec()});
  }
  packing.cluster_of = read_int_vec(r);
  FPGADBG_RETURN_IF_ERROR(r.status("packing artifact"));
  return packing;
}

// --- placement -------------------------------------------------------------

void serialize_placement(const pnr::Placement& placement, ByteWriter& w) {
  write_pos_vec(w, placement.cluster_pos);
  // unordered_map iteration order is not deterministic; sort by cell id so
  // equal placements always serialize to equal bytes (hash stability).
  std::vector<std::pair<map::CellId, std::pair<int, int>>> io(
      placement.io_of_cell.begin(), placement.io_of_cell.end());
  std::sort(io.begin(), io.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  w.u64(io.size());
  for (const auto& [cell, pos] : io) {
    w.u32(cell);
    w.u32(static_cast<std::uint32_t>(pos.first));
    w.u32(static_cast<std::uint32_t>(pos.second));
  }
  write_pos_vec(w, placement.io_of_output);
  write_pos_vec(w, placement.bram_of_lane);
  w.f64(placement.total_hpwl);
}

Result<pnr::Placement> deserialize_placement(ByteReader& r) {
  pnr::Placement placement;
  placement.cluster_pos = read_pos_vec(r);
  const std::uint64_t n = r.count(12);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const map::CellId cell = r.u32();
    const int x = static_cast<int>(r.u32());
    const int y = static_cast<int>(r.u32());
    placement.io_of_cell.emplace(cell, std::make_pair(x, y));
  }
  placement.io_of_output = read_pos_vec(r);
  placement.bram_of_lane = read_pos_vec(r);
  placement.total_hpwl = r.f64();
  FPGADBG_RETURN_IF_ERROR(r.status("placement artifact"));
  return placement;
}

// --- routing ---------------------------------------------------------------

void serialize_route_result(const pnr::RouteResult& routing, ByteWriter& w) {
  w.boolean(routing.success);
  w.i32(routing.iterations);
  w.u64(routing.routes.size());
  for (const auto& route : routing.routes) w.u32_vec(route);
  w.u64(routing.wire_nodes_used);
  w.u64(routing.total_wirelength);
  // runtime_seconds intentionally not serialized (volatile).
}

Result<pnr::RouteResult> deserialize_route_result(ByteReader& r) {
  pnr::RouteResult routing;
  routing.success = r.boolean();
  routing.iterations = r.i32();
  const std::uint64_t n = r.count(8);
  routing.routes.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    routing.routes.push_back(r.u32_vec());
  }
  routing.wire_nodes_used = r.u64();
  routing.total_wirelength = r.u64();
  FPGADBG_RETURN_IF_ERROR(r.status("route artifact"));
  return routing;
}

// --- pconf-build ------------------------------------------------------------

void serialize_pconf(const PconfArtifact& artifact, ByteWriter& w) {
  const bitstream::PConf& pconf = artifact.pconf;
  w.u64(pconf.total_bits());
  w.str_vec(pconf.param_names());
  const BitVec& constants = pconf.constants().bits();
  w.u64(constants.word_count());
  for (std::size_t i = 0; i < constants.word_count(); ++i) {
    w.u64(constants.word(i));
  }
  w.pod_vec<logic::BddManager::Node>(pconf.bdd().arena());
  const bitstream::FunctionView functions = pconf.functions();
  w.pod_vec<std::uint64_t>({functions.bits, functions.count});
  w.pod_vec<std::uint32_t>({functions.refs, functions.count});
  const bitstream::PconfBuildStats& stats = artifact.stats;
  w.u64(stats.lut_cells);
  w.u64(stats.tlut_cells);
  w.u64(stats.constant_switch_bits);
  w.u64(stats.parameterized_switch_bits);
  w.u64(stats.parameterized_lut_bits);
}

Result<PconfArtifact> deserialize_pconf(ByteReader& r) {
  return guarded("pconf artifact", [&]() -> Result<PconfArtifact> {
    const std::uint64_t total_bits = r.u64();
    std::vector<std::string> param_names = r.str_vec();
    // Checked before the constant plane is allocated from total_bits.
    const std::uint64_t num_words = r.count(8);
    if (!r.ok() || num_words != total_bits / 64 + (total_bits % 64 != 0)) {
      return r.ok() ? Status::corrupt_artifact(
                          "pconf artifact: constant plane size mismatch")
                    : r.status("pconf artifact");
    }
    // The BDD's variables are the parameters, so the constructor fixes the
    // range load_arena checks node variables against.
    bitstream::PConf pconf(total_bits, std::move(param_names));
    BitVec& constants = pconf.constants().bits();
    for (std::size_t i = 0; i < num_words; ++i) {
      constants.set_word(i, r.u64());
    }
    std::vector<logic::BddManager::Node> arena =
        r.pod_vec<logic::BddManager::Node>();
    std::vector<std::uint64_t> fn_bits = r.u64_vec();
    std::vector<std::uint32_t> fn_refs = r.u32_vec();
    bitstream::PconfBuildStats stats;
    stats.lut_cells = r.u64();
    stats.tlut_cells = r.u64();
    stats.constant_switch_bits = r.u64();
    stats.parameterized_switch_bits = r.u64();
    stats.parameterized_lut_bits = r.u64();
    FPGADBG_RETURN_IF_ERROR(r.status("pconf artifact"));
    FPGADBG_RETURN_IF_ERROR(pconf.bdd().load_arena(std::move(arena)));
    FPGADBG_RETURN_IF_ERROR(
        pconf.load_functions(std::move(fn_bits), std::move(fn_refs)));
    return PconfArtifact{std::move(pconf), stats};
  });
}

// --- options hashing --------------------------------------------------------

std::uint64_t hash_instrument_options(const debug::InstrumentOptions& o) {
  ByteWriter w;
  w.u64(o.trace_width);
  w.boolean(o.observe_logic);
  w.boolean(o.observe_latch_outputs);
  w.u64(o.max_observed);
  w.str_vec(o.observe_list);
  w.i32(o.mux_radix);
  w.i32(o.replication);
  return w.content_hash();
}

std::uint64_t hash_map_options(int lut_size, int max_param_leaves) {
  ByteWriter w;
  w.i32(lut_size);
  w.i32(max_param_leaves);
  return w.content_hash();
}

std::uint64_t hash_arch_params(const arch::ArchParams& a) {
  ByteWriter w;
  w.i32(a.lut_size);
  w.i32(a.cluster_size);
  w.i32(a.cluster_inputs);
  w.i32(a.channel_width);
  w.i32(a.bram_column_period);
  w.i32(a.bram_kbits);
  return w.content_hash();
}

std::uint64_t hash_device_options(const pnr::CompileOptions& o) {
  ByteWriter w;
  w.u64(hash_arch_params(o.arch));
  w.f64(o.device_slack);
  return w.content_hash();
}

std::uint64_t hash_timing_options(const pnr::TimingOptions& t) {
  ByteWriter w;
  w.boolean(t.timing_driven);
  w.f64(t.place_tradeoff);
  w.f64(t.crit_exp);
  w.f64(t.route_crit_weight);
  w.f64(t.delays.lut_ns);
  w.f64(t.delays.pin_ns);
  w.f64(t.delays.segment_ns);
  w.f64(t.delays.fanout_ns);
  w.f64(t.delays.tile_ns);
  return w.content_hash();
}

std::uint64_t hash_place_options(const pnr::CompileOptions& o) {
  ByteWriter w;
  w.u64(hash_device_options(o));
  w.u64(o.place.seed);
  w.u64(hash_timing_options(o.timing));
  return w.content_hash();
}

std::uint64_t hash_route_options(const pnr::CompileOptions& o) {
  ByteWriter w;
  w.u64(hash_device_options(o));
  w.f64(o.route.astar_fac);
  w.i32(o.route.bb_margin);
  w.boolean(o.route.incremental);
  w.u64(hash_timing_options(o.timing));
  // route_threads is not hashed: the router ignores it.
  return w.content_hash();
}

}  // namespace fpgadbg::flow
