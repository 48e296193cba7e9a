// Artifact round-trip tests: encode -> hash -> load -> re-encode -> re-hash
// must be the identity on the content hash for every stage artifact.  This
// is the property the cache depends on: a loaded artifact is
// indistinguishable (bytes and downstream hashes) from a computed one.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "arch/frames.h"
#include "bitstream/builder.h"
#include "debug/signal_param.h"
#include "flow/artifacts.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "support/rng.h"

namespace fpgadbg::flow {
namespace {

netlist::Netlist small_user(std::uint64_t seed, std::size_t latches = 4) {
  genbench::CircuitSpec spec{"art" + std::to_string(seed), 8, 6, latches, 36,
                             3, 5, seed};
  return genbench::generate(spec);
}

debug::Instrumented small_instrumented(std::uint64_t seed,
                                       std::size_t latches = 4) {
  debug::InstrumentOptions options;
  options.trace_width = 6;
  return debug::parameterize_signals(small_user(seed, latches), options);
}

/// Serializes with `ser`, deserializes, re-serializes, and checks that the
/// two byte buffers (and therefore the two content hashes) are identical.
template <typename T, typename Ser, typename Deser>
std::pair<T, std::uint64_t> round_trip(const T& value, Ser ser, Deser deser) {
  ByteWriter w1;
  ser(value, w1);
  const std::uint64_t hash1 = w1.content_hash();

  ByteReader r(w1.bytes());
  auto restored = deser(r);
  EXPECT_TRUE(restored.ok()) << restored.status().to_string();

  ByteWriter w2;
  ser(restored.value(), w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());
  EXPECT_EQ(hash1, w2.content_hash());
  return {std::move(restored).value(), hash1};
}

TEST(Artifacts, NetlistRoundTrip) {
  const auto nl = small_user(1);
  auto [restored, hash] =
      round_trip(nl, serialize_netlist, deserialize_netlist);
  EXPECT_EQ(hash, netlist_content_hash(nl));
  EXPECT_EQ(restored.model_name(), nl.model_name());
  EXPECT_EQ(restored.num_logic_nodes(), nl.num_logic_nodes());
  EXPECT_EQ(restored.inputs().size(), nl.inputs().size());
  EXPECT_EQ(restored.outputs().size(), nl.outputs().size());
  EXPECT_EQ(restored.latches().size(), nl.latches().size());
}

TEST(Artifacts, InstrumentedRoundTrip) {
  const auto inst = small_instrumented(2);
  auto [restored, hash] =
      round_trip(inst, serialize_instrumented, deserialize_instrumented);
  (void)hash;
  EXPECT_EQ(restored.lane_signals, inst.lane_signals);
  EXPECT_EQ(restored.lane_params, inst.lane_params);
  EXPECT_EQ(restored.trace_outputs, inst.trace_outputs);
  EXPECT_EQ(restored.placement_index, inst.placement_index);
  EXPECT_EQ(restored.netlist.params().size(), inst.netlist.params().size());
}

/// Round-trips the tcon-map stage's map result, which carries the mapped
/// netlist, and checks the restored netlist's shape.
void expect_mapped_netlist_round_trips(std::size_t latches) {
  const auto inst = small_instrumented(3, latches);
  const auto mapping = map::tcon_map(inst.netlist);
  auto [result, hash] =
      round_trip(mapping, serialize_map_result, deserialize_map_result);
  (void)hash;
  const map::MappedNetlist& restored = result.netlist;
  EXPECT_EQ(restored.num_cells(), mapping.netlist.num_cells());
  EXPECT_EQ(restored.count(map::MKind::kTcon),
            mapping.netlist.count(map::MKind::kTcon));
  EXPECT_EQ(restored.lut_area(), mapping.netlist.lut_area());
  EXPECT_EQ(restored.latches().size(), latches);
  EXPECT_EQ(restored.outputs(), mapping.netlist.outputs());
}

TEST(Artifacts, MappedNetlistRoundTrip) {
  expect_mapped_netlist_round_trips(4);
}

TEST(Artifacts, MapResultRoundTripDropsWallClock) {
  const auto inst = small_instrumented(4);
  auto mapping = map::tcon_map(inst.netlist);
  ByteWriter w1;
  serialize_map_result(mapping, w1);
  // Volatile timing must not leak into artifact bytes: two runs differing
  // only in runtime_seconds encode identically.
  mapping.stats.runtime_seconds += 123.0;
  ByteWriter w2;
  serialize_map_result(mapping, w2);
  EXPECT_EQ(w1.bytes(), w2.bytes());

  auto [restored, hash] =
      round_trip(mapping, serialize_map_result, deserialize_map_result);
  EXPECT_EQ(hash, w1.content_hash());
  EXPECT_EQ(restored.stats.num_tcons, mapping.stats.num_tcons);
  EXPECT_EQ(restored.stats.mapper, mapping.stats.mapper);
  EXPECT_EQ(restored.stats.depth, mapping.stats.depth);
}

/// Runs the physical flow once; placement/routing/pconf tests share it.
struct Physical {
  pnr::CompiledDesign design;
  bitstream::PconfBuildStats stats;
  bitstream::PConf pconf;
};

Physical compile_small(std::uint64_t seed) {
  const auto inst = small_instrumented(seed);
  auto mapping = map::tcon_map(inst.netlist);
  pnr::CompiledDesign design = pnr::compile(std::move(mapping.netlist),
                                            inst.trace_outputs,
                                            pnr::CompileOptions{});
  bitstream::PconfBuildStats stats;
  bitstream::PConf pconf = bitstream::build_pconf(design, &stats);
  return Physical{std::move(design), stats, std::move(pconf)};
}

TEST(Artifacts, PackingPlacementRoutingRoundTrip) {
  const Physical phys = compile_small(5);

  auto [packing, ph] =
      round_trip(phys.design.packing, serialize_packing, deserialize_packing);
  (void)ph;
  EXPECT_EQ(packing.num_clusters(), phys.design.packing.num_clusters());

  auto [placement, plh] = round_trip(phys.design.placement,
                                     serialize_placement,
                                     deserialize_placement);
  (void)plh;
  EXPECT_EQ(placement.cluster_pos, phys.design.placement.cluster_pos);
  EXPECT_EQ(placement.total_hpwl, phys.design.placement.total_hpwl);

  auto routing = phys.design.routing;
  ByteWriter w1;
  serialize_route_result(routing, w1);
  routing.runtime_seconds += 42.0;  // volatile field must not affect bytes
  ByteWriter w2;
  serialize_route_result(routing, w2);
  EXPECT_EQ(w1.content_hash(), w2.content_hash());

  auto [restored, rh] = round_trip(routing, serialize_route_result,
                                   deserialize_route_result);
  (void)rh;
  EXPECT_EQ(restored.success, phys.design.routing.success);
  EXPECT_EQ(restored.routes.size(), phys.design.routing.routes.size());
  EXPECT_EQ(restored.total_wirelength, phys.design.routing.total_wirelength);
}

TEST(Artifacts, PconfRoundTrip) {
  const Physical phys = compile_small(6);
  auto [restored, hash] = round_trip(PconfArtifact{phys.pconf, phys.stats},
                                     serialize_pconf, deserialize_pconf);
  (void)hash;
  EXPECT_EQ(restored.pconf.total_bits(), phys.pconf.total_bits());
  EXPECT_TRUE(restored.pconf.constants() == phys.pconf.constants());
  EXPECT_EQ(restored.pconf.num_parameterized_bits(),
            phys.pconf.num_parameterized_bits());
  EXPECT_EQ(restored.pconf.param_names(), phys.pconf.param_names());
  EXPECT_EQ(restored.stats.tlut_cells, phys.stats.tlut_cells);
  EXPECT_EQ(restored.stats.parameterized_switch_bits,
            phys.stats.parameterized_switch_bits);

  // The incremental SCG builds its index over the loaded arena and table
  // and must track specialize() of the source PConf step by step: dense
  // steps (random assignments) alternate with one-parameter flips.
  bitstream::PConf& loaded_pconf = restored.pconf;
  const auto& names = loaded_pconf.param_names();
  ASSERT_FALSE(names.empty());
  Rng rng(61);
  std::unordered_map<std::string, bool> prev_asg;
  auto prev = loaded_pconf.specialize(prev_asg);
  for (int step = 0; step < 12; ++step) {
    auto asg = prev_asg;
    if (step % 2 == 0) {
      for (const std::string& name : names) asg[name] = rng.next_bool();
    } else {
      const std::string& name = names[rng.next_below(names.size())];
      asg[name] = !asg[name];
    }
    prev = loaded_pconf.specialize_incremental(prev, prev_asg, asg);
    EXPECT_EQ(prev.memory, phys.pconf.specialize(asg).memory)
        << "step " << step;
    prev_asg = asg;
  }

  // The load leaves the unique table to the first mutation: building a
  // node the arena already holds must find it, not append a duplicate.
  const bitstream::FunctionView fns = loaded_pconf.functions();
  ASSERT_GT(fns.count, 0u);
  logic::BddManager& bdd = loaded_pconf.bdd();
  const logic::BddRef root = fns.refs[fns.count - 1];
  const logic::BddManager::Node node = bdd.arena()[root];
  const logic::BddRef var = bdd.var(static_cast<int>(node.var));
  const std::size_t size = bdd.size();
  EXPECT_EQ(bdd.bdd_ite(var, node.high, node.low), root);
  EXPECT_EQ(bdd.size(), size);
}

TEST(Artifacts, EmptySectionsRoundTrip) {
  // Sections that may be empty must load as empty, not as corrupt: a
  // mapped netlist with no latches, and a PConf without parameterized bits
  // (an arena of only the constants and an empty function table).
  expect_mapped_netlist_round_trips(0);

  const std::size_t two_frames = 2 * arch::FrameGeometry::kFrameBits;
  bitstream::PConf plain(two_frames, {"p0", "p1"});
  plain.set_constant(3, true);
  plain.set_constant(two_frames - 1, true);
  auto [empty, empty_hash] = round_trip(PconfArtifact{plain, {}},
                                        serialize_pconf, deserialize_pconf);
  (void)empty_hash;
  EXPECT_EQ(empty.pconf.bdd().size(), 2u);
  EXPECT_EQ(empty.pconf.functions().count, 0u);
  EXPECT_TRUE(empty.pconf.constants() == plain.constants());
}

TEST(Artifacts, TruncatedBytesAreCorruptNotFatal) {
  const auto nl = small_user(7);
  ByteWriter w;
  serialize_netlist(nl, w);
  for (const std::size_t keep : {std::size_t{0}, std::size_t{4},
                                 w.bytes().size() / 2,
                                 w.bytes().size() - 1}) {
    ByteReader r(std::string_view(w.bytes()).substr(0, keep));
    const auto restored = deserialize_netlist(r);
    ASSERT_FALSE(restored.ok()) << "keep=" << keep;
    EXPECT_EQ(restored.status().code(), support::StatusCode::kCorruptArtifact);
  }
}

/// One stage payload and its deserializer, reduced to the Status it returns.
struct Payload {
  const char* stage;
  std::string bytes;
  std::function<support::Status(ByteReader&)> load;
};

template <typename T, typename Ser, typename Deser>
Payload make_payload(const char* stage, const T& value, Ser ser, Deser deser) {
  ByteWriter w;
  ser(value, w);
  return Payload{stage, w.take(),
                 [deser](ByteReader& r) { return deser(r).status(); }};
}

TEST(Artifacts, HostilePayloadsAreCorruptNotFatal) {
  // Every loader, fed directly (no cache digest in the way), must turn
  // each truncation and each single-byte corruption of a real payload into
  // either a value or kCorruptArtifact, and never throw: a forged length
  // prefix must not reach an allocation.
  const auto inst = small_instrumented(8);
  auto mapping = map::tcon_map(inst.netlist);
  const Physical phys = compile_small(8);
  const std::vector<Payload> payloads = {
      make_payload("instrument", inst, serialize_instrumented,
                   deserialize_instrumented),
      make_payload("tcon-map", mapping, serialize_map_result,
                   deserialize_map_result),
      make_payload("pack", phys.design.packing, serialize_packing,
                   deserialize_packing),
      make_payload("place", phys.design.placement, serialize_placement,
                   deserialize_placement),
      make_payload("route", phys.design.routing, serialize_route_result,
                   deserialize_route_result),
      make_payload("pconf-build", PconfArtifact{phys.pconf, phys.stats},
                   serialize_pconf, deserialize_pconf),
  };
  for (const Payload& p : payloads) {
    std::vector<std::string> failures;
    auto expect_value_or_corrupt = [&](std::string_view bytes,
                                       const std::string& what) {
      ByteReader r(bytes);
      support::Status s;
      try {
        s = p.load(r);
      } catch (const std::exception& e) {
        failures.push_back(what + " threw: " + e.what());
        return;
      } catch (...) {
        failures.push_back(what + " threw a non-standard exception");
        return;
      }
      if (!s.ok() && s.code() != support::StatusCode::kCorruptArtifact) {
        failures.push_back(what + ": " + s.to_string());
      }
    };
    {
      ByteReader r(p.bytes);
      const support::Status intact = p.load(r);
      ASSERT_TRUE(intact.ok()) << p.stage << ": " << intact.to_string();
    }
    for (std::size_t keep = 0; keep < p.bytes.size(); ++keep) {
      expect_value_or_corrupt(std::string_view(p.bytes).substr(0, keep),
                              "truncated to " + std::to_string(keep));
    }
    std::string bad = p.bytes;
    for (std::size_t at = 0; at < bad.size(); ++at) {
      for (const unsigned mask : {0x01u, 0x80u, 0xffu}) {
        bad[at] = static_cast<char>(p.bytes[at] ^ mask);
        expect_value_or_corrupt(bad, "byte " + std::to_string(at) + " ^ " +
                                         std::to_string(mask));
      }
      bad[at] = p.bytes[at];
    }
    EXPECT_TRUE(failures.empty())
        << p.stage << " (" << p.bytes.size() << " bytes): "
        << failures.size() << " inputs escaped, first: " << failures.front();
  }
}

TEST(Artifacts, OptionHashesSeparateConcerns) {
  pnr::CompileOptions base;
  pnr::CompileOptions seeded = base;
  seeded.place.seed += 1;
  // A place-option change must alter the place hash but not route/device.
  EXPECT_NE(hash_place_options(base), hash_place_options(seeded));
  EXPECT_EQ(hash_route_options(base), hash_route_options(seeded));
  EXPECT_EQ(hash_device_options(base), hash_device_options(seeded));

  pnr::CompileOptions rerouted = base;
  rerouted.route.astar_fac += 0.5;
  EXPECT_EQ(hash_place_options(base), hash_place_options(rerouted));
  EXPECT_NE(hash_route_options(base), hash_route_options(rerouted));

  debug::InstrumentOptions inst;
  debug::InstrumentOptions wider = inst;
  wider.trace_width += 1;
  EXPECT_NE(hash_instrument_options(inst), hash_instrument_options(wider));
}

}  // namespace
}  // namespace fpgadbg::flow
