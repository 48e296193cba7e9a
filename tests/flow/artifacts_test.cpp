// Artifact round-trip tests: encode -> hash -> load -> re-encode -> re-hash
// must be the identity on the content hash for every stage artifact.  This
// is the property the cache depends on: a loaded artifact is
// indistinguishable (bytes and downstream hashes) from a computed one.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "bitstream/builder.h"
#include "debug/signal_param.h"
#include "flow/artifacts.h"
#include "flow/blob.h"
#include "genbench/genbench.h"
#include "map/mappers.h"
#include "pnr/flow.h"
#include "support/rng.h"

namespace fpgadbg::flow {
namespace {

netlist::Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"art" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

debug::Instrumented small_instrumented(std::uint64_t seed) {
  debug::InstrumentOptions options;
  options.trace_width = 6;
  return debug::parameterize_signals(small_user(seed), options);
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

/// A CacheHit over a 64-byte-aligned copy of `bytes`, shaped like the hit an
/// mmap'd cache entry gives the blob loaders.
CacheHit aligned_hit(const std::string& bytes) {
  auto buffer = std::make_shared<AlignedBlobBuffer>(bytes);
  CacheHit hit;
  hit.payload = buffer->view();
  hit.content_hash = fnv1a(bytes);
  hit.backing = buffer;
  return hit;
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
  EXPECT_EQ(restored.netlist.params().size(), inst.netlist.params().size());
}

TEST(Artifacts, MappedNetlistRoundTrip) {
  const auto inst = small_instrumented(3);
  const auto mapping = map::tcon_map(inst.netlist);
  // The mapped netlist is cached inside the tcon-map stage's map-result blob.
  const std::string bytes = encode_map_result_blob(mapping);
  auto loaded = load_map_result(aligned_hit(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded.value().has_value());
  const map::MappedNetlist& restored = loaded.value()->netlist;
  EXPECT_EQ(restored.num_cells(), mapping.netlist.num_cells());
  EXPECT_EQ(restored.count(map::MKind::kTcon),
            mapping.netlist.count(map::MKind::kTcon));
  EXPECT_EQ(restored.lut_area(), mapping.netlist.lut_area());
  EXPECT_EQ(restored.latches().size(), mapping.netlist.latches().size());
}

TEST(Artifacts, MapResultRoundTripDropsWallClock) {
  const auto inst = small_instrumented(4);
  auto mapping = map::tcon_map(inst.netlist);
  const std::string bytes = encode_map_result_blob(mapping);
  // Volatile timing must not leak into artifact bytes: two runs differing
  // only in runtime_seconds encode identically.
  mapping.stats.runtime_seconds += 123.0;
  EXPECT_EQ(encode_map_result_blob(mapping), bytes);

  auto loaded = load_map_result(aligned_hit(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded.value().has_value());
  const map::MapResult& restored = *loaded.value();
  EXPECT_EQ(encode_map_result_blob(restored), bytes);
  EXPECT_EQ(restored.stats.num_tcons, mapping.stats.num_tcons);
  EXPECT_EQ(restored.stats.mapper, mapping.stats.mapper);
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
  const std::string bytes =
      encode_pconf_blob(PconfArtifact{phys.pconf, phys.stats});
  auto loaded = load_pconf(aligned_hit(bytes));
  ASSERT_TRUE(loaded.ok()) << loaded.status().to_string();
  ASSERT_TRUE(loaded.value().has_value());
  const PconfArtifact& restored = *loaded.value();
  EXPECT_EQ(encode_pconf_blob(restored), bytes);
  EXPECT_TRUE(restored.pconf.functions_borrowed());
  EXPECT_EQ(restored.pconf.total_bits(), phys.pconf.total_bits());
  EXPECT_EQ(restored.pconf.num_parameterized_bits(),
            phys.pconf.num_parameterized_bits());
  EXPECT_EQ(restored.pconf.param_names(), phys.pconf.param_names());
  EXPECT_EQ(restored.stats.tlut_cells, phys.stats.tlut_cells);
  EXPECT_EQ(restored.stats.parameterized_switch_bits,
            phys.stats.parameterized_switch_bits);

  // The incremental SCG builds its index over the borrowed arena and table
  // and must track specialize() of the source PConf step by step: dense
  // steps (random assignments) alternate with one-parameter flips.
  const bitstream::PConf& loaded_pconf = restored.pconf;
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
  EXPECT_TRUE(loaded_pconf.functions_borrowed());
  EXPECT_TRUE(loaded_pconf.bdd().borrowed());
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

TEST(Artifacts, OptionHashesSeparateConcerns) {
  pnr::CompileOptions base;
  pnr::CompileOptions seeded = base;
  seeded.place.seed += 1;
  // A place-option change must alter the place hash but not route/device.
  EXPECT_NE(hash_place_options(base), hash_place_options(seeded));
  EXPECT_EQ(hash_route_options(base), hash_route_options(seeded));
  EXPECT_EQ(hash_device_options(base), hash_device_options(seeded));

  pnr::CompileOptions rerouted = base;
  rerouted.route.max_iterations += 5;
  EXPECT_EQ(hash_place_options(base), hash_place_options(rerouted));
  EXPECT_NE(hash_route_options(base), hash_route_options(rerouted));

  debug::InstrumentOptions inst;
  debug::InstrumentOptions wider = inst;
  wider.trace_width += 1;
  EXPECT_NE(hash_instrument_options(inst), hash_instrument_options(wider));
}

}  // namespace
}  // namespace fpgadbg::flow
