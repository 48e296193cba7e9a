// Staged-pipeline tests: cache hit/miss accounting, selective invalidation,
// and the no-throw error contract of Pipeline::run.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "flow/artifacts.h"
#include "flow/cache.h"
#include "flow/pipeline.h"
#include "genbench/genbench.h"
#include "netlist/blif.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {
namespace {

netlist::Netlist small_user(std::uint64_t seed) {
  genbench::CircuitSpec spec{"pipe" + std::to_string(seed), 8, 6, 4, 36, 3, 5,
                             seed};
  return genbench::generate(spec);
}

debug::OfflineOptions small_options() {
  debug::OfflineOptions options;
  options.instrument.trace_width = 6;
  return options;
}

/// Fresh per-test cache directory (removed on destruction).  ctest runs each
/// TEST as its own process, so pid-keyed paths cannot collide.
struct TempCacheDir {
  explicit TempCacheDir(const std::string& stem)
      : path("/tmp/fpgadbg_flow_" + std::to_string(::getpid()) + "_" + stem) {
    std::filesystem::remove_all(path);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path); }
  std::string path;
};

std::uint64_t stage_executions() {
  return telemetry::metrics().snapshot().counter("flow.stage.executions");
}

TEST(Pipeline, ColdRunExecutesAllStagesAndReports) {
  TempCacheDir cache("cold");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  auto result = pipeline.run(small_user(1));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result.value().stages_executed, 6u);
  EXPECT_EQ(result.value().stages_from_cache, 0u);
  ASSERT_EQ(result.value().stages.size(), 6u);
  const char* const expected[] = {"instrument", "tcon-map",    "pack",
                                  "place",      "route",       "pconf-build"};
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(result.value().stages[i].name, expected[i]);
    EXPECT_FALSE(result.value().stages[i].from_cache);
    EXPECT_NE(result.value().stages[i].key, 0u);
    EXPECT_GT(result.value().stages[i].artifact_bytes, 0u);
  }
}

TEST(Pipeline, WarmRunExecutesZeroStages) {
  TempCacheDir cache("warm");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);

  auto cold = pipeline.run(small_user(2));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  ASSERT_EQ(cold.value().stages_executed, 6u);

  const std::uint64_t executions_before = stage_executions();
  auto warm = pipeline.run(small_user(2));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  // The acceptance criterion: a warm re-run performs zero stage executions,
  // both in the report and in the global telemetry counter.
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  EXPECT_EQ(stage_executions(), executions_before);

  // Cached results are bit-identical to computed ones.
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(warm.value().stages[i].key, cold.value().stages[i].key);
    EXPECT_EQ(warm.value().stages[i].content_hash,
              cold.value().stages[i].content_hash);
  }
  ASSERT_TRUE(warm.value().offline.pconf);
  ASSERT_TRUE(cold.value().offline.pconf);
  EXPECT_EQ(warm.value().offline.pconf->num_parameterized_bits(),
            cold.value().offline.pconf->num_parameterized_bits());
  EXPECT_EQ(warm.value().offline.compiled->placement.cluster_pos,
            cold.value().offline.compiled->placement.cluster_pos);
}

/// Names of the subdirectories of a cache directory.
std::set<std::string> cache_subdirs(const std::string& dir) {
  std::set<std::string> names;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.is_directory()) names.insert(entry.path().filename().string());
  }
  return names;
}

TEST(Pipeline, CacheHoldsOnlyStageArtifacts) {
  // Derived physical state (device, rr-graph, frames, nets) is rebuilt on
  // every run, so a cold run stores the six stage artifacts and nothing
  // else.
  TempCacheDir cache("only_stages");
  auto options = small_options();
  options.cache_dir = cache.path;
  auto cold = Pipeline(options).run(small_user(12));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const std::set<std::string> expected = {"instrument", "tcon-map", "pack",
                                          "place",      "route",
                                          "pconf-build"};
  EXPECT_EQ(cache_subdirs(cache.path), expected);
  auto listed = ArtifactCache(cache.path).entries();
  ASSERT_TRUE(listed.ok()) << listed.status().to_string();
  EXPECT_EQ(listed.value().size(), 6u);
}

/// A warm replay's artifacts equal the cold run's bit for bit: placement,
/// routes (and the timing derived from them), the PConf's constant plane
/// and its function bits and refs.
void expect_same_offline(const debug::OfflineResult& warm,
                         const debug::OfflineResult& cold) {
  ASSERT_TRUE(warm.compiled && cold.compiled && warm.pconf && cold.pconf);
  EXPECT_EQ(warm.compiled->placement.cluster_pos,
            cold.compiled->placement.cluster_pos);
  EXPECT_EQ(warm.compiled->placement.io_of_cell,
            cold.compiled->placement.io_of_cell);
  EXPECT_EQ(warm.compiled->routing.routes, cold.compiled->routing.routes);
  EXPECT_EQ(warm.compiled->report.critical_path_ns,
            cold.compiled->report.critical_path_ns);
  EXPECT_EQ(warm.pconf->total_bits(), cold.pconf->total_bits());
  EXPECT_TRUE(warm.pconf->constants() == cold.pconf->constants());
  const bitstream::FunctionView got = warm.pconf->functions();
  const bitstream::FunctionView want = cold.pconf->functions();
  ASSERT_EQ(got.count, want.count);
  for (std::size_t i = 0; i < got.count; ++i) {
    EXPECT_EQ(got.bits[i], want.bits[i]) << i;
    EXPECT_EQ(got.refs[i], want.refs[i]) << i;
  }
}

/// Stores an entry where older builds kept the rr-graph beside the six
/// stages: <dir>/rr-graph/<key>, keyed on the architecture and the
/// requested CLB count.  The payload is no graph image; nothing reads it.
void store_leftover_rr_graph_entry(const std::string& dir,
                                   const debug::OfflineOptions& options,
                                   const pnr::CompiledDesign& design) {
  const std::uint64_t min_clbs = std::max<std::uint64_t>(
      4, static_cast<std::uint64_t>(
             std::ceil(static_cast<double>(design.packing.num_clusters()) *
                       options.compile.device_slack)));
  const std::uint64_t key = hash_combine(
      hash_combine(fnv1a(std::string_view("rr-graph")),
                   hash_arch_params(options.compile.arch)),
      min_clbs);
  const std::string bytes = "rr-graph entry written by an older build";
  ASSERT_TRUE(
      ArtifactCache(dir).store("rr-graph", key, fnv1a(bytes), bytes).ok());
}

TEST(Pipeline, LeftoverRRGraphEntryIsIgnoredAndSwept) {
  // A cache written in the older layout still replays every stage, and the
  // rr-graph entry it carries is an ordinary entry to the GC sweep.
  TempCacheDir cache("legacy_rr");
  auto options = small_options();
  options.cache_dir = cache.path;
  auto cold = Pipeline(options).run(small_user(13));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const pnr::CompiledDesign& c = *cold.value().offline.compiled;
  store_leftover_rr_graph_entry(cache.path, options, c);
  ASSERT_EQ(cache_subdirs(cache.path).count("rr-graph"), 1u);

  auto warm = Pipeline(options).run(small_user(13));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  expect_same_offline(warm.value().offline, cold.value().offline);

  auto swept = ArtifactCache(cache.path).gc(0);
  ASSERT_TRUE(swept.ok()) << swept.status().to_string();
  EXPECT_EQ(swept.value().scanned_entries, 7u);
  EXPECT_EQ(swept.value().removed_entries, 7u);
  EXPECT_FALSE(std::filesystem::exists(cache.path + "/rr-graph"));
}

TEST(Pipeline, PlaceOptionChangeRerunsOnlyDownstream) {
  TempCacheDir cache("inval");
  auto options = small_options();
  options.cache_dir = cache.path;
  {
    auto cold = Pipeline(options).run(small_user(3));
    ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  }

  // Changing only a place option must leave instrument/tcon-map/pack as
  // cache hits and re-execute exactly place -> route -> pconf-build.
  options.compile.place.seed += 1;
  auto rerun = Pipeline(options).run(small_user(3));
  ASSERT_TRUE(rerun.ok()) << rerun.status().to_string();
  EXPECT_EQ(rerun.value().stages_from_cache, 3u);
  EXPECT_EQ(rerun.value().stages_executed, 3u);
  ASSERT_EQ(rerun.value().stages.size(), 6u);
  EXPECT_TRUE(rerun.value().stages[0].from_cache);   // instrument
  EXPECT_TRUE(rerun.value().stages[1].from_cache);   // tcon-map
  EXPECT_TRUE(rerun.value().stages[2].from_cache);   // pack
  EXPECT_FALSE(rerun.value().stages[3].from_cache);  // place
  EXPECT_FALSE(rerun.value().stages[4].from_cache);  // route
  EXPECT_FALSE(rerun.value().stages[5].from_cache);  // pconf-build
}

TEST(Pipeline, InputChangeInvalidatesEverything) {
  TempCacheDir cache("input");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  ASSERT_TRUE(pipeline.run(small_user(4)).ok());
  auto other = pipeline.run(small_user(5));  // different circuit
  ASSERT_TRUE(other.ok()) << other.status().to_string();
  EXPECT_EQ(other.value().stages_executed, 6u);
  EXPECT_EQ(other.value().stages_from_cache, 0u);
}

TEST(Pipeline, BadOptionsComeBackAsStatusNotThrow) {
  auto options = small_options();
  options.instrument.trace_width = 0;  // rejected inside the instrument stage
  auto result = Pipeline(options).run(small_user(6));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().stage(), "instrument");
  EXPECT_FALSE(result.status().message().empty());
}

TEST(Pipeline, MalformedBlifPropagatesAsStatus) {
  // End-to-end error path without a single throw: parse failure surfaces as
  // a Status from try_read_blif; a (hypothetical) caller simply cannot reach
  // Pipeline::run without a netlist value.
  std::istringstream bad(".model m\n.inputs a\n.outputs y\n.names a y\nzz\n");
  auto parsed = netlist::try_read_blif(bad, "bad.blif");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), support::StatusCode::kParseError);
  EXPECT_EQ(parsed.status().file(), "bad.blif");
  EXPECT_GT(parsed.status().line(), 0);
}

TEST(Pipeline, CorruptCacheEntryIsReportedWithStage) {
  TempCacheDir cache("corrupt");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  ASSERT_TRUE(pipeline.run(small_user(7)).ok());

  // Bit-flip every tcon-map entry; the warm run must fail integrity
  // verification instead of deserializing garbage.
  for (const auto& entry :
       std::filesystem::directory_iterator(cache.path + "/tcon-map")) {
    std::fstream f(entry.path(),
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(24);
    const int byte = f.get();
    f.seekp(24);
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  auto warm = pipeline.run(small_user(7));
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_EQ(warm.status().stage(), "tcon-map");
}

TEST(Pipeline, MappingOnlyFlowCachesTwoStages) {
  TempCacheDir cache("maponly");
  auto options = small_options();
  options.cache_dir = cache.path;
  options.run_pnr = false;
  Pipeline pipeline(options);
  auto cold = pipeline.run(small_user(8));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  EXPECT_EQ(cold.value().stages_executed, 2u);
  auto warm = pipeline.run(small_user(8));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 2u);
  EXPECT_FALSE(warm.value().offline.compiled);
}

/// Intact bytes in the previous tcon-map and pconf-build encoding: its
/// magic, then zeros.
std::string previous_encoding_bytes() {
  return std::string("FDBGBLB1") + std::string(56, '\0');
}

TEST(Pipeline, OlderFormatEntriesAreNeverRead) {
  // The artifact format version is part of every stage key, so an entry an
  // older build wrote sits under a key this build never looks up.  Plant
  // an entry with the previous tcon-map encoding's magic at that format's
  // key (it had no version, and the instrument encoding is unchanged, so
  // the key is computable): the warm run replays all six stages without
  // reading it, bit for bit, and the GC sweep removes it with the rest.
  TempCacheDir cache("older_format");
  auto options = small_options();
  options.cache_dir = cache.path;
  auto cold = Pipeline(options).run(small_user(9));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const std::uint64_t old_key = hash_combine(
      hash_combine(fnv1a(std::string_view("tcon-map")),
                   cold.value().stages[0].content_hash),
      hash_map_options(options.lut_size, options.max_param_leaves));
  ASSERT_NE(old_key, cold.value().stages[1].key);
  const std::string bytes = previous_encoding_bytes();
  ASSERT_TRUE(ArtifactCache(cache.path)
                  .store("tcon-map", old_key, fnv1a(bytes), bytes)
                  .ok());

  auto warm = Pipeline(options).run(small_user(9));
  ASSERT_TRUE(warm.ok()) << warm.status().to_string();
  EXPECT_EQ(warm.value().stages_executed, 0u);
  EXPECT_EQ(warm.value().stages_from_cache, 6u);
  expect_same_offline(warm.value().offline, cold.value().offline);

  auto swept = ArtifactCache(cache.path).gc(0);
  ASSERT_TRUE(swept.ok()) << swept.status().to_string();
  EXPECT_EQ(swept.value().removed_entries, 7u);
}

TEST(Pipeline, WarmReplayIsBitIdenticalToColdRun) {
  // Two independent caches of one design: the cold runs encode the same
  // bytes for every stage, and each warm replay loads artifacts equal to
  // the first cold run's bit for bit.
  TempCacheDir cache_a("replay_a");
  TempCacheDir cache_b("replay_b");
  auto opt_a = small_options();
  opt_a.cache_dir = cache_a.path;
  auto opt_b = small_options();
  opt_b.cache_dir = cache_b.path;

  auto cold_a = Pipeline(opt_a).run(small_user(10));
  auto cold_b = Pipeline(opt_b).run(small_user(10));
  auto warm_a = Pipeline(opt_a).run(small_user(10));
  auto warm_b = Pipeline(opt_b).run(small_user(10));
  for (auto* r : {&cold_a, &cold_b, &warm_a, &warm_b}) {
    ASSERT_TRUE(r->ok()) << r->status().to_string();
  }
  EXPECT_EQ(warm_a.value().stages_from_cache, 6u);
  EXPECT_EQ(warm_b.value().stages_from_cache, 6u);
  for (auto* r : {&cold_b, &warm_a, &warm_b}) {
    ASSERT_EQ(r->value().stages.size(), 6u);
    for (std::size_t i = 0; i < 6; ++i) {
      EXPECT_EQ(r->value().stages[i].content_hash,
                cold_a.value().stages[i].content_hash)
          << cold_a.value().stages[i].name;
    }
    expect_same_offline(r->value().offline, cold_a.value().offline);
  }
}

/// Overwrites the cold run's entry for stages[stage] with intact bytes in
/// the previous encoding.  Older builds' entries sit under keys of older
/// format versions, so an entry this build cannot decode at a current key
/// is damage: the warm run must fail as a corrupt artifact tagged with the
/// stage, not rebuild it.
void expect_undecodable_entry_is_corrupt(std::size_t stage,
                                         const std::string& stem,
                                         std::uint64_t seed) {
  TempCacheDir cache(stem);
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  auto cold = pipeline.run(small_user(seed));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const StageReport& entry = cold.value().stages[stage];

  const std::string bytes = previous_encoding_bytes();
  ASSERT_TRUE(ArtifactCache(cache.path)
                  .store(entry.name, entry.key, fnv1a(bytes), bytes)
                  .ok());
  auto warm = pipeline.run(small_user(seed));
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_EQ(warm.status().stage(), entry.name);
}

TEST(Pipeline, UndecodableTconMapEntryIsCorruptWithStage) {
  expect_undecodable_entry_is_corrupt(1, "undecodable_map", 9);
}

TEST(Pipeline, UndecodablePconfEntryIsCorruptWithStage) {
  expect_undecodable_entry_is_corrupt(5, "undecodable_pconf", 11);
}

TEST(Pipeline, ForgedLengthPrefixIsCorruptNotAThrow) {
  // A route entry with a valid payload hash whose first route claims
  // 2^62 + 1 nodes.  Times four bytes per node that count wraps to 4, so a
  // multiplying bounds check passes and the allocation throws; the load
  // must fail as a corrupt artifact tagged with the stage instead.
  TempCacheDir cache("forged_length");
  auto options = small_options();
  options.cache_dir = cache.path;
  Pipeline pipeline(options);
  auto cold = pipeline.run(small_user(14));
  ASSERT_TRUE(cold.ok()) << cold.status().to_string();
  const pnr::RouteResult& routing = cold.value().offline.compiled->routing;
  ASSERT_FALSE(routing.routes.empty());
  const StageReport& route = cold.value().stages[4];
  ByteWriter w;
  serialize_route_result(routing, w);
  std::string bytes = w.take();
  ASSERT_EQ(fnv1a(bytes), route.content_hash);
  // success (1 byte), iterations (4), route count (8), then the first
  // route's length prefix.
  const std::uint64_t forged = (std::uint64_t{1} << 62) + 1;
  std::memcpy(bytes.data() + 13, &forged, sizeof forged);
  ASSERT_TRUE(ArtifactCache(cache.path)
                  .store("route", route.key, fnv1a(bytes), bytes)
                  .ok());

  auto warm = pipeline.run(small_user(14));
  ASSERT_FALSE(warm.ok());
  EXPECT_EQ(warm.status().code(), support::StatusCode::kCorruptArtifact);
  EXPECT_EQ(warm.status().stage(), "route");
}

TEST(ArtifactCache, DisabledCacheAlwaysMisses) {
  ArtifactCache cache;
  EXPECT_FALSE(cache.enabled());
  auto load = cache.load("instrument", 42);
  ASSERT_TRUE(load.ok());
  EXPECT_FALSE(load.value().has_value());
  EXPECT_TRUE(cache.store("instrument", 42, 0, "bytes").ok());
  EXPECT_FALSE(cache.load("instrument", 42).value().has_value());
}

TEST(ArtifactCache, StoreThenLoadRoundTrips) {
  TempCacheDir dir("cachedir");
  ArtifactCache cache(dir.path);
  const std::string bytes = "artifact payload";
  ASSERT_TRUE(cache.store("place", 7, fnv1a(bytes), bytes).ok());
  auto load = cache.load("place", 7);
  ASSERT_TRUE(load.ok()) << load.status().to_string();
  ASSERT_TRUE(load.value().has_value());
  EXPECT_EQ(load.value()->payload, bytes);
  EXPECT_EQ(load.value()->content_hash, fnv1a(bytes));
  EXPECT_NE(load.value()->backing, nullptr);  // the payload's mapping
  // A different key misses; a wrong-hash store is caught on load.
  EXPECT_FALSE(cache.load("place", 8).value().has_value());
  ASSERT_TRUE(cache.store("place", 9, 0xdeadbeef, bytes).ok());
  auto corrupt = cache.load("place", 9);
  ASSERT_FALSE(corrupt.ok());
  EXPECT_EQ(corrupt.status().code(), support::StatusCode::kCorruptArtifact);
}

}  // namespace
}  // namespace fpgadbg::flow
