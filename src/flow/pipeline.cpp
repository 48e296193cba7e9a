#include "flow/pipeline.h"

#include <exception>
#include <optional>
#include <utility>

#include "bitstream/builder.h"
#include "flow/artifacts.h"
#include "map/mappers.h"
#include "pnr/pack.h"
#include "pnr/place.h"
#include "pnr/route.h"
#include "support/log.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace fpgadbg::flow {

namespace {

using support::Result;
using support::Status;

std::uint64_t stage_key(const char* name, std::uint64_t input_hash,
                        std::uint64_t options_hash) {
  const std::uint64_t stage = hash_combine(fnv1a(std::string_view(name)),
                                           kArtifactFormatVersion);
  return hash_combine(hash_combine(stage, input_hash), options_hash);
}

/// Converts a legacy CAD-library exception escaping a stage into a Status.
Status status_from_exception(const char* stage) {
  return support::status_from_current_exception().with_stage(stage);
}

/// Book-keeping shared by every run_stage instantiation.
struct StageContext {
  const ArtifactCache& cache;
  telemetry::MetricsRegistry& metrics;
  std::vector<StageReport>& reports;
  std::size_t& executed;
  std::size_t& from_cache;
};

/// Runs one cached stage: cache lookup, deserialize on hit, execute +
/// serialize + store on miss.  `exec` computes the artifact (may throw the
/// legacy exceptions), `ser(value, writer)` serializes it and
/// `deser(reader)` is its inverse.  The hit's content hash was already
/// verified against the payload by the cache, so it is reused for
/// downstream key chaining without re-hashing.  On success
/// *content_hash_out carries the artifact's content hash.
template <typename T, typename Exec, typename Ser, typename Deser>
Result<T> run_stage(StageContext& ctx, const char* name, std::uint64_t key,
                    std::uint64_t* content_hash_out, Exec exec, Ser ser,
                    Deser deser) {
  Stopwatch timer;
  auto finish = [&](bool hit, std::uint64_t hash, std::size_t bytes) {
    ctx.reports.push_back(StageReport{name, hit, key, hash, timer.elapsed_seconds(),
                                      bytes});
    if (hit) {
      ++ctx.from_cache;
    } else {
      ++ctx.executed;
    }
    *content_hash_out = hash;
  };

  auto loaded = ctx.cache.load(name, key);
  if (!loaded.ok()) {
    return Status(loaded.status()).with_stage(name);
  }
  if (loaded.value().has_value()) {
    const CacheHit& hit = *loaded.value();
    ByteReader reader(hit.payload);
    Result<T> value = deser(reader);
    if (!value.ok()) {
      return Status(value.status()).with_stage(name, hit.content_hash);
    }
    finish(/*hit=*/true, hit.content_hash, hit.payload.size());
    return value;
  }

  std::optional<T> value;
  try {
    value.emplace(exec());
  } catch (...) {
    return status_from_exception(name);
  }
  ctx.metrics.counter("flow.stage.executions").add();

  ByteWriter w;
  ser(*value, w);
  const std::uint64_t hash = w.content_hash();
  Status stored = ctx.cache.store(name, key, hash, w.bytes());
  if (!stored.ok()) return stored.with_stage(name, hash);
  finish(/*hit=*/false, hash, w.bytes().size());
  return *std::move(value);
}

}  // namespace

const char* stage_name(StageId id) {
  switch (id) {
    case StageId::kInstrument: return "instrument";
    case StageId::kTconMap: return "tcon-map";
    case StageId::kPack: return "pack";
    case StageId::kPlace: return "place";
    case StageId::kRoute: return "route";
    case StageId::kPconfBuild: return "pconf-build";
  }
  return "unknown";
}

Pipeline::Pipeline(debug::OfflineOptions options)
    : options_(std::move(options)),
      cache_(options_.cache_dir) {}

Result<PipelineResult> Pipeline::run(const netlist::Netlist& user) const {
  telemetry::MetricsRegistry& m = telemetry::metrics();
  telemetry::TraceScope offline_span("debug.offline");
  PipelineResult result;
  StageContext ctx{cache_, m, result.stages, result.stages_executed,
                   result.stages_from_cache};
  debug::OfflineResult& offline = result.offline;
  Stopwatch total;
  Stopwatch stage;

  // Live progress: one unit per stage, the current stage name in both the
  // /statusz marker and a /progressz note, and running cache hit/miss
  // telemetry so a scrape shows whether the run is recomputing or replaying.
  telemetry::ProgressReporter progress("flow.pipeline");
  progress.set_total(options_.run_pnr ? 6 : 2);
  // Join key against the trace/journal/logs: the offline span's trace id
  // (0 when neither --trace nor the span ring is active).
  if (const auto tctx = telemetry::current_trace_context(); tctx.active()) {
    progress.field("trace_id", static_cast<double>(tctx.trace_id));
  }
  std::uint64_t stages_done = 0;
  auto begin_stage = [&](const char* name) {
    telemetry::set_current_stage(name);
    progress.note("stage", name);
  };
  auto end_stage = [&] {
    progress.advance(++stages_done);
    progress.field("cache_hits", static_cast<double>(result.stages_from_cache));
    progress.field("cache_misses", static_cast<double>(result.stages_executed));
  };
  // Clear the /statusz marker on every exit path, including error returns.
  struct StageMarkerReset {
    ~StageMarkerReset() { telemetry::set_current_stage(""); }
  } stage_marker_reset;

  const std::uint64_t user_hash = netlist_content_hash(user);

  // --- instrument ----------------------------------------------------------
  std::uint64_t instrument_hash = 0;
  begin_stage("instrument");
  {
    telemetry::TraceScope span("offline.instrument");
    const std::uint64_t key =
        stage_key("instrument", user_hash,
                  hash_instrument_options(options_.instrument));
    FPGADBG_ASSIGN_OR_RETURN(
        offline.instrumented,
        run_stage<debug::Instrumented>(
            ctx, "instrument", key, &instrument_hash,
            [&] { return parameterize_signals(user, options_.instrument); },
            serialize_instrumented, deserialize_instrumented));
  }
  end_stage();
  offline.instrument_seconds =
      m.histogram("offline.instrument_seconds").observe(stage.elapsed_seconds());
  m.counter("instrument.observable_signals")
      .add(offline.instrumented.num_observable());
  m.counter("instrument.lanes").add(offline.instrumented.lane_signals.size());
  m.counter("instrument.parameters")
      .add(offline.instrumented.netlist.params().size());
  LOG_INFO << "offline: instrumented " << offline.instrumented.num_observable()
           << " signals over " << offline.instrumented.lane_signals.size()
           << " lanes, " << offline.instrumented.netlist.params().size()
           << " parameters";

  // --- tcon-map ------------------------------------------------------------
  std::uint64_t map_hash = 0;
  stage.restart();
  begin_stage("tcon-map");
  {
    telemetry::TraceScope span("offline.map");
    const std::uint64_t key =
        stage_key("tcon-map", instrument_hash,
                  hash_map_options(options_.lut_size, options_.max_param_leaves));
    FPGADBG_ASSIGN_OR_RETURN(
        offline.mapping,
        run_stage<map::MapResult>(
            ctx, "tcon-map", key, &map_hash,
            [&] {
              return map::tcon_map(offline.instrumented.netlist,
                                   options_.lut_size,
                                   options_.max_param_leaves);
            },
            serialize_map_result, deserialize_map_result));
  }
  end_stage();
  offline.map_seconds =
      m.histogram("offline.map_seconds").observe(stage.elapsed_seconds());
  LOG_INFO << "offline: mapped to " << offline.mapping.stats.num_luts
           << " LUTs + " << offline.mapping.stats.num_tluts << " TLUTs + "
           << offline.mapping.stats.num_tcons << " TCONs, depth "
           << offline.mapping.stats.depth;

  if (options_.run_pnr) {
    const pnr::CompileOptions& copt = options_.compile;
    auto design = std::make_unique<pnr::CompiledDesign>();
    design->netlist = offline.mapping.netlist;
    const map::MappedNetlist& net = design->netlist;

    std::optional<telemetry::TraceScope> pnr_span;
    pnr_span.emplace("offline.pnr");
    Stopwatch pnr_timer;

    // --- pack --------------------------------------------------------------
    std::uint64_t pack_hash = 0;
    stage.restart();
    begin_stage("pack");
    {
      telemetry::TraceScope span("pnr.pack");
      const std::uint64_t key =
          stage_key("pack", map_hash, hash_arch_params(copt.arch));
      FPGADBG_ASSIGN_OR_RETURN(
          design->packing,
          run_stage<pnr::Packing>(
              ctx, "pack", key, &pack_hash,
              [&] { return pnr::pack(net, copt.arch); },
              serialize_packing, deserialize_packing));
    }
    end_stage();
    design->report.pack_seconds =
        m.histogram("pnr.pack_seconds").observe(stage.elapsed_seconds());

    // Derived physical state: a deterministic function of the packing and
    // the options, rebuilt on every run rather than cached.
    try {
      pnr::derive_physical(*design, offline.instrumented.trace_outputs, copt);
    } catch (...) {
      return status_from_exception("pack");
    }

    // place/route consume the device and net extraction too; both derive
    // from (instrument, tcon-map, pack) artifacts plus options, so chaining
    // those three content hashes covers every input.
    const std::uint64_t physical_hash =
        hash_combine(hash_combine(instrument_hash, map_hash), pack_hash);

    // --- place -------------------------------------------------------------
    std::uint64_t place_hash = 0;
    stage.restart();
    begin_stage("place");
    {
      telemetry::TraceScope span("pnr.place");
      const std::uint64_t key =
          stage_key("place", physical_hash, hash_place_options(copt));
      FPGADBG_ASSIGN_OR_RETURN(
          design->placement,
          run_stage<pnr::Placement>(
              ctx, "place", key, &place_hash,
              [&] {
                return pnr::place(net, design->packing, design->nets,
                                  *design->device, copt.place, copt.timing);
              },
              serialize_placement, deserialize_placement));
    }
    end_stage();
    design->report.place_seconds =
        m.histogram("pnr.place_seconds").observe(stage.elapsed_seconds());

    // --- route -------------------------------------------------------------
    std::uint64_t route_hash = 0;
    stage.restart();
    begin_stage("route");
    {
      telemetry::TraceScope span("pnr.route");
      const std::uint64_t key =
          stage_key("route", hash_combine(physical_hash, place_hash),
                    hash_route_options(copt));
      FPGADBG_ASSIGN_OR_RETURN(
          design->routing,
          run_stage<pnr::RouteResult>(
              ctx, "route", key, &route_hash,
              [&] {
                return pnr::route(*design->rr, net, design->packing,
                                  design->nets, design->placement, copt.route,
                                  copt.timing);
              },
              serialize_route_result, deserialize_route_result));
    }
    end_stage();
    design->report.route_seconds =
        m.histogram("pnr.route_seconds").observe(stage.elapsed_seconds());

    // Routed-fidelity STA runs on cache hits too: the route artifact stores
    // routes, not timing, and the analysis is far cheaper than a replay.
    try {
      pnr::fill_report(*design, copt.timing);
    } catch (...) {
      return status_from_exception("route");
    }
    design->report.total_seconds = pnr_timer.elapsed_seconds();
    offline.compiled = std::move(design);

    pnr_span.reset();
    offline.pnr_seconds =
        m.histogram("offline.pnr_seconds").observe(pnr_timer.elapsed_seconds());

    // --- pconf-build -------------------------------------------------------
    std::uint64_t pconf_hash = 0;
    stage.restart();
    begin_stage("pconf-build");
    {
      telemetry::TraceScope span("offline.bitstream");
      // Timing options join the key even though place/route CONTENT hashes
      // are chained: a timing-knob edit must invalidate this stage
      // deterministically, not only when the optimizers' outputs changed.
      const std::uint64_t key = stage_key(
          "pconf-build",
          hash_combine(hash_combine(physical_hash, place_hash), route_hash),
          hash_combine(hash_device_options(copt),
                       hash_timing_options(copt.timing)));
      FPGADBG_ASSIGN_OR_RETURN(
          PconfArtifact artifact,
          run_stage<PconfArtifact>(
              ctx, "pconf-build", key, &pconf_hash,
              [&] {
                bitstream::PconfBuildStats stats;
                bitstream::PConf pconf =
                    bitstream::build_pconf(*offline.compiled, &stats);
                return PconfArtifact{std::move(pconf), stats};
              },
              serialize_pconf, deserialize_pconf));
      offline.pconf =
          std::make_unique<bitstream::PConf>(std::move(artifact.pconf));
      offline.pconf_stats = artifact.stats;
      // Index for the incremental SCG belongs to the offline budget; it is
      // derived state, so it is rebuilt on cache hits too.
      telemetry::TraceScope index_span("bitstream.scg_index");
      Stopwatch index_timer;
      offline.pconf->prepare_incremental();
      m.histogram("bitstream.scg_index_seconds")
          .observe(index_timer.elapsed_seconds());
    }
    end_stage();
    offline.bitstream_seconds =
        m.histogram("offline.bitstream_seconds").observe(stage.elapsed_seconds());
    LOG_INFO << "offline: generalized bitstream has "
             << offline.pconf->num_parameterized_bits()
             << " parameterized bits across "
             << offline.pconf->parameterized_frames().size() << " frames";
  }

  offline.total_seconds =
      m.histogram("offline.total_seconds").observe(total.elapsed_seconds());
  return result;
}

}  // namespace fpgadbg::flow
