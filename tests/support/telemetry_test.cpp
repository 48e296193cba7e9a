// Unit tests for the telemetry subsystem: metrics registry (thread safety,
// histogram percentiles, snapshot/reset, JSON export) and the scoped-span
// tracer (nesting, thread attribution, Chrome-trace format).
#include "support/telemetry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <thread>
#include <vector>

#include "testutil/json_lite.h"

namespace fpgadbg {
namespace {

using telemetry::metrics;
using telemetry::TraceScope;
using testutil::JsonValue;
using testutil::parse_json;

/// Runs fn(i) for every i in [0, jobs) on four threads (job i on thread
/// i % 4) and joins them.
template <typename Fn>
void run_on_threads(std::size_t jobs, const Fn& fn) {
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&fn, jobs, t] {
      for (std::size_t i = t; i < jobs; i += kThreads) fn(i);
    });
  }
  for (std::thread& th : threads) th.join();
}

TEST(Metrics, CounterConcurrentIncrements) {
  telemetry::Counter& c = metrics().counter("test.concurrent_counter");
  c.reset();
  constexpr std::size_t kJobs = 64;
  constexpr std::size_t kPerJob = 1000;
  run_on_threads(kJobs, [&](std::size_t) {
    for (std::size_t i = 0; i < kPerJob; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), kJobs * kPerJob);
}

TEST(Metrics, SameNameSameInstrument) {
  telemetry::Counter& a = metrics().counter("test.same_name");
  telemetry::Counter& b = metrics().counter("test.same_name");
  EXPECT_EQ(&a, &b);
}

TEST(Metrics, GaugeLastValueWins) {
  telemetry::Gauge& g = metrics().gauge("test.gauge");
  g.set(3.5);
  g.set(-2.0);
  EXPECT_DOUBLE_EQ(g.value(), -2.0);
}

TEST(Metrics, HistogramExactMoments) {
  telemetry::Histogram& h = metrics().histogram("test.hist_moments");
  h.reset();
  double expect_sum = 0.0;
  for (int i = 1; i <= 1000; ++i) {
    EXPECT_DOUBLE_EQ(h.observe(i), static_cast<double>(i));  // returns value
    expect_sum += i;
  }
  const auto s = h.summary();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.sum, expect_sum);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Metrics, HistogramPercentilesApproximate) {
  telemetry::Histogram& h = metrics().histogram("test.hist_pct");
  h.reset();
  for (int i = 1; i <= 1000; ++i) h.observe(i);
  const auto s = h.summary();
  // Log buckets are ~9% wide: percentiles land near the true order
  // statistics, never outside a generous band.
  EXPECT_GE(s.p50, 400.0);
  EXPECT_LE(s.p50, 600.0);
  EXPECT_GE(s.p90, 800.0);
  EXPECT_LE(s.p90, 1000.0);
  EXPECT_GE(s.p99, 900.0);
  EXPECT_LE(s.p99, 1000.0);
  EXPECT_LE(s.p50, s.p90);
  EXPECT_LE(s.p90, s.p99);
}

TEST(Metrics, HistogramConcurrentObserve) {
  telemetry::Histogram& h = metrics().histogram("test.hist_mt");
  h.reset();
  run_on_threads(32, [&](std::size_t) {
    for (int i = 0; i < 500; ++i) h.observe(1.0);
  });
  const auto s = h.summary();
  EXPECT_EQ(s.count, 32u * 500u);
  EXPECT_DOUBLE_EQ(s.sum, 32.0 * 500.0);
}

TEST(Metrics, SnapshotAndReset) {
  metrics().counter("test.reset_counter").add(7);
  metrics().gauge("test.reset_gauge").set(1.25);
  metrics().histogram("test.reset_hist").observe(2.0);

  auto snap = metrics().snapshot();
  EXPECT_EQ(snap.counter("test.reset_counter"), 7u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.reset_gauge"), 1.25);
  EXPECT_EQ(snap.histogram("test.reset_hist").count, 1u);
  // Absent names yield zero-value defaults, not crashes.
  EXPECT_EQ(snap.counter("test.definitely_absent"), 0u);
  EXPECT_EQ(snap.histogram("test.definitely_absent").count, 0u);

  metrics().reset();
  snap = metrics().snapshot();
  // Registrations survive a reset; values are zeroed.
  EXPECT_EQ(snap.counter("test.reset_counter"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge("test.reset_gauge"), 0.0);
  EXPECT_EQ(snap.histogram("test.reset_hist").count, 0u);
  const auto names_has = [&](const std::string& name) {
    return std::any_of(snap.counters.begin(), snap.counters.end(),
                       [&](const auto& kv) { return kv.first == name; });
  };
  EXPECT_TRUE(names_has("test.reset_counter"));
}

TEST(Metrics, SnapshotSorted) {
  metrics().counter("test.zz_last");
  metrics().counter("test.aa_first");
  const auto snap = metrics().snapshot();
  EXPECT_TRUE(std::is_sorted(
      snap.counters.begin(), snap.counters.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; }));
}

TEST(Metrics, JsonExportParses) {
  metrics().counter("test.json_counter").add(42);
  metrics().gauge("test.json_gauge").set(0.5);
  metrics().histogram("test.json_hist").observe(1e-6);

  std::ostringstream os;
  metrics().write_json(os);
  const JsonValue doc = parse_json(os.str());
  ASSERT_TRUE(doc.is_object());
  const JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  const JsonValue* c = counters->find("test.json_counter");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->number, 42.0);
  const JsonValue* h = doc.find("histograms");
  ASSERT_NE(h, nullptr);
  const JsonValue* hist = h->find("test.json_hist");
  ASSERT_NE(hist, nullptr);
  ASSERT_NE(hist->find("p99"), nullptr);
  EXPECT_EQ(hist->find("count")->number, 1.0);
}

TEST(Metrics, PrometheusExposition) {
  metrics().counter("test.prom_counter").add(7);
  metrics().gauge("test.prom-gauge").set(2.5);
  auto& h = metrics().histogram("test.prom_hist");
  for (int i = 0; i < 10; ++i) h.observe(1e-3);

  std::ostringstream os;
  metrics().write_prometheus(os);
  const std::string text = os.str();
  // Counters: fpgadbg_ prefix, '.'/'-' mapped to '_', _total suffix.
  EXPECT_NE(text.find("# TYPE fpgadbg_test_prom_counter_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_counter_total 7"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE fpgadbg_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_gauge 2.5"), std::string::npos);
  // Histograms export as summaries with quantile labels + _sum/_count.
  EXPECT_NE(text.find("# TYPE fpgadbg_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_hist{quantile=\"0.99\"}"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_hist_count 10"), std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_hist_sum"), std::string::npos);
  // Every non-comment line is "name[{labels}] value".
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    EXPECT_EQ(line.rfind("fpgadbg_", 0), 0u) << line;
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(Metrics, GaugeSetMaxKeepsHighWaterMark) {
  telemetry::Gauge& g = metrics().gauge("test.gauge_max");
  g.reset();
  g.set_max(3.0);
  g.set_max(1.0);  // lower sample must not regress the mark
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
  g.set_max(7.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  // Racing writers must converge on the maximum.
  run_on_threads(64, [&](std::size_t i) {
    g.set_max(static_cast<double>(i));
  });
  EXPECT_DOUBLE_EQ(g.value(), 63.0);
}

TEST(Metrics, SeriesKeepsOrder) {
  telemetry::Series& s = metrics().series("test.series_order");
  s.reset();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_DOUBLE_EQ(s.last(), 0.0);
  for (int i = 5; i >= 1; --i) s.append(i);
  EXPECT_EQ(s.size(), 5u);
  EXPECT_DOUBLE_EQ(s.last(), 1.0);
  const std::vector<double> v = s.values();
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v.front(), 5.0);  // order preserved, not sorted
  EXPECT_DOUBLE_EQ(v.back(), 1.0);

  const auto snap = metrics().snapshot();
  const std::vector<double> from_snap = snap.series_of("test.series_order");
  EXPECT_EQ(from_snap, v);
  EXPECT_TRUE(snap.series_of("test.absent_series").empty());
}

TEST(Metrics, SeriesJsonExport) {
  metrics().series("test.series_json").reset();
  metrics().series("test.series_json").append(2.0);
  metrics().series("test.series_json").append(1.0);
  std::ostringstream os;
  metrics().write_json(os);
  const JsonValue doc = parse_json(os.str());
  const JsonValue* series = doc.find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_object());
  const JsonValue* v = series->find("test.series_json");
  ASSERT_NE(v, nullptr);
  ASSERT_TRUE(v->is_array());
  ASSERT_EQ(v->array.size(), 2u);
  EXPECT_DOUBLE_EQ(v->array[0].number, 2.0);
  EXPECT_DOUBLE_EQ(v->array[1].number, 1.0);
}

TEST(Metrics, PrometheusEmptyHistogramOmitsQuantiles) {
  auto& h = metrics().histogram("test.prom_empty_hist");
  h.reset();
  std::ostringstream os;
  metrics().write_prometheus(os);
  const std::string text = os.str();
  // An empty summary has no meaningful quantiles; exporting 0-valued ones
  // would poison Prometheus dashboards.  _count/_sum stay, as zeros.
  EXPECT_EQ(text.find("fpgadbg_test_prom_empty_hist{quantile"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_empty_hist_count 0"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_empty_hist_sum 0"),
            std::string::npos);
}

TEST(Metrics, PrometheusSeriesExportsLastValue) {
  telemetry::Series& s = metrics().series("test.prom_series");
  s.reset();
  s.append(9.0);
  s.append(4.0);
  std::ostringstream os;
  metrics().write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE fpgadbg_test_prom_series gauge"),
            std::string::npos);
  EXPECT_NE(text.find("fpgadbg_test_prom_series 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

const telemetry::ProgressSnapshot* find_task(
    const std::vector<telemetry::ProgressSnapshot>& tasks,
    const std::string& name) {
  for (const auto& t : tasks) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

TEST(Progress, ReporterLifecycle) {
  {
    telemetry::ProgressReporter r("test.progress_lifecycle");
    r.set_total(10);
    r.advance(3);
    r.field("overused", 42.0);
    r.note("stage", "route");

    const auto live = telemetry::progress_snapshot();
    const auto* t = find_task(live, "test.progress_lifecycle");
    ASSERT_NE(t, nullptr);
    EXPECT_FALSE(t->done);
    EXPECT_EQ(t->units_done, 3u);
    EXPECT_EQ(t->units_total, 10u);
    ASSERT_EQ(t->fields.size(), 1u);
    EXPECT_EQ(t->fields[0].first, "overused");
    EXPECT_DOUBLE_EQ(t->fields[0].second, 42.0);
    ASSERT_EQ(t->notes.size(), 1u);
    EXPECT_EQ(t->notes[0].second, "route");
  }
  // Destruction retires the task into the recently-finished list, with its
  // final counters and a frozen elapsed time.
  const auto after = telemetry::progress_snapshot();
  const auto* t = find_task(after, "test.progress_lifecycle");
  ASSERT_NE(t, nullptr);
  EXPECT_TRUE(t->done);
  EXPECT_EQ(t->units_done, 3u);
  EXPECT_GE(t->elapsed_seconds, 0.0);
}

TEST(Progress, JsonDocumentParses) {
  telemetry::ProgressReporter r("test.progress_json");
  r.set_total(4);
  r.advance(2);
  r.field("throughput", 123.5);
  std::ostringstream os;
  telemetry::write_progress_json(os);
  const JsonValue doc = parse_json(os.str());
  const JsonValue* tasks = doc.find("tasks");
  ASSERT_NE(tasks, nullptr);
  ASSERT_TRUE(tasks->is_array());
  const JsonValue* mine = nullptr;
  for (const JsonValue& t : tasks->array) {
    if (t.find("name") && t.find("name")->str == "test.progress_json") {
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_DOUBLE_EQ(mine->find("units_done")->number, 2.0);
  EXPECT_DOUBLE_EQ(mine->find("units_total")->number, 4.0);
  const JsonValue* fields = mine->find("fields");
  ASSERT_NE(fields, nullptr);
  ASSERT_NE(fields->find("throughput"), nullptr);
  EXPECT_DOUBLE_EQ(fields->find("throughput")->number, 123.5);
}

TEST(Progress, CurrentStageMarker) {
  EXPECT_STREQ(telemetry::current_stage(), "");
  telemetry::set_current_stage("route");
  EXPECT_STREQ(telemetry::current_stage(), "route");
  telemetry::set_current_stage(nullptr);  // nullptr means idle, like ""
  EXPECT_STREQ(telemetry::current_stage(), "");
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

std::string exported_trace() {
  std::ostringstream os;
  telemetry::write_chrome_trace(os);
  return os.str();
}

TEST(Trace, DisabledProducesNoEvents) {
  telemetry::stop_tracing();
  telemetry::clear_trace();
  {
    TraceScope span("trace_test.disabled");
  }
  EXPECT_EQ(telemetry::trace_event_count(), 0u);
}

TEST(Trace, NestedSpansExportAsChromeTrace) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  {
    TraceScope outer("trace_test.outer", "test");
    {
      TraceScope inner("trace_test.inner", "test");
    }
  }
  telemetry::stop_tracing();
  EXPECT_EQ(telemetry::trace_event_count(), 2u);

  const JsonValue doc = parse_json(exported_trace());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  ASSERT_EQ(events->array.size(), 2u);

  const JsonValue* outer = nullptr;
  const JsonValue* inner = nullptr;
  for (const JsonValue& e : events->array) {
    ASSERT_TRUE(e.is_object());
    // Chrome-trace complete events: all required keys present.
    for (const char* key : {"name", "cat", "ph", "ts", "dur", "pid", "tid"}) {
      ASSERT_NE(e.find(key), nullptr) << "missing key " << key;
    }
    EXPECT_EQ(e.find("ph")->str, "X");
    EXPECT_EQ(e.find("cat")->str, "test");
    if (e.find("name")->str == "trace_test.outer") outer = &e;
    if (e.find("name")->str == "trace_test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // Same thread, and the inner span nests inside the outer one.
  EXPECT_EQ(outer->find("tid")->number, inner->find("tid")->number);
  const double o_ts = outer->find("ts")->number;
  const double o_end = o_ts + outer->find("dur")->number;
  const double i_ts = inner->find("ts")->number;
  const double i_end = i_ts + inner->find("dur")->number;
  EXPECT_GE(i_ts, o_ts);
  EXPECT_LE(i_end, o_end + 1e-9);
}

TEST(Trace, ThreadAttribution) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  {
    TraceScope main_span("trace_test.main_thread");
  }
  std::thread t([] {
    TraceScope worker_span("trace_test.worker_thread");
  });
  t.join();
  telemetry::stop_tracing();

  const JsonValue doc = parse_json(exported_trace());
  const JsonValue* events = doc.find("traceEvents");
  ASSERT_NE(events, nullptr);
  double main_tid = -1.0, worker_tid = -1.0;
  for (const JsonValue& e : events->array) {
    if (e.find("name")->str == "trace_test.main_thread") {
      main_tid = e.find("tid")->number;
    }
    if (e.find("name")->str == "trace_test.worker_thread") {
      worker_tid = e.find("tid")->number;
    }
  }
  ASSERT_GE(main_tid, 0.0);
  ASSERT_GE(worker_tid, 0.0);
  EXPECT_NE(main_tid, worker_tid);
}

TEST(Trace, ClearDiscardsEvents) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  {
    TraceScope span("trace_test.cleared");
  }
  telemetry::stop_tracing();
  EXPECT_GT(telemetry::trace_event_count(), 0u);
  telemetry::clear_trace();
  EXPECT_EQ(telemetry::trace_event_count(), 0u);
  const JsonValue doc = parse_json(exported_trace());
  EXPECT_TRUE(doc.find("traceEvents")->array.empty());
}

TEST(Trace, SpanRingKeepsMostRecentSpans) {
  telemetry::stop_tracing();
  telemetry::set_span_ring_capacity(4);
  EXPECT_EQ(telemetry::span_ring_capacity(), 4u);
  for (int i = 0; i < 7; ++i) {
    TraceScope span("trace_test.ringed", "test");
  }
  // The ring records even though full tracing is off, and stays bounded.
  EXPECT_EQ(telemetry::trace_event_count(), 0u);
  const auto spans = telemetry::recent_spans();
  ASSERT_EQ(spans.size(), 4u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_STREQ(spans[i].name, "trace_test.ringed");
    EXPECT_STREQ(spans[i].category, "test");
    if (i > 0) {
      EXPECT_GE(spans[i].start_ns, spans[i - 1].start_ns);
    }
  }
  telemetry::set_span_ring_capacity(0);
  EXPECT_TRUE(telemetry::recent_spans().empty());
  {
    TraceScope span("trace_test.ring_disabled", "test");
  }
  EXPECT_TRUE(telemetry::recent_spans().empty());
}

TEST(Trace, RingOnlyModeSkipsPerCycleSimSpans) {
  // "sim" spans fire per emulated cycle; with only the /tracez ring enabled
  // (no full trace sink) they must not pay for clock reads or ring slots.
  telemetry::stop_tracing();
  telemetry::set_span_ring_capacity(8);
  {
    TraceScope hot("trace_test.sim_span", "sim");
    TraceScope cold("trace_test.flow_span", "test");
  }
  auto spans = telemetry::recent_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "trace_test.flow_span");
  // With a full sink active the same "sim" span IS collected (and ringed):
  // the caller opted into tracing cost for the whole run.
  telemetry::start_tracing();
  {
    TraceScope hot("trace_test.sim_span", "sim");
  }
  telemetry::stop_tracing();
  EXPECT_EQ(telemetry::trace_event_count(), 1u);
  spans = telemetry::recent_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_STREQ(spans[1].name, "trace_test.sim_span");
  telemetry::set_span_ring_capacity(0);
}

TEST(Trace, ManySpansFromPoolThreads) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  run_on_threads(64, [&](std::size_t) {
    TraceScope span("trace_test.pool_span", "test");
  });
  telemetry::stop_tracing();
  EXPECT_EQ(telemetry::trace_event_count(), 64u);
  // Export must stay well-formed with events from many threads.
  const JsonValue doc = parse_json(exported_trace());
  EXPECT_EQ(doc.find("traceEvents")->array.size(), 64u);
}

TEST(TraceContext, InactiveOutsideAnySpan) {
  const telemetry::TraceContext ctx = telemetry::current_trace_context();
  EXPECT_FALSE(ctx.active());
  EXPECT_EQ(ctx.trace_id, 0u);
  EXPECT_EQ(ctx.span_id, 0u);
}

TEST(TraceContext, SpansNestAndRestore) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  telemetry::TraceContext outer_ctx, inner_ctx;
  {
    TraceScope outer("ctx_test.outer", "test");
    outer_ctx = telemetry::current_trace_context();
    EXPECT_TRUE(outer_ctx.active());
    EXPECT_EQ(outer_ctx.parent_id, 0u);
    {
      TraceScope inner("ctx_test.inner", "test");
      inner_ctx = telemetry::current_trace_context();
      // Same trace, new span, parented under the outer span.
      EXPECT_EQ(inner_ctx.trace_id, outer_ctx.trace_id);
      EXPECT_NE(inner_ctx.span_id, outer_ctx.span_id);
      EXPECT_EQ(inner_ctx.parent_id, outer_ctx.span_id);
    }
    // Popping the inner scope restores the outer context exactly.
    const telemetry::TraceContext restored =
        telemetry::current_trace_context();
    EXPECT_EQ(restored.trace_id, outer_ctx.trace_id);
    EXPECT_EQ(restored.span_id, outer_ctx.span_id);
  }
  telemetry::stop_tracing();
  EXPECT_FALSE(telemetry::current_trace_context().active());
}

TEST(TraceContext, SiblingRootsGetDistinctTraceIds) {
  telemetry::clear_trace();
  telemetry::start_tracing();
  telemetry::TraceContext first, second;
  {
    TraceScope a("ctx_test.root_a", "test");
    first = telemetry::current_trace_context();
  }
  {
    TraceScope b("ctx_test.root_b", "test");
    second = telemetry::current_trace_context();
  }
  telemetry::stop_tracing();
  EXPECT_NE(first.trace_id, second.trace_id);
  EXPECT_NE(first.span_id, second.span_id);
}

TEST(Trace, DroppedSpanCounterAndTracezTree) {
  telemetry::stop_tracing();
  const std::uint64_t dropped_before = telemetry::dropped_span_count();
  telemetry::set_span_ring_capacity(4);
  telemetry::TraceContext parent;
  {
    TraceScope outer("ctx_test.tree_parent", "test");
    parent = telemetry::current_trace_context();
    TraceScope inner("ctx_test.tree_child", "test");
  }
  for (int i = 0; i < 8; ++i) {
    TraceScope filler("ctx_test.tree_filler", "test");
  }
  // 10 spans through a 4-slot ring: at least 6 overwritten and counted.
  EXPECT_GE(telemetry::dropped_span_count(), dropped_before + 6);
  std::ostringstream os;
  telemetry::write_tracez_tree(os);
  const std::string tree = os.str();
  EXPECT_NE(tree.find("dropped"), std::string::npos);
  EXPECT_NE(tree.find("ctx_test.tree_filler"), std::string::npos);

  // With a roomier ring the parent/child pair renders as an indented tree.
  telemetry::set_span_ring_capacity(16);
  {
    TraceScope outer("ctx_test.tree_parent", "test");
    TraceScope inner("ctx_test.tree_child", "test");
  }
  std::ostringstream os2;
  telemetry::write_tracez_tree(os2);
  const std::string tree2 = os2.str();
  const std::size_t parent_at = tree2.find("ctx_test.tree_parent");
  const std::size_t child_at = tree2.find("`- ctx_test.tree_child");
  EXPECT_NE(parent_at, std::string::npos);
  EXPECT_NE(child_at, std::string::npos) << tree2;
  EXPECT_LT(parent_at, child_at);
  telemetry::set_span_ring_capacity(0);
}

}  // namespace
}  // namespace fpgadbg
