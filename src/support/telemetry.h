// Telemetry: a process-wide metrics registry plus a scoped-span tracer.
//
// The paper's value proposition is quantitative (SCG evaluation in
// microseconds, DPR turns replacing recompiles, ~3.5x area ratios), so every
// pipeline stage reports what it actually did through this subsystem instead
// of ad-hoc stopwatches:
//
//   * Metrics — named Counter / Gauge / Histogram instruments owned by a
//     thread-safe MetricsRegistry.  Counters and gauges are single relaxed
//     atomics; histograms bucket observations on a log scale (4 buckets per
//     octave, ~9% relative error) and derive percentile summaries from the
//     buckets.  Snapshots and JSON export never block writers.
//   * Tracing — TraceScope RAII spans collected into per-thread buffers and
//     exported as Chrome-trace / Perfetto JSON ("chrome://tracing" format).
//     While no sink is installed (start_tracing() not called) a TraceScope
//     is one relaxed atomic load and two dead stores; span names must be
//     string literals (they are kept by pointer until export).
//
// Call sites on hot paths should cache the instrument reference:
//
//   static telemetry::Counter& c = telemetry::metrics().counter("x.y");
//   c.add(n);
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace fpgadbg::telemetry {

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

/// Monotonic event count.  add() is a single relaxed fetch_add, safe from any
/// thread.
class Counter {
 public:
  void add(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value instrument (queue depths, sizes).  set() wins races; no
/// aggregation.
class Gauge {
 public:
  void set(double value) { value_.store(value, std::memory_order_relaxed); }
  /// High-water-mark update: keeps max(current, value).  Races between
  /// writers resolve to the maximum, so throughput gauges report the best
  /// rate seen rather than whichever sample landed last.
  void set_max(double value) {
    double cur = value_.load(std::memory_order_relaxed);
    while (value > cur &&
           !value_.compare_exchange_weak(cur, value,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Append-only numeric series: one point per route iteration, per pipeline
/// stage, per campaign pass.  Unlike a Histogram it keeps the ORDER of the
/// observations, so convergence trajectories (overused nodes falling to 0)
/// survive into the metrics JSON.  append() takes a mutex — use at
/// iteration cadence, never per-item on a hot path.
class Series {
 public:
  void append(double value);
  std::vector<double> values() const;
  std::size_t size() const;
  /// Last appended value (0.0 while empty) — what the Prometheus exposition
  /// reports, as a gauge.
  double last() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<double> values_;
};

struct HistogramSummary {
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double mean() const { return count ? sum / static_cast<double>(count) : 0.0; }
};

/// Log-bucketed distribution over positive values (seconds, counts, bytes).
/// Observation is wait-free: one bucket fetch_add plus sum/min/max updates.
/// Percentiles are reconstructed from bucket boundaries, accurate to the
/// bucket's relative width (~9%); min/max/sum/count are exact.
class Histogram {
 public:
  static constexpr int kBucketsPerOctave = 4;
  /// Buckets span [2^-34, 2^30) ~ [6e-11, 1e9) with kBucketsPerOctave
  /// subdivisions; values outside clamp to the edge buckets.
  static constexpr int kOctaveMin = -34;
  static constexpr int kOctaveMax = 30;
  static constexpr int kNumBuckets =
      (kOctaveMax - kOctaveMin) * kBucketsPerOctave;

  /// Records `value` and returns it (so call sites can record and assign in
  /// one expression, keeping report structs and registry in exact agreement).
  double observe(double value);

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }

  HistogramSummary summary() const;
  void reset();

 private:
  static int bucket_of(double value);
  static double bucket_mid(int bucket);

  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
  std::atomic<bool> has_extrema_{false};
  std::atomic<std::uint64_t> buckets_[kNumBuckets] = {};
};

struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
  std::vector<std::pair<std::string, std::vector<double>>> series;

  /// Lookup helpers (return 0-value defaults for absent names).
  std::uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  HistogramSummary histogram(const std::string& name) const;
  std::vector<double> series_of(const std::string& name) const;
};

/// Owns all instruments.  Lookup by name is mutex-guarded (cache the
/// reference on hot paths); the returned references stay valid for the
/// registry's lifetime.  Requesting the same name twice returns the same
/// instrument; a name may hold only one instrument kind.
class MetricsRegistry {
 public:
  MetricsRegistry();
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);
  Series& series(const std::string& name);

  /// Consistent-enough snapshot of every instrument, names sorted.
  MetricsSnapshot snapshot() const;
  /// Zeroes every instrument (registrations survive).
  void reset();

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  /// min, max, p50, p90, p99}}}
  void write_json(std::ostream& os) const;
  /// Writes write_json() output to `path`; returns false on IO failure.
  bool write_json_file(const std::string& path) const;

  /// Prometheus text exposition format (version 0.0.4), so a serving
  /// deployment can expose the same numbers on a /metrics scrape endpoint.
  /// Names are prefixed "fpgadbg_" and sanitized ('.' and other invalid
  /// characters become '_'); counters keep the conventional "_total" suffix
  /// and histograms export as summaries (quantile 0.5/0.9/0.99 + _sum/_count).
  void write_prometheus(std::ostream& os) const;
  /// Writes write_prometheus() output to `path`; returns false on IO failure.
  bool write_prometheus_file(const std::string& path) const;

 private:
  struct Impl;
  Impl* impl_;
};

/// The process-wide registry every pipeline stage reports into.
MetricsRegistry& metrics();

// ---------------------------------------------------------------------------
// Progress — live introspection of long-running work
// ---------------------------------------------------------------------------

/// Point-in-time view of one registered long-running task, as served by the
/// introspection server's /progressz endpoint.
struct ProgressSnapshot {
  std::string name;
  std::uint64_t id = 0;           ///< registration order, unique per process
  bool done = false;
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;  ///< 0 = indeterminate
  double elapsed_seconds = 0.0;   ///< frozen at completion for finished tasks
  std::vector<std::pair<std::string, double>> fields;       ///< sorted by key
  std::vector<std::pair<std::string, std::string>> notes;   ///< sorted by key
};

/// RAII handle that registers a long-running task (a route negotiation, a
/// pipeline run, a scenario campaign) with the process-wide progress
/// registry.  The owning loop calls advance()/field()/note() at iteration
/// cadence; any thread (the introspection server's, in practice) can
/// snapshot all tasks concurrently via progress_snapshot().  Destruction
/// marks the task finished and retires it into a bounded recently-finished
/// list so a scrape just after completion still sees the final state.
class ProgressReporter {
 public:
  explicit ProgressReporter(std::string name);
  ~ProgressReporter();
  ProgressReporter(const ProgressReporter&) = delete;
  ProgressReporter& operator=(const ProgressReporter&) = delete;

  void set_total(std::uint64_t total);
  /// Absolute units completed so far (monotone by convention; not enforced).
  void advance(std::uint64_t done);
  /// Named numeric detail (overused nodes, cache hits, throughput...).
  void field(const std::string& key, double value);
  /// Named text detail (current stage name, design name...).
  void note(const std::string& key, std::string value);

  struct Task;  ///< opaque; public so the registry internals can hold it

 private:
  std::shared_ptr<Task> task_;
};

/// Active tasks (registration order) followed by the most recently finished
/// ones (oldest first; bounded).
std::vector<ProgressSnapshot> progress_snapshot();
/// {"tasks": [...]} — the /progressz document.
void write_progress_json(std::ostream& os);

/// Coarse "what is the process doing" marker for /statusz.  `name` must be
/// a string literal (or otherwise outlive all readers); nullptr and ""
/// both mean idle.
void set_current_stage(const char* name);
const char* current_stage();  ///< never nullptr; "" when idle

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

/// Causal identity of the work the calling thread is doing right now.
///
/// Every active TraceScope carries a 64-bit span id; spans opened while
/// another span is active on the same thread record that span as their
/// parent.  The trace id groups the spans of one logical operation (a debug
/// turn, a pipeline run).  Ids are small sequential integers (safe to
/// round-trip through JSON doubles); 0 always means "none".
struct TraceContext {
  std::uint64_t trace_id = 0;   ///< logical operation (0 = not in a trace)
  std::uint64_t span_id = 0;    ///< innermost active span on this thread
  std::uint64_t parent_id = 0;  ///< that span's parent (0 = root span)
  bool active() const { return trace_id != 0; }
};

/// The calling thread's current context.  All-zero outside any active
/// TraceScope (including when tracing is entirely off, so log/journal
/// stamping degrades to "no ids" rather than fabricating them).
TraceContext current_trace_context();

/// True between start_tracing() and stop_tracing().
bool tracing_enabled();
/// Installs the trace sink and discards previously collected events.
void start_tracing();
/// Uninstalls the sink; collected events stay exportable.
void stop_tracing();
/// Discards all collected events.
void clear_trace();
/// Events collected so far (all threads).
std::size_t trace_event_count();

/// Chrome-trace JSON ({"traceEvents": [...]} with "X" complete events, ts and
/// dur in microseconds).  Loadable in chrome://tracing and Perfetto.
/// Every span carries its trace/span/parent ids in "args".
void write_chrome_trace(std::ostream& os);
bool write_chrome_trace_file(const std::string& path);

/// One completed span as kept by the bounded recent-span ring (the /tracez
/// endpoint's source).  Unlike the full tracer this ring is always bounded:
/// it holds the most recent `capacity` spans and drops the oldest.
struct SpanRecord {
  const char* name = "";
  const char* category = "";
  std::uint64_t start_ns = 0;  ///< since the process trace epoch
  std::uint64_t dur_ns = 0;
  std::uint32_t tid = 0;
  std::uint64_t trace_id = 0;   ///< owning logical operation
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  ///< 0 = root span
};

/// Enables (capacity > 0) or disables (capacity == 0) the recent-span ring.
/// Independent of start_tracing(): the introspection server turns the ring
/// on so /tracez works on runs that never asked for a full --trace dump.
/// Changing the capacity discards previously ringed spans.
///
/// In ring-only mode (no full trace sink) spans in the "sim" category are
/// NOT recorded: they fire per emulated cycle, so timing them would put two
/// clock reads on the emulation hot path.  They still appear in full traces
/// collected via start_tracing().
void set_span_ring_capacity(std::size_t capacity);
std::size_t span_ring_capacity();
/// Ringed spans, oldest first.
std::vector<SpanRecord> recent_spans();
/// Spans evicted from the full ring before they could be scraped (process
/// lifetime total; /statusz surfaces it so silent truncation is visible).
std::uint64_t dropped_span_count();

/// /tracez body: the ringed spans rendered as a parent-linked tree (children
/// indented under the span that caused them, roots ordered by start time;
/// spans whose parent already left the ring list as roots).
void write_tracez_tree(std::ostream& os);

/// RAII span.  `name` and `category` MUST be string literals (or otherwise
/// outlive the trace export) — they are stored by pointer.  Nesting is
/// expressed naturally: spans on one thread that overlap in time render as a
/// flame graph in the trace viewer.  An active span also installs itself as
/// the thread's current TraceContext (allocating a fresh trace id when none
/// is active), so nested spans record it as their parent.
class TraceScope {
 public:
  explicit TraceScope(const char* name, const char* category = "flow");
  ~TraceScope();
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  const char* name_;
  const char* category_;
  std::uint64_t start_ns_;
  bool active_;
  std::uint64_t span_id_ = 0;
  TraceContext prev_;  ///< context to restore on close
};

}  // namespace fpgadbg::telemetry
