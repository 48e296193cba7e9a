#include "support/telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "support/json.h"

namespace fpgadbg::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

int Histogram::bucket_of(double value) {
  if (!(value > 0.0)) return 0;
  // log2(value) * kBucketsPerOctave, offset so kOctaveMin maps to bucket 0.
  const double pos =
      (std::log2(value) - static_cast<double>(kOctaveMin)) * kBucketsPerOctave;
  const int b = static_cast<int>(std::floor(pos));
  return std::clamp(b, 0, kNumBuckets - 1);
}

double Histogram::bucket_mid(int bucket) {
  // Geometric midpoint of the bucket's [lo, hi) bounds.
  const double lo_exp =
      static_cast<double>(kOctaveMin) +
      static_cast<double>(bucket) / kBucketsPerOctave;
  return std::exp2(lo_exp + 0.5 / kBucketsPerOctave);
}

double Histogram::observe(double value) {
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(value, std::memory_order_relaxed);
  buckets_[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  if (!has_extrema_.exchange(true, std::memory_order_relaxed)) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    double cur = min_.load(std::memory_order_relaxed);
    while (value < cur &&
           !min_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
    cur = max_.load(std::memory_order_relaxed);
    while (value > cur &&
           !max_.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }
  return value;
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  std::uint64_t counts[kNumBuckets];
  std::uint64_t total = 0;
  for (int b = 0; b < kNumBuckets; ++b) {
    counts[b] = buckets_[b].load(std::memory_order_relaxed);
    total += counts[b];
  }
  s.count = total;
  s.sum = sum_.load(std::memory_order_relaxed);
  s.min = min_.load(std::memory_order_relaxed);
  s.max = max_.load(std::memory_order_relaxed);
  if (total == 0) return s;

  const auto percentile = [&](double q) {
    const std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    std::uint64_t seen = 0;
    for (int b = 0; b < kNumBuckets; ++b) {
      seen += counts[b];
      if (seen >= std::max<std::uint64_t>(rank, 1)) {
        // Clamp the bucket estimate to the observed extrema so percentiles
        // never fall outside [min, max].
        return std::clamp(bucket_mid(b), s.min, s.max);
      }
    }
    return s.max;
  };
  s.p50 = percentile(0.50);
  s.p90 = percentile(0.90);
  s.p99 = percentile(0.99);
  return s;
}

void Histogram::reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  has_extrema_.store(false, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Series
// ---------------------------------------------------------------------------

void Series::append(double value) {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.push_back(value);
}

std::vector<double> Series::values() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_;
}

std::size_t Series::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_.size();
}

double Series::last() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return values_.empty() ? 0.0 : values_.back();
}

void Series::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  values_.clear();
}

// ---------------------------------------------------------------------------
// MetricsSnapshot
// ---------------------------------------------------------------------------

namespace {

template <typename Seq>
auto find_named(const Seq& seq, const std::string& name)
    -> const typename Seq::value_type* {
  for (const auto& entry : seq) {
    if (entry.first == name) return &entry;
  }
  return nullptr;
}

}  // namespace

std::uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto* e = find_named(counters, name);
  return e ? e->second : 0;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  const auto* e = find_named(gauges, name);
  return e ? e->second : 0.0;
}

HistogramSummary MetricsSnapshot::histogram(const std::string& name) const {
  const auto* e = find_named(histograms, name);
  return e ? e->second : HistogramSummary{};
}

std::vector<double> MetricsSnapshot::series_of(const std::string& name) const {
  const auto* e = find_named(series, name);
  return e ? e->second : std::vector<double>{};
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

struct MetricsRegistry::Impl {
  mutable std::mutex mutex;
  // std::map keeps export deterministic (sorted by name) and never moves
  // values, so handed-out references stay valid.
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
  std::map<std::string, std::unique_ptr<Histogram>> histograms;
  std::map<std::string, std::unique_ptr<Series>> series;
};

MetricsRegistry::MetricsRegistry() : impl_(new Impl) {}
MetricsRegistry::~MetricsRegistry() { delete impl_; }

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->counters[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->gauges[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->histograms[name];
  if (!slot) slot = std::make_unique<Histogram>();
  return *slot;
}

Series& MetricsRegistry::series(const std::string& name) {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  auto& slot = impl_->series[name];
  if (!slot) slot = std::make_unique<Series>();
  return *slot;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (const auto& [name, c] : impl_->counters) {
    snap.counters.emplace_back(name, c->value());
  }
  for (const auto& [name, g] : impl_->gauges) {
    snap.gauges.emplace_back(name, g->value());
  }
  for (const auto& [name, h] : impl_->histograms) {
    snap.histograms.emplace_back(name, h->summary());
  }
  for (const auto& [name, s] : impl_->series) {
    snap.series.emplace_back(name, s->values());
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  for (auto& [name, c] : impl_->counters) c->reset();
  for (auto& [name, g] : impl_->gauges) g->reset();
  for (auto& [name, h] : impl_->histograms) h->reset();
  for (auto& [name, s] : impl_->series) s->reset();
}

namespace {

void write_json_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

}  // namespace

void MetricsRegistry::write_json(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    os << support::json_quote(snap.counters[i].first);
    os << ": " << snap.counters[i].second;
  }
  os << (snap.counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    os << (i ? ",\n    " : "\n    ");
    os << support::json_quote(snap.gauges[i].first);
    os << ": ";
    write_json_number(os, snap.gauges[i].second);
  }
  os << (snap.gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    os << (i ? ",\n    " : "\n    ");
    os << support::json_quote(name);
    os << ": {\"count\": " << h.count << ", \"sum\": ";
    write_json_number(os, h.sum);
    os << ", \"min\": ";
    write_json_number(os, h.min);
    os << ", \"max\": ";
    write_json_number(os, h.max);
    os << ", \"p50\": ";
    write_json_number(os, h.p50);
    os << ", \"p90\": ";
    write_json_number(os, h.p90);
    os << ", \"p99\": ";
    write_json_number(os, h.p99);
    os << "}";
  }
  os << (snap.histograms.empty() ? "" : "\n  ") << "},\n  \"series\": {";
  for (std::size_t i = 0; i < snap.series.size(); ++i) {
    const auto& [name, values] = snap.series[i];
    os << (i ? ",\n    " : "\n    ");
    os << support::json_quote(name);
    os << ": [";
    for (std::size_t j = 0; j < values.size(); ++j) {
      if (j) os << ", ";
      write_json_number(os, values[j]);
    }
    os << "]";
  }
  os << (snap.series.empty() ? "" : "\n  ") << "}\n}\n";
}

bool MetricsRegistry::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

namespace {

/// Prometheus metric names: [a-zA-Z_:][a-zA-Z0-9_:]*.  Our dotted names map
/// 1:1 with '.' -> '_' under the fpgadbg_ prefix.
std::string prometheus_name(const std::string& name) {
  std::string out = "fpgadbg_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

void write_prometheus_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << 0;
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

}  // namespace

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  const MetricsSnapshot snap = snapshot();
  for (const auto& [name, value] : snap.counters) {
    const std::string pname = prometheus_name(name) + "_total";
    os << "# TYPE " << pname << " counter\n";
    os << pname << ' ' << value << '\n';
  }
  for (const auto& [name, value] : snap.gauges) {
    const std::string pname = prometheus_name(name);
    os << "# TYPE " << pname << " gauge\n";
    os << pname << ' ';
    write_prometheus_number(os, value);
    os << '\n';
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string pname = prometheus_name(name);
    os << "# TYPE " << pname << " summary\n";
    // An empty summary has no order statistics: per the exposition-format
    // contract the quantile samples are omitted (a scraper would otherwise
    // ingest fabricated zeros) while _sum/_count still report 0.
    if (h.count > 0) {
      const std::pair<const char*, double> quantiles[] = {
          {"0.5", h.p50}, {"0.9", h.p90}, {"0.99", h.p99}};
      for (const auto& [q, value] : quantiles) {
        os << pname << "{quantile=\"" << q << "\"} ";
        write_prometheus_number(os, value);
        os << '\n';
      }
    }
    os << pname << "_sum ";
    write_prometheus_number(os, h.sum);
    os << '\n';
    os << pname << "_count " << h.count << '\n';
  }
  // Series surface as gauges carrying their most recent point (the full
  // trajectory lives in the JSON export; Prometheus keeps history itself).
  for (const auto& [name, values] : snap.series) {
    if (values.empty()) continue;
    const std::string pname = prometheus_name(name);
    os << "# TYPE " << pname << " gauge\n";
    os << pname << ' ';
    write_prometheus_number(os, values.back());
    os << '\n';
  }
}

bool MetricsRegistry::write_prometheus_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_prometheus(out);
  return static_cast<bool>(out);
}

MetricsRegistry& metrics() {
  static MetricsRegistry registry;
  return registry;
}

// ---------------------------------------------------------------------------
// Progress
// ---------------------------------------------------------------------------

struct ProgressReporter::Task {
  std::mutex mutex;
  std::string name;
  std::uint64_t id = 0;
  bool done = false;
  std::uint64_t units_done = 0;
  std::uint64_t units_total = 0;
  std::chrono::steady_clock::time_point start =
      std::chrono::steady_clock::now();
  double final_elapsed_seconds = 0.0;  ///< valid once done
  std::map<std::string, double> fields;
  std::map<std::string, std::string> notes;

  ProgressSnapshot snapshot_locked() const {
    ProgressSnapshot s;
    s.name = name;
    s.id = id;
    s.done = done;
    s.units_done = units_done;
    s.units_total = units_total;
    s.elapsed_seconds =
        done ? final_elapsed_seconds
             : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             start)
                   .count();
    s.fields.assign(fields.begin(), fields.end());
    s.notes.assign(notes.begin(), notes.end());
    return s;
  }
};

namespace {

/// Registered tasks: the live ones plus a bounded tail of finished ones so a
/// scrape landing just after completion still sees the final state.
struct ProgressState {
  std::mutex mutex;
  std::vector<std::shared_ptr<ProgressReporter::Task>> active;
  std::vector<ProgressSnapshot> finished;  ///< oldest first, bounded
  std::uint64_t next_id = 1;
  static constexpr std::size_t kKeepFinished = 16;
};

ProgressState& progress_state() {
  static ProgressState* state = new ProgressState;  // leaked: see TraceState
  return *state;
}

std::atomic<const char*> g_current_stage{""};

}  // namespace

ProgressReporter::ProgressReporter(std::string name)
    : task_(std::make_shared<Task>()) {
  task_->name = std::move(name);
  ProgressState& st = progress_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  task_->id = st.next_id++;
  st.active.push_back(task_);
}

ProgressReporter::~ProgressReporter() {
  ProgressSnapshot last;
  {
    std::lock_guard<std::mutex> lock(task_->mutex);
    task_->done = true;
    task_->final_elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      task_->start)
            .count();
    last = task_->snapshot_locked();
  }
  ProgressState& st = progress_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  st.active.erase(std::remove(st.active.begin(), st.active.end(), task_),
                  st.active.end());
  st.finished.push_back(std::move(last));
  if (st.finished.size() > ProgressState::kKeepFinished) {
    st.finished.erase(st.finished.begin());
  }
}

void ProgressReporter::set_total(std::uint64_t total) {
  std::lock_guard<std::mutex> lock(task_->mutex);
  task_->units_total = total;
}

void ProgressReporter::advance(std::uint64_t done) {
  std::lock_guard<std::mutex> lock(task_->mutex);
  task_->units_done = done;
}

void ProgressReporter::field(const std::string& key, double value) {
  std::lock_guard<std::mutex> lock(task_->mutex);
  task_->fields[key] = value;
}

void ProgressReporter::note(const std::string& key, std::string value) {
  std::lock_guard<std::mutex> lock(task_->mutex);
  task_->notes[key] = std::move(value);
}

std::vector<ProgressSnapshot> progress_snapshot() {
  ProgressState& st = progress_state();
  std::vector<ProgressSnapshot> out;
  std::lock_guard<std::mutex> lock(st.mutex);
  for (const auto& task : st.active) {
    std::lock_guard<std::mutex> tlock(task->mutex);
    out.push_back(task->snapshot_locked());
  }
  out.insert(out.end(), st.finished.begin(), st.finished.end());
  return out;
}

void write_progress_json(std::ostream& os) {
  const std::vector<ProgressSnapshot> tasks = progress_snapshot();
  os << "{\"tasks\": [";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const ProgressSnapshot& t = tasks[i];
    os << (i ? ",\n  " : "\n  ");
    os << "{\"name\": ";
    os << support::json_quote(t.name);
    os << ", \"id\": " << t.id
       << ", \"done\": " << (t.done ? "true" : "false")
       << ", \"units_done\": " << t.units_done
       << ", \"units_total\": " << t.units_total << ", \"elapsed_seconds\": ";
    write_json_number(os, t.elapsed_seconds);
    os << ", \"fields\": {";
    for (std::size_t j = 0; j < t.fields.size(); ++j) {
      if (j) os << ", ";
      os << support::json_quote(t.fields[j].first);
      os << ": ";
      write_json_number(os, t.fields[j].second);
    }
    os << "}, \"notes\": {";
    for (std::size_t j = 0; j < t.notes.size(); ++j) {
      if (j) os << ", ";
      os << support::json_quote(t.notes[j].first);
      os << ": ";
      os << support::json_quote(t.notes[j].second);
    }
    os << "}}";
  }
  os << (tasks.empty() ? "" : "\n") << "]}\n";
}

void set_current_stage(const char* name) {
  g_current_stage.store(name ? name : "", std::memory_order_relaxed);
}

const char* current_stage() {
  const char* s = g_current_stage.load(std::memory_order_relaxed);
  return s ? s : "";
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

namespace {

struct TraceEvent {
  const char* name;
  const char* category;
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
  std::uint64_t trace_id;
  std::uint64_t span_id;
  std::uint64_t parent_id;
};

/// Per-thread span buffer.  Appends come only from the owning thread; the
/// mutex serializes them against cross-thread export/clear.  Buffers are
/// kept alive by the global list even after their thread exits.
struct ThreadTraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;
  std::uint32_t tid = 0;
};

struct TraceState {
  std::atomic<bool> enabled{false};
  std::mutex mutex;  ///< guards buffers list + next_tid
  std::vector<std::shared_ptr<ThreadTraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  // Bounded recent-span ring behind /tracez — independent of `enabled` so a
  // live server can show spans without an unbounded full trace collection.
  std::atomic<std::size_t> ring_capacity{0};
  std::mutex ring_mutex;  ///< guards ring + ring_head
  std::vector<SpanRecord> ring;
  std::size_t ring_head = 0;  ///< next overwrite position once full
  std::atomic<std::uint64_t> ring_dropped{0};  ///< spans overwritten, ever
  // Causal-id allocators.  Sequential so the ids survive a JSON double
  // round-trip; 0 is reserved for "none".
  std::atomic<std::uint64_t> next_trace_id{1};
  std::atomic<std::uint64_t> next_span_id{1};
};

/// The thread's current causal context.  Plain thread_local (no registration
/// needed): only the owning thread reads or writes it.
thread_local TraceContext t_trace_context;

TraceState& trace_state() {
  static TraceState* state = new TraceState;  // leaked: survives exit races
  return *state;
}

ThreadTraceBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadTraceBuffer> buffer = [] {
    auto b = std::make_shared<ThreadTraceBuffer>();
    TraceState& st = trace_state();
    std::lock_guard<std::mutex> lock(st.mutex);
    b->tid = st.next_tid++;
    st.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - trace_state().epoch)
          .count());
}

}  // namespace

TraceContext current_trace_context() { return t_trace_context; }

bool tracing_enabled() {
  return trace_state().enabled.load(std::memory_order_relaxed);
}

void start_tracing() {
  clear_trace();
  trace_state().enabled.store(true, std::memory_order_relaxed);
}

void stop_tracing() {
  trace_state().enabled.store(false, std::memory_order_relaxed);
}

void clear_trace() {
  TraceState& st = trace_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  for (auto& b : st.buffers) {
    std::lock_guard<std::mutex> blk(b->mutex);
    b->events.clear();
  }
}

std::size_t trace_event_count() {
  TraceState& st = trace_state();
  std::lock_guard<std::mutex> lock(st.mutex);
  std::size_t n = 0;
  for (auto& b : st.buffers) {
    std::lock_guard<std::mutex> blk(b->mutex);
    n += b->events.size();
  }
  return n;
}

void set_span_ring_capacity(std::size_t capacity) {
  TraceState& st = trace_state();
  std::lock_guard<std::mutex> lock(st.ring_mutex);
  st.ring_capacity.store(capacity, std::memory_order_relaxed);
  st.ring.clear();
  st.ring_head = 0;
}

std::size_t span_ring_capacity() {
  return trace_state().ring_capacity.load(std::memory_order_relaxed);
}

std::uint64_t dropped_span_count() {
  return trace_state().ring_dropped.load(std::memory_order_relaxed);
}

std::vector<SpanRecord> recent_spans() {
  TraceState& st = trace_state();
  std::lock_guard<std::mutex> lock(st.ring_mutex);
  std::vector<SpanRecord> out;
  out.reserve(st.ring.size());
  const std::size_t cap = st.ring_capacity.load(std::memory_order_relaxed);
  const bool wrapped = cap != 0 && st.ring.size() == cap;
  const std::size_t first = wrapped ? st.ring_head : 0;
  for (std::size_t i = 0; i < st.ring.size(); ++i) {
    out.push_back(st.ring[(first + i) % st.ring.size()]);
  }
  return out;
}

TraceScope::TraceScope(const char* name, const char* category)
    : name_(name), category_(category), start_ns_(0), active_(false) {
  TraceState& st = trace_state();
  if (!st.enabled.load(std::memory_order_relaxed)) {
    if (st.ring_capacity.load(std::memory_order_relaxed) == 0) return;
    // Ring-only mode (live /tracez, no full trace sink): skip the "sim"
    // category.  Those spans fire per emulated cycle, so the two clock
    // reads here would dominate the emulation hot path — and a ring of a
    // few dozen slots holding nothing but sim.eval is useless anyway.
    if (category[0] == 's' && std::strcmp(category, "sim") == 0) return;
  }
  active_ = true;
  // Causal identity: become the thread's current span.  A span opened with
  // no active trace starts a fresh one; nested spans inherit it.
  prev_ = t_trace_context;
  span_id_ = st.next_span_id.fetch_add(1, std::memory_order_relaxed);
  TraceContext ctx;
  ctx.trace_id = prev_.trace_id != 0
                     ? prev_.trace_id
                     : st.next_trace_id.fetch_add(1, std::memory_order_relaxed);
  ctx.span_id = span_id_;
  ctx.parent_id = prev_.span_id;
  t_trace_context = ctx;
  start_ns_ = now_ns();
}

TraceScope::~TraceScope() {
  if (!active_) return;
  const std::uint64_t end_ns = now_ns();
  const TraceContext ctx = t_trace_context;
  t_trace_context = prev_;
  ThreadTraceBuffer& buf = thread_buffer();
  if (tracing_enabled()) {
    std::lock_guard<std::mutex> lock(buf.mutex);
    buf.events.push_back(TraceEvent{name_, category_, start_ns_,
                                    end_ns - start_ns_, ctx.trace_id, span_id_,
                                    ctx.parent_id});
  }
  TraceState& st = trace_state();
  if (st.ring_capacity.load(std::memory_order_relaxed) != 0) {
    std::lock_guard<std::mutex> lock(st.ring_mutex);
    const std::size_t cap = st.ring_capacity.load(std::memory_order_relaxed);
    if (cap != 0) {
      const SpanRecord rec{name_,    category_,    start_ns_,
                           end_ns - start_ns_,     buf.tid,
                           ctx.trace_id, span_id_, ctx.parent_id};
      if (st.ring.size() < cap) {
        st.ring.push_back(rec);
      } else {
        st.ring[st.ring_head] = rec;
        st.ring_head = (st.ring_head + 1) % cap;
        st.ring_dropped.fetch_add(1, std::memory_order_relaxed);
      }
    }
  }
}

void write_chrome_trace(std::ostream& os) {
  TraceState& st = trace_state();
  // Copy out under the locks, then format without holding anything.
  std::vector<std::pair<std::uint32_t, TraceEvent>> events;
  {
    std::lock_guard<std::mutex> lock(st.mutex);
    for (auto& b : st.buffers) {
      std::lock_guard<std::mutex> blk(b->mutex);
      for (const TraceEvent& e : b->events) events.emplace_back(b->tid, e);
    }
  }
  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.second.start_ns < b.second.start_ns;
  });
  os << "{\"traceEvents\": [";
  bool first = true;
  for (const auto& [tid, e] : events) {
    os << (first ? "\n  " : ",\n  ");
    first = false;
    os << "{\"name\": ";
    os << support::json_quote(e.name);
    os << ", \"cat\": ";
    os << support::json_quote(e.category);
    os << ", \"ph\": \"X\", \"ts\": ";
    write_json_number(os, static_cast<double>(e.start_ns) / 1e3);
    os << ", \"dur\": ";
    write_json_number(os, static_cast<double>(e.dur_ns) / 1e3);
    os << ", \"pid\": 1, \"tid\": " << tid;
    if (e.span_id != 0) {
      os << ", \"args\": {\"trace_id\": " << e.trace_id
         << ", \"span_id\": " << e.span_id
         << ", \"parent_id\": " << e.parent_id << "}";
    }
    os << "}";
  }
  os << (first ? "" : "\n") << "]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

void write_tracez_tree(std::ostream& os) {
  const std::vector<SpanRecord> spans = recent_spans();
  os << "tracez: " << spans.size() << " most recent spans (ring capacity "
     << span_ring_capacity() << ", " << dropped_span_count()
     << " dropped, parent-linked tree)\n";
  os << "  start_us      dur_us  tid  trace  category  span\n";
  // Children indexed under their parent span id.  A span whose parent was
  // already evicted from the ring (or that has none) lists as a root —
  // the tree degrades to the flat view, never loses spans.
  std::map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].span_id != 0) by_id[spans[i].span_id] = i;
  }
  std::vector<std::vector<std::size_t>> children(spans.size());
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto p = spans[i].parent_id != 0 ? by_id.find(spans[i].parent_id)
                                           : by_id.end();
    if (p != by_id.end() && p->second != i) {
      children[p->second].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  const auto by_start = [&](std::size_t a, std::size_t b) {
    return spans[a].start_ns < spans[b].start_ns;
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& c : children) std::sort(c.begin(), c.end(), by_start);
  char buf[256];
  // Iterative DFS; depth capped so a pathological parent chain cannot
  // produce unbounded indentation.
  std::vector<std::pair<std::size_t, int>> stack;
  for (std::size_t r = roots.size(); r-- > 0;) stack.push_back({roots[r], 0});
  while (!stack.empty()) {
    const auto [i, depth] = stack.back();
    stack.pop_back();
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof buf, "  %-12.1f %9.1f %4u %6llu  %-8s  ",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.dur_ns) / 1e3, s.tid,
                  static_cast<unsigned long long>(s.trace_id), s.category);
    os << buf;
    for (int d = 0; d < std::min(depth, 16); ++d) os << "  ";
    os << (depth > 0 ? "`- " : "") << s.name << "\n";
    for (std::size_t c = children[i].size(); c-- > 0;) {
      stack.push_back({children[i][c], depth + 1});
    }
  }
}

}  // namespace fpgadbg::telemetry
