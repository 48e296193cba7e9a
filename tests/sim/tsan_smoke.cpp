// ThreadSanitizer smoke test for the observability layer.  Built
// standalone by run_tsan_smoke.sh with -fsanitize=thread (the main build
// stays unsanitized).  It hammers the telemetry registry (counters,
// histograms, gauges), the span tracer, and the logger from four threads
// while some of them concurrently snapshot and export — the pattern of the
// introspection server scraping a running pipeline.
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/log.h"
#include "support/telemetry.h"

namespace {

int run_telemetry_hammer() {
  using namespace fpgadbg;
  std::ostringstream log_sink;
  set_log_stream(&log_sink);
  set_log_level(LogLevel::kDebug);
  set_log_format(LogFormat::kJson);
  telemetry::clear_trace();
  telemetry::start_tracing();

  telemetry::Counter& counter = telemetry::metrics().counter("tsan.counter");
  telemetry::Histogram& hist = telemetry::metrics().histogram("tsan.hist");
  telemetry::Gauge& gauge = telemetry::metrics().gauge("tsan.gauge");
  constexpr std::size_t kJobs = 256;
  constexpr int kOpsPerJob = 100;
  constexpr std::size_t kThreads = 4;

  const auto job = [&](std::size_t i) {
    telemetry::TraceScope span("tsan.span", "test");
    for (int k = 0; k < kOpsPerJob; ++k) {
      counter.add(1);
      hist.observe(static_cast<double>(k + 1));
      gauge.set(static_cast<double>(i));
    }
    // Registration races: new instruments appear while others are written.
    telemetry::metrics()
        .counter("tsan.dyn." + std::to_string(i % 7))
        .add(1);
    LOG_INFO << "hammer job " << i;
    if (i % 61 == 0) {
      // Concurrent readers while every other thread keeps writing.
      (void)telemetry::metrics().snapshot();
      std::ostringstream os;
      telemetry::metrics().write_json(os);
      std::ostringstream ts;
      telemetry::write_chrome_trace(ts);
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&job, t] {
      for (std::size_t i = t; i < kJobs; i += kThreads) job(i);
    });
  }
  for (std::thread& th : threads) th.join();

  telemetry::stop_tracing();
  set_log_stream(nullptr);
  set_log_level(LogLevel::kWarn);
  set_log_format(LogFormat::kText);

  int rc = 0;
  if (counter.value() != kJobs * kOpsPerJob) {
    std::fprintf(stderr, "telemetry hammer: counter %llu != %llu\n",
                 static_cast<unsigned long long>(counter.value()),
                 static_cast<unsigned long long>(kJobs * kOpsPerJob));
    rc = 1;
  }
  if (hist.count() != kJobs * kOpsPerJob) {
    std::fprintf(stderr, "telemetry hammer: histogram dropped samples\n");
    rc = 1;
  }
  if (telemetry::trace_event_count() != kJobs) {
    std::fprintf(stderr, "telemetry hammer: %zu trace events != %zu\n",
                 telemetry::trace_event_count(), kJobs);
    rc = 1;
  }
  return rc;
}

}  // namespace

int main() {
  const int rc = run_telemetry_hammer();
  if (rc == 0) std::puts("tsan smoke: OK");
  return rc;
}
