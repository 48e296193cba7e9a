// ThreadSanitizer smoke for the SIGPROF sampling profiler: the signal
// handler claims ring slots and writes raw frames on every thread while a
// reader thread concurrently resolves stacks and polls stats, and the
// profiled workload runs on worker threads created after the profiler
// started, so the /proc/self/task scan has to find them.  A restart mid-run
// exercises the ring swap against in-flight signals.
// Compiled standalone with -fsanitize=thread by run_profiler_tsan_smoke.sh;
// any data race aborts.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "support/profiler.h"

int main() {
  namespace prof = fpgadbg::prof;

  prof::ProfilerOptions opt;
  opt.sample_hz = 997;  // high rate: maximise handler/reader overlap
  opt.max_samples = 1u << 12;
  auto started = prof::start_profiler(opt);
  if (!started.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", started.to_string().c_str());
    return 1;
  }

  // Reader: resolve the live ring while the handler is still writing it.
  std::atomic<bool> stop{false};
  std::atomic<int> reads{0};
  std::thread reader([&stop, &reads] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)prof::profiler_stats();
      const std::string collapsed = prof::collapsed_stacks();
      reads.fetch_add(1 + static_cast<int>(!collapsed.empty()),
                      std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  // Workload: four workers spun up after the profiler, hot enough that the
  // timer thread lands signals on every one of them.  They share 30 x 64
  // work units.
  constexpr int kUnits = 30 * 64;
  std::atomic<int> next_unit{0};
  std::atomic<int> done_units{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&next_unit, &done_units] {
      while (next_unit.fetch_add(1, std::memory_order_relaxed) < kUnits) {
        volatile double x = 1.0;
        for (int i = 0; i < 30000; ++i) x = x * 1.0000001 + 1e-9;
        done_units.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // Halfway through, restart: swaps the sample ring under live SIGPROF
  // traffic from the workers.
  while (done_units.load(std::memory_order_relaxed) < kUnits / 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  prof::stop_profiler();
  auto restarted = prof::start_profiler(opt);
  for (std::thread& w : workers) w.join();

  prof::stop_profiler();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  if (!restarted.ok()) {
    std::fprintf(stderr, "FAIL: restart: %s\n",
                 restarted.to_string().c_str());
    return 1;
  }

  const prof::ProfilerStats stats = prof::profiler_stats();
  if (stats.samples == 0) {
    std::fprintf(stderr, "FAIL: sampler landed no signals\n");
    return 1;
  }
  if (reads.load() == 0) {
    std::fprintf(stderr, "FAIL: reader never ran\n");
    return 1;
  }
  std::printf("profiler tsan smoke passed: %llu samples (%llu dropped), "
              "%d concurrent reads\n",
              static_cast<unsigned long long>(stats.samples),
              static_cast<unsigned long long>(stats.dropped),
              reads.load());
  return 0;
}
