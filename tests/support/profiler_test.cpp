// Tests for the SIGPROF sampling profiler: lifecycle (start/stop/restart,
// double-start rejection, option validation), sample capture under a
// multi-threaded spin load, and both report formats (collapsed stacks and
// speedscope JSON).
#include "support/profiler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "testutil/json_lite.h"

namespace fpgadbg {
namespace {

using testutil::JsonValue;
using testutil::parse_json;

/// Burns CPU on several threads long enough for a high-rate sampler to
/// land a healthy number of ticks.
void spin_threads(int threads, std::chrono::milliseconds duration) {
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&stop] {
      volatile double x = 1.0;
      while (!stop.load(std::memory_order_relaxed)) x = x * 1.0000001 + 1e-9;
    });
  }
  std::this_thread::sleep_for(duration);
  stop = true;
  for (auto& w : workers) w.join();
}

TEST(Profiler, LifecycleAndDoubleStartRejected) {
  EXPECT_FALSE(prof::profiler_running());
  ASSERT_TRUE(prof::start_profiler({}).ok());
  EXPECT_TRUE(prof::profiler_running());
  const auto again = prof::start_profiler({});
  EXPECT_FALSE(again.ok()) << "second start while running must fail";
  prof::stop_profiler();
  EXPECT_FALSE(prof::profiler_running());
  // Restart is allowed and resets the sample counters.
  ASSERT_TRUE(prof::start_profiler({}).ok());
  prof::stop_profiler();
}

TEST(Profiler, RejectsBadOptions) {
  prof::ProfilerOptions bad_hz;
  bad_hz.sample_hz = 0;
  EXPECT_FALSE(prof::start_profiler(bad_hz).ok());
  bad_hz.sample_hz = 100000;
  EXPECT_FALSE(prof::start_profiler(bad_hz).ok());
  prof::ProfilerOptions bad_ring;
  bad_ring.max_samples = 0;
  EXPECT_FALSE(prof::start_profiler(bad_ring).ok());
  EXPECT_FALSE(prof::profiler_running());
}

TEST(Profiler, CapturesSamplesAcrossThreads) {
  prof::ProfilerOptions opt;
  opt.sample_hz = 997;  // high rate: plenty of samples in a short test
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  spin_threads(3, std::chrono::milliseconds(300));
  prof::stop_profiler();

  const prof::ProfilerStats stats = prof::profiler_stats();
  EXPECT_FALSE(stats.running);
  EXPECT_EQ(stats.sample_hz, 997);
  EXPECT_GT(stats.ticks, 0u);
  EXPECT_GT(stats.samples, 10u) << "sampler landed almost no signals";

  const std::string collapsed = prof::collapsed_stacks();
  ASSERT_FALSE(collapsed.empty());
  // Every line is "frame;frame;... count" with a positive trailing count.
  std::istringstream lines(collapsed);
  std::string line;
  std::uint64_t total = 0;
  while (std::getline(lines, line)) {
    const std::size_t sp = line.rfind(' ');
    ASSERT_NE(sp, std::string::npos) << line;
    const long count = std::strtol(line.c_str() + sp + 1, nullptr, 10);
    EXPECT_GT(count, 0) << line;
    total += static_cast<std::uint64_t>(count);
  }
  EXPECT_LE(total, stats.samples);
  EXPECT_GT(total, 0u);
}

TEST(Profiler, SpeedscopeExportParsesAsJson) {
  prof::ProfilerOptions opt;
  opt.sample_hz = 997;
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  spin_threads(2, std::chrono::milliseconds(200));
  prof::stop_profiler();

  std::ostringstream os;
  prof::write_speedscope(os);
  const JsonValue doc = parse_json(os.str());
  const JsonValue* shared = doc.find("shared");
  ASSERT_NE(shared, nullptr);
  const JsonValue* frames = shared->find("frames");
  ASSERT_NE(frames, nullptr);
  EXPECT_GT(frames->array.size(), 0u);
  const JsonValue* profiles = doc.find("profiles");
  ASSERT_NE(profiles, nullptr);
  ASSERT_GT(profiles->array.size(), 0u);
  for (const JsonValue& p : profiles->array) {
    EXPECT_EQ(p.find("type")->str, "sampled");
    const JsonValue* samples = p.find("samples");
    const JsonValue* weights = p.find("weights");
    ASSERT_NE(samples, nullptr);
    ASSERT_NE(weights, nullptr);
    EXPECT_EQ(samples->array.size(), weights->array.size());
    // Frame indices stay within the shared frame table.
    for (const JsonValue& stack : samples->array) {
      for (const JsonValue& idx : stack.array) {
        EXPECT_LT(idx.number, static_cast<double>(frames->array.size()));
      }
    }
  }
}

TEST(Profiler, WriteProfileFileDispatchesOnSuffix) {
  prof::ProfilerOptions opt;
  opt.sample_hz = 499;
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  spin_threads(2, std::chrono::milliseconds(150));
  prof::stop_profiler();

  const std::string collapsed_path =
      ::testing::TempDir() + "/profiler_test_flame.txt";
  const std::string speedscope_path =
      ::testing::TempDir() + "/profiler_test_flame.json";
  ASSERT_TRUE(prof::write_profile_file(collapsed_path));
  ASSERT_TRUE(prof::write_profile_file(speedscope_path));
  std::ifstream ctext(collapsed_path);
  std::stringstream cbuf;
  cbuf << ctext.rdbuf();
  EXPECT_NE(cbuf.str().find(';'), std::string::npos)
      << "collapsed output has no multi-frame stack";
  std::ifstream jtext(speedscope_path);
  std::stringstream jbuf;
  jbuf << jtext.rdbuf();
  EXPECT_NO_THROW(parse_json(jbuf.str()));
  EXPECT_FALSE(prof::write_profile_file("/nonexistent-dir/x.txt"));
}

TEST(Profiler, RestartDiscardsOldSamples) {
  prof::ProfilerOptions opt;
  opt.sample_hz = 997;
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  spin_threads(2, std::chrono::milliseconds(200));
  prof::stop_profiler();
  const std::uint64_t first = prof::profiler_stats().samples;
  EXPECT_GT(first, 0u);
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  const std::uint64_t right_after = prof::profiler_stats().samples;
  prof::stop_profiler();
  EXPECT_LT(right_after, first)
      << "restart must reset the sample ring, not append";
}

TEST(Profiler, SamplesPoolWorkersToo) {
  prof::ProfilerOptions opt;
  opt.sample_hz = 997;
  ASSERT_TRUE(prof::start_profiler(opt).ok());
  spin_threads(4, std::chrono::milliseconds(300));
  prof::stop_profiler();
  std::ostringstream os;
  prof::write_speedscope(os);
  const JsonValue doc = parse_json(os.str());
  // More than one per-thread profile: the timer thread reached workers
  // that were created after the profiler started.
  EXPECT_GT(doc.find("profiles")->array.size(), 1u);
}

}  // namespace
}  // namespace fpgadbg
