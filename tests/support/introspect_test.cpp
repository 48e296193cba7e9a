// Tests for the live introspection HTTP server: endpoint contract
// (/healthz, /metrics, /statusz, /tracez, /progressz, /quitz, mounts), raw
// HTTP/1.1 framing, and a concurrency hammer that scrapes while the
// instrumented loops are writing (the TSan smoke recompiles this scenario
// under -fsanitize=thread).
#include "support/introspect.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "support/telemetry.h"
#include "testutil/json_lite.h"

namespace fpgadbg {
namespace {

using support::IntrospectOptions;
using support::IntrospectServer;
using testutil::JsonValue;
using testutil::parse_json;

/// One blocking HTTP GET over a raw socket; returns the full response
/// (status line + headers + body), or "" on any socket failure.  Keeps the
/// test independent of curl and of the server's own client code.
std::string http_get(int port, const std::string& path,
                     const std::string& method = "GET") {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  const std::string request = method + " " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent, request.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "";
    }
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;  // Connection: close — EOF ends the response
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const auto pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? std::string() : response.substr(pos + 4);
}

std::unique_ptr<IntrospectServer> start_server() {
  auto server = IntrospectServer::start(IntrospectOptions{});
  EXPECT_TRUE(server.ok()) << server.status().to_string();
  return std::move(server).value();
}

TEST(Introspect, StartBindsEphemeralPortAndStops) {
  auto server = start_server();
  ASSERT_NE(server, nullptr);
  EXPECT_GT(server->port(), 0);
  EXPECT_EQ(server->bind_address(), "127.0.0.1");
  server->stop();
  server->stop();  // idempotent
}

TEST(Introspect, HealthzAnswersOk) {
  auto server = start_server();
  const std::string response = http_get(server->port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("Content-Length:"), std::string::npos);
  EXPECT_EQ(body_of(response), "ok\n");
}

TEST(Introspect, UnknownPathIs404) {
  auto server = start_server();
  const std::string response = http_get(server->port(), "/nope");
  EXPECT_NE(response.find("HTTP/1.1 404"), std::string::npos);
}

TEST(Introspect, MetricsServesLivePrometheusText) {
  auto server = start_server();
  telemetry::metrics().counter("test.introspect_scrape").add(3);
  std::string response = http_get(server->port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(response.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(body_of(response).find("fpgadbg_test_introspect_scrape_total 3"),
            std::string::npos);
  // A second scrape sees the updated value: the page is rendered per
  // request, not cached at server start.
  telemetry::metrics().counter("test.introspect_scrape").add(2);
  response = http_get(server->port(), "/metrics");
  EXPECT_NE(body_of(response).find("fpgadbg_test_introspect_scrape_total 5"),
            std::string::npos);
}

TEST(Introspect, StatuszReportsProcessState) {
  auto server = start_server();
  telemetry::set_current_stage("introspect-test");
  const std::string body = body_of(http_get(server->port(), "/statusz"));
  telemetry::set_current_stage("");
  EXPECT_NE(body.find("version:"), std::string::npos);
  EXPECT_NE(body.find("uptime_seconds:"), std::string::npos);
  EXPECT_NE(body.find("active_stage: introspect-test"), std::string::npos);
  EXPECT_NE(body.find("registry_digest:"), std::string::npos);
}

TEST(Introspect, ProgresszServesTaskJson) {
  auto server = start_server();
  telemetry::ProgressReporter task("test.introspect_progress");
  task.set_total(8);
  task.advance(5);
  task.field("overused", 17.0);
  const std::string response = http_get(server->port(), "/progressz");
  EXPECT_NE(response.find("application/json"), std::string::npos);
  const JsonValue doc = parse_json(body_of(response));
  const JsonValue* tasks = doc.find("tasks");
  ASSERT_NE(tasks, nullptr);
  ASSERT_TRUE(tasks->is_array());
  const JsonValue* mine = nullptr;
  for (const JsonValue& t : tasks->array) {
    if (t.find("name") && t.find("name")->str == "test.introspect_progress") {
      mine = &t;
    }
  }
  ASSERT_NE(mine, nullptr);
  EXPECT_DOUBLE_EQ(mine->find("units_done")->number, 5.0);
  EXPECT_DOUBLE_EQ(mine->find("units_total")->number, 8.0);
}

TEST(Introspect, TracezShowsRingedSpans) {
  auto server = start_server();  // enables the span ring
  {
    telemetry::TraceScope span("introspect_test.span", "test");
  }
  const std::string body = body_of(http_get(server->port(), "/tracez"));
  EXPECT_NE(body.find("introspect_test.span"), std::string::npos);
}

TEST(Introspect, TracezRendersParentLinkedTree) {
  auto server = start_server();
  {
    telemetry::TraceScope outer("introspect_test.tree_outer", "test");
    telemetry::TraceScope inner("introspect_test.tree_inner", "test");
  }
  const std::string body = body_of(http_get(server->port(), "/tracez"));
  EXPECT_NE(body.find("parent-linked tree"), std::string::npos);
  const std::size_t outer_at = body.find("introspect_test.tree_outer");
  const std::size_t inner_at = body.find("`- introspect_test.tree_inner");
  ASSERT_NE(outer_at, std::string::npos);
  ASSERT_NE(inner_at, std::string::npos) << body;
  EXPECT_LT(outer_at, inner_at);
}

TEST(Introspect, StatuszReportsDroppedCountsAndSamplerState) {
  auto server = start_server();
  const std::string body = body_of(http_get(server->port(), "/statusz"));
  EXPECT_NE(body.find("dropped_spans:"), std::string::npos);
  EXPECT_NE(body.find("sampler: stopped"), std::string::npos);
  EXPECT_NE(body.find("dropped)"), std::string::npos);
}

TEST(Introspect, ProfilezReportsSamplerState) {
  auto server = start_server();
  const std::string body = body_of(http_get(server->port(), "/profilez"));
  EXPECT_NE(body.find("running: no"), std::string::npos);
  EXPECT_NE(body.find("samples:"), std::string::npos);
  EXPECT_NE(body.find("dropped_samples:"), std::string::npos);
  EXPECT_NE(body.find("top_symbols"), std::string::npos);
}

TEST(Introspect, FlamezServesCollapsedStacks) {
  auto server = start_server();
  const std::string response = http_get(server->port(), "/flamez");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  // Without a profiler run the endpoint still answers with a hint rather
  // than an empty body.
  EXPECT_FALSE(body_of(response).empty());
}

TEST(Introspect, MountServesCustomPage) {
  auto server = start_server();
  server->mount("/report", "the report body\n");
  std::string response = http_get(server->port(), "/report");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(response), "the report body\n");
  // Remounting replaces the body.
  server->mount("/report", "v2\n");
  EXPECT_EQ(body_of(http_get(server->port(), "/report")), "v2\n");
}

TEST(Introspect, HeadRequestOmitsBody) {
  auto server = start_server();
  const std::string response = http_get(server->port(), "/healthz", "HEAD");
  EXPECT_NE(response.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_EQ(body_of(response), "");
}

TEST(Introspect, QuitzUnblocksWaiters) {
  auto server = start_server();
  EXPECT_FALSE(server->quit_requested());
  EXPECT_FALSE(server->wait_quit(0.01));  // times out while no quit arrived
  std::thread quitter([port = server->port()] { http_get(port, "/quitz"); });
  EXPECT_TRUE(server->wait_quit(10.0));
  EXPECT_TRUE(server->quit_requested());
  quitter.join();
}

TEST(Introspect, CountsRequests) {
  auto server = start_server();
  const std::uint64_t before = server->requests_served();
  http_get(server->port(), "/healthz");
  http_get(server->port(), "/metrics");
  EXPECT_EQ(server->requests_served(), before + 2);
}

TEST(Introspect, TwoServersCoexist) {
  auto a = start_server();
  auto b = start_server();
  EXPECT_NE(a->port(), b->port());
  EXPECT_EQ(body_of(http_get(a->port(), "/healthz")), "ok\n");
  EXPECT_EQ(body_of(http_get(b->port(), "/healthz")), "ok\n");
}

// Concurrency hammer: writers update counters/histograms/progress at full
// speed — a fake route negotiation among them — while client threads scrape
// /metrics and /progressz.  Every response must stay well-formed and the
// scraped counter must be monotone non-decreasing across scrapes.  This is
// the scenario the standalone TSan smoke (run_introspect_tsan_smoke.sh)
// recompiles under -fsanitize=thread.
TEST(Introspect, HammerScrapeWhileWriting) {
  auto server = start_server();
  const int port = server->port();

  telemetry::Counter& counter =
      telemetry::metrics().counter("test.hammer_counter");
  counter.reset();
  telemetry::Histogram& hist =
      telemetry::metrics().histogram("test.hammer_hist");
  hist.reset();
  telemetry::Series& series =
      telemetry::metrics().series("test.hammer.iteration.overused");
  series.reset();

  std::atomic<bool> stop{false};
  std::atomic<bool> wrote{false};
  std::thread writer([&] {
    // A fake route loop: iteration-cadence progress + series, item-cadence
    // counter/histogram updates.
    telemetry::ProgressReporter progress("test.hammer_route");
    progress.set_total(0);  // indeterminate
    std::uint64_t iter = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++iter;
      for (int i = 0; i < 100; ++i) {
        counter.add(1);
        hist.observe(1e-4);
      }
      series.append(static_cast<double>(1000 / iter));
      progress.advance(iter);
      progress.field("overused_nodes", static_cast<double>(1000 / iter));
      telemetry::TraceScope span("introspect_test.hammer", "test");
      wrote.store(true, std::memory_order_release);
    }
  });
  // Scrape only once the writer has run an iteration: on a loaded host the
  // scrapes below can otherwise all finish before its first one.
  while (!wrote.load(std::memory_order_acquire)) std::this_thread::yield();

  std::uint64_t last_seen = 0;
  int scrapes_with_counter = 0;
  for (int round = 0; round < 25; ++round) {
    const std::string metrics_body = body_of(http_get(port, "/metrics"));
    ASSERT_FALSE(metrics_body.empty());
    // Parse the hammer counter out of the exposition and check monotonicity.
    const std::string needle = "fpgadbg_test_hammer_counter_total ";
    const auto pos = metrics_body.find(needle);
    if (pos != std::string::npos) {
      const std::uint64_t seen = std::strtoull(
          metrics_body.c_str() + pos + needle.size(), nullptr, 10);
      EXPECT_GE(seen, last_seen) << "counter went backwards";
      last_seen = seen;
      ++scrapes_with_counter;
    }
    const std::string progress_body = body_of(http_get(port, "/progressz"));
    ASSERT_FALSE(progress_body.empty());
    const JsonValue doc = parse_json(progress_body);  // throws if malformed
    ASSERT_NE(doc.find("tasks"), nullptr);
  }
  stop.store(true, std::memory_order_relaxed);
  writer.join();
  EXPECT_GT(scrapes_with_counter, 0);
  EXPECT_GT(counter.value(), 0u);
}

}  // namespace
}  // namespace fpgadbg
