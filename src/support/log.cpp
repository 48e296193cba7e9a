#include "support/log.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

#include "support/json.h"
#include "support/telemetry.h"

namespace fpgadbg {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};
std::atomic<LogFormat> g_format{LogFormat::kText};
std::ostream* g_stream = nullptr;  // nullptr -> std::cerr
std::mutex g_mutex;

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info ";
    case LogLevel::kWarn:
      return "warn ";
    case LogLevel::kError:
      return "error";
    default:
      return "?????";
  }
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    default:
      return "unknown";
  }
}

/// Small dense thread ids for the JSON "tid" field (stable per thread).
int thread_id() {
  static std::atomic<int> next{0};
  thread_local int id = next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

}  // namespace

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_level(LogLevel level) {
  g_level.store(level, std::memory_order_relaxed);
}

LogFormat log_format() { return g_format.load(std::memory_order_relaxed); }

void set_log_format(LogFormat format) {
  g_format.store(format, std::memory_order_relaxed);
}

std::optional<LogLevel> parse_log_level(std::string_view name) {
  if (name == "debug") return LogLevel::kDebug;
  if (name == "info") return LogLevel::kInfo;
  if (name == "warn") return LogLevel::kWarn;
  if (name == "error") return LogLevel::kError;
  if (name == "off") return LogLevel::kOff;
  return std::nullopt;
}

void set_log_stream(std::ostream* os) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_stream = os;
}

namespace detail {

void log_emit(LogLevel level, const std::string& msg) {
  // Render the full line outside the sink lock so the critical section is a
  // single unseparable write.
  std::string line;
  if (log_format() == LogFormat::kJson) {
    const double ts =
        std::chrono::duration<double>(
            std::chrono::system_clock::now().time_since_epoch())
            .count();
    char head[96];
    std::snprintf(head, sizeof head,
                  "{\"ts\": %.3f, \"level\": \"%s\", \"tid\": %d, \"msg\": ",
                  ts, level_name(level), thread_id());
    line = head;
    line += support::json_quote(msg);
    // Causal join key: a line emitted under an active TraceScope carries the
    // ids its spans and journal events carry, so slow-turn logs grep straight
    // to their trace.
    const telemetry::TraceContext ctx = telemetry::current_trace_context();
    if (ctx.active()) {
      char ids[64];
      std::snprintf(ids, sizeof ids, ", \"trace_id\": %llu, \"span_id\": %llu",
                    static_cast<unsigned long long>(ctx.trace_id),
                    static_cast<unsigned long long>(ctx.span_id));
      line += ids;
    }
    line += "}\n";
  } else {
    line = "[fpgadbg ";
    line += level_tag(level);
    line += "] ";
    line += msg;
    line += '\n';
  }
  std::lock_guard<std::mutex> lock(g_mutex);
  std::ostream& os = g_stream ? *g_stream : std::cerr;
  os << line;
  os.flush();
}

}  // namespace detail
}  // namespace fpgadbg
