// Minimal leveled logger.  Single global sink (stderr by default); the CAD
// stages log progress at Info and per-iteration detail at Debug.
//
// Emission is thread-safe: each LOG_* statement renders its message into a
// private buffer, then writes it to the sink as one line under the sink
// mutex, so concurrent LOG_* from different threads never interleave
// partial lines.  Two wire formats:
//   kText  [fpgadbg info ] message
//   kJson  {"ts": <unix seconds>, "level": "info", "tid": 3, "msg": "..."}
// (JSON-lines: one object per line, strings escaped).
#pragma once

#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace fpgadbg {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

enum class LogFormat { kText = 0, kJson = 1 };

/// Global minimum level; messages below it are discarded.
LogLevel log_level();
void set_log_level(LogLevel level);

/// Wire format of the global sink (text by default).
LogFormat log_format();
void set_log_format(LogFormat format);

/// "debug" / "info" / "warn" / "error" / "off" (case-sensitive) -> level;
/// nullopt for anything else.
std::optional<LogLevel> parse_log_level(std::string_view name);

/// Redirect log output (tests use this to capture messages). Pass nullptr to
/// restore stderr.
void set_log_stream(std::ostream* os);

namespace detail {
void log_emit(LogLevel level, const std::string& msg);

class LogLine {
 public:
  explicit LogLine(LogLevel level) : level_(level) {}
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;
  ~LogLine() { log_emit(level_, os_.str()); }

  template <typename T>
  LogLine& operator<<(const T& value) {
    os_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream os_;
};
}  // namespace detail

}  // namespace fpgadbg

#define FPGADBG_LOG(level)                          \
  if (::fpgadbg::log_level() > (level)) {           \
  } else                                            \
    ::fpgadbg::detail::LogLine(level)

#define LOG_DEBUG FPGADBG_LOG(::fpgadbg::LogLevel::kDebug)
#define LOG_INFO FPGADBG_LOG(::fpgadbg::LogLevel::kInfo)
#define LOG_WARN FPGADBG_LOG(::fpgadbg::LogLevel::kWarn)
#define LOG_ERROR FPGADBG_LOG(::fpgadbg::LogLevel::kError)
