// Minimal leveled logger.  The level defaults to kWarn, so only warnings
// and errors (e.g. an unwritable telemetry export path) reach stderr or
// the installed sink; set_log_level() moves the bar.
#pragma once

#include <functional>
#include <sstream>
#include <string>
#include <string_view>

namespace wirecap {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Global minimum level; messages below it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Receives each formatted line ("[level] component: message", no
/// trailing newline) instead of stderr.
using LogSink = std::function<void(LogLevel, std::string_view line)>;

/// Installs `sink` as the log destination; a null sink restores stderr.
/// Tests capture warnings this way; long-running tools can tee to a file.
void set_log_sink(LogSink sink);

/// Emits one line, "[level] component: message".  The line is formatted
/// into a single buffer and written with one fwrite (or one sink call),
/// so concurrent loggers cannot interleave mid-line.
void log_line(LogLevel level, std::string_view component, std::string_view message);

/// Stream-style convenience: LogMessage(kInfo, "nic") << "ring " << i;
class LogMessage {
 public:
  LogMessage(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;
  ~LogMessage();

  template <typename T>
  LogMessage& operator<<(const T& value) {
    if (level_ >= log_level()) stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};

}  // namespace wirecap
