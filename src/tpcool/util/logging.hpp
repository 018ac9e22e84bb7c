#pragma once
/// \file logging.hpp
/// \brief Minimal leveled logger. Quiet by default so tests and benches stay
///        clean; verbose levels help when debugging solver convergence.
///
/// The initial threshold comes from the `TPCOOL_LOG_LEVEL` environment
/// variable when set (`error`/`warn`/`info`/`debug`, case-insensitive, or
/// the numeric values 0-3); otherwise it is `warn`.  `set_log_level`
/// overrides it at any time.  `env_positive_integer` is the one strict
/// parser for the integer-valued TPCOOL_* overrides.

#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>

namespace tpcool::util {

enum class LogLevel { kError = 0, kWarn = 1, kInfo = 2, kDebug = 3 };

/// Global log threshold; messages above it are discarded.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// Parse a TPCOOL_LOG_LEVEL value: a level name (`error`, `warn`, `info`,
/// `debug`, case-insensitive) or its numeric value (`0`-`3`).  Returns
/// nullopt on anything else (the caller keeps the current level).
[[nodiscard]] std::optional<LogLevel> parse_log_level(std::string_view text);

/// Emit a message at the given level (to stderr).
void log(LogLevel level, const std::string& message);

/// Read the environment variable `name` as an integer >= 1 written in
/// decimal digits and nothing else.  Returns `fallback` when the variable
/// is unset, and also when it holds anything else ("4x", "0", "", "1e3"),
/// after a warning on stderr the first time `name` is rejected.
[[nodiscard]] std::size_t env_positive_integer(const char* name,
                                               std::size_t fallback);

namespace detail {

class LogStream {
 public:
  explicit LogStream(LogLevel level) : level_(level) {}
  ~LogStream() { log(level_, stream_.str()); }
  LogStream(const LogStream&) = delete;
  LogStream& operator=(const LogStream&) = delete;

  template <typename T>
  LogStream& operator<<(const T& value) {
    stream_ << value;
    return *this;
  }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace detail

inline detail::LogStream log_error() { return detail::LogStream(LogLevel::kError); }
inline detail::LogStream log_warn() { return detail::LogStream(LogLevel::kWarn); }
inline detail::LogStream log_info() { return detail::LogStream(LogLevel::kInfo); }
inline detail::LogStream log_debug() { return detail::LogStream(LogLevel::kDebug); }

}  // namespace tpcool::util
