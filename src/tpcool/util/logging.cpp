#include "tpcool/util/logging.hpp"

#include <atomic>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>

namespace tpcool::util {

namespace {

LogLevel initial_level() {
  if (const char* env = std::getenv("TPCOOL_LOG_LEVEL");
      env != nullptr && *env != '\0') {
    if (const auto parsed = parse_log_level(env)) return *parsed;
    // Can't use the logger here (it's being initialized); warn directly.
    std::cerr << "[tpcool:WARN] ignoring unrecognized TPCOOL_LOG_LEVEL=\""
              << env << "\" (want error|warn|info|debug or 0-3)\n";
  }
  return LogLevel::kWarn;
}

/// Lazily initialized so the env var is read on first logger use, whatever
/// static-initialization order the program has.
std::atomic<LogLevel>& level_slot() {
  static std::atomic<LogLevel> level{initial_level()};
  return level;
}

const char* level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kError: return "ERROR";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kDebug: return "DEBUG";
  }
  return "?";
}
}  // namespace

std::optional<LogLevel> parse_log_level(std::string_view text) {
  std::string lower;
  lower.reserve(text.size());
  for (const char c : text) {
    lower += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (lower == "error" || lower == "0") return LogLevel::kError;
  if (lower == "warn" || lower == "warning" || lower == "1") return LogLevel::kWarn;
  if (lower == "info" || lower == "2") return LogLevel::kInfo;
  if (lower == "debug" || lower == "3") return LogLevel::kDebug;
  return std::nullopt;
}

void set_log_level(LogLevel level) { level_slot().store(level); }

LogLevel log_level() { return level_slot().load(); }

void log(LogLevel level, const std::string& message) {
  if (static_cast<int>(level) > static_cast<int>(level_slot().load())) return;
  if (message.empty()) return;
  std::cerr << "[tpcool:" << level_name(level) << "] " << message << '\n';
}

std::size_t env_positive_integer(const char* name, std::size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view text(env);
  std::size_t value = 0;
  const auto [end, error] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (error == std::errc() && end == text.data() + text.size() && value >= 1) {
    return value;
  }
  // Straight to stderr, not through log_warn(): a mistyped override must
  // not pass silently whatever TPCOOL_LOG_LEVEL says.
  static std::mutex mutex;
  static std::set<std::string> warned;
  std::lock_guard lock(mutex);
  if (warned.emplace(name).second) {
    std::cerr << "tpcool: ignoring " << name << "=" << env
              << " (want an integer >= 1)\n";
  }
  return fallback;
}

}  // namespace tpcool::util
