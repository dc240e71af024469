#include "obs/log.hpp"

#include <time.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <stdexcept>

#include "util/json.hpp"

namespace repl::obs {

namespace {

/// All mutable logger state behind one mutex. Log call rates are low
/// (connection events, respawns, periodic stats) — contention is not a
/// concern; the hot question is only `enabled`, answered by the relaxed
/// atomic floor below without taking the lock in the common
/// no-overrides case.
struct LoggerState {
  std::mutex mu;
  LogLevel default_level = LogLevel::kInfo;
  std::map<std::string, LogLevel> component_levels;
  bool json = false;
  std::function<void(const std::string&)> sink;

  /// Minimum of the default and every override: a level below this floor
  /// is disabled for every component, checked lock-free.
  std::atomic<int> floor{static_cast<int>(LogLevel::kInfo)};
  /// True once any component override exists (forces the map lookup).
  std::atomic<bool> has_overrides{false};

  void refresh_floor_locked() {
    int f = static_cast<int>(default_level);
    for (const auto& [component, level] : component_levels) {
      (void)component;
      f = std::min(f, static_cast<int>(level));
    }
    floor.store(f, std::memory_order_relaxed);
    has_overrides.store(!component_levels.empty(), std::memory_order_relaxed);
  }
};

LoggerState& state() {
  static LoggerState* s = new LoggerState();
  return *s;
}

std::string lower(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string trim(const std::string& text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

/// UTC wall-clock timestamp with millisecond precision, ISO-8601.
std::string timestamp() {
  const auto now = std::chrono::system_clock::now();
  const std::time_t secs = std::chrono::system_clock::to_time_t(now);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      now.time_since_epoch())
                      .count() %
                  1000;
  struct tm tm_utc;
  gmtime_r(&secs, &tm_utc);
  char buf[72];  // worst-case %04d expansions stay in bounds
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02dT%02d:%02d:%02d.%03dZ",
                tm_utc.tm_year + 1900, tm_utc.tm_mon + 1, tm_utc.tm_mday,
                tm_utc.tm_hour, tm_utc.tm_min, tm_utc.tm_sec,
                static_cast<int>(ms));
  return buf;
}

void append_json_string(std::string& out, const std::string& text) {
  out += '"';
  out += json_escape(text);
  out += '"';
}

}  // namespace

const char* log_level_name(LogLevel level) {
  switch (level) {
    case LogLevel::kTrace: return "trace";
    case LogLevel::kDebug: return "debug";
    case LogLevel::kInfo: return "info";
    case LogLevel::kWarn: return "warn";
    case LogLevel::kError: return "error";
    case LogLevel::kOff: return "off";
  }
  return "?";
}

LogLevel parse_log_level(const std::string& name) {
  const std::string n = lower(trim(name));
  if (n == "trace") return LogLevel::kTrace;
  if (n == "debug") return LogLevel::kDebug;
  if (n == "info") return LogLevel::kInfo;
  if (n == "warn" || n == "warning") return LogLevel::kWarn;
  if (n == "error") return LogLevel::kError;
  if (n == "off" || n == "none") return LogLevel::kOff;
  throw std::invalid_argument("unknown log level \"" + name +
                              "\" (want trace|debug|info|warn|error|off)");
}

Logger& Logger::global() {
  static Logger* logger = new Logger();
  return *logger;
}

void Logger::configure(const std::string& spec) {
  // Parse fully before applying: a malformed element must not leave the
  // logger half-configured.
  LogLevel default_level = LogLevel::kInfo;
  bool saw_default = false;
  std::map<std::string, LogLevel> overrides;
  std::size_t at = 0;
  while (at <= spec.size()) {
    const std::size_t comma = std::min(spec.find(',', at), spec.size());
    const std::string element = trim(spec.substr(at, comma - at));
    at = comma + 1;
    if (element.empty()) continue;
    const std::size_t eq = element.find('=');
    if (eq == std::string::npos) {
      if (saw_default) {
        throw std::invalid_argument("log spec \"" + spec +
                                    "\" sets the default level twice");
      }
      default_level = parse_log_level(element);
      saw_default = true;
    } else {
      const std::string component = trim(element.substr(0, eq));
      if (component.empty()) {
        throw std::invalid_argument("log spec element \"" + element +
                                    "\" names no component");
      }
      overrides[component] = parse_log_level(element.substr(eq + 1));
    }
  }
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  if (saw_default) s.default_level = default_level;
  for (const auto& [component, level] : overrides) {
    s.component_levels[component] = level;
  }
  s.refresh_floor_locked();
}

void Logger::set_default_level(LogLevel level) {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.default_level = level;
  s.refresh_floor_locked();
}

void Logger::set_component_level(const std::string& component,
                                 LogLevel level) {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.component_levels[component] = level;
  s.refresh_floor_locked();
}

void Logger::set_json(bool json) {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.json = json;
}

bool Logger::json() const {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.json;
}

void Logger::set_sink(std::function<void(const std::string&)> sink) {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.sink = std::move(sink);
}

void Logger::reset() {
  LoggerState& s = state();
  std::lock_guard<std::mutex> lock(s.mu);
  s.default_level = LogLevel::kInfo;
  s.component_levels.clear();
  s.json = false;
  s.sink = nullptr;
  s.refresh_floor_locked();
}

bool Logger::enabled(LogLevel level, const char* component) const {
  LoggerState& s = state();
  if (static_cast<int>(level) < s.floor.load(std::memory_order_relaxed)) {
    return false;
  }
  if (!s.has_overrides.load(std::memory_order_relaxed)) return true;
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.component_levels.find(component);
  const LogLevel threshold =
      it == s.component_levels.end() ? s.default_level : it->second;
  return static_cast<int>(level) >= static_cast<int>(threshold);
}

void Logger::log(LogLevel level, const char* component,
                 const std::string& message, const LogFields& fields) {
  if (!enabled(level, component)) return;
  LoggerState& s = state();
  std::string line;
  const std::string ts = timestamp();
  bool json;
  std::function<void(const std::string&)> sink;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    json = s.json;
    sink = s.sink;
  }
  if (json) {
    line = "{\"ts\":";
    append_json_string(line, ts);
    line += ",\"level\":";
    append_json_string(line, log_level_name(level));
    line += ",\"component\":";
    append_json_string(line, component);
    line += ",\"msg\":";
    append_json_string(line, message);
    for (const auto& [key, value] : fields) {
      line += ',';
      append_json_string(line, key);
      line += ':';
      append_json_string(line, value);
    }
    line += '}';
  } else {
    line = ts;
    line += ' ';
    std::string level_text = log_level_name(level);
    for (char& c : level_text) {
      c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    }
    line += level_text;
    line.append(level_text.size() < 5 ? 6 - level_text.size() : 1, ' ');
    line += component;
    line += ' ';
    line += message;
    for (const auto& [key, value] : fields) {
      line += ' ';
      line += key;
      line += '=';
      line += value;
    }
  }
  if (sink) {
    sink(line);
    return;
  }
  // One fputs per line: POSIX guarantees stderr writes of modest size
  // land unsplit, so concurrent processes sharing the fd (coordinator +
  // inherited worker stderr) interleave by whole lines.
  line += '\n';
  std::fputs(line.c_str(), stderr);
  std::fflush(stderr);
}

}  // namespace repl::obs
