#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace gbda {

std::vector<std::string> Split(std::string_view s, char sep, bool keep_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t end = s.find(sep, start);
    if (end == std::string_view::npos) end = s.size();
    std::string_view token = s.substr(start, end - start);
    if (keep_empty || !token.empty()) out.emplace_back(token);
    if (end == s.size()) break;
    start = end + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

Result<int64_t> ParseInt(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::InvalidArgument("empty integer token");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) return Status::OutOfRange("integer out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an integer: " + buf);
  }
  return static_cast<int64_t>(v);
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf(Trim(s));
  if (buf.empty()) return Status::InvalidArgument("empty float token");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return Status::OutOfRange("float out of range: " + buf);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a float: " + buf);
  }
  return v;
}

Result<uint64_t> ParseUint(std::string_view s, uint64_t max) {
  std::string buf(Trim(s));
  // strtoull would accept and negate a leading '-'.
  if (buf.empty() || !std::isdigit(static_cast<unsigned char>(buf[0]))) {
    return Status::InvalidArgument("not an unsigned integer: " + buf);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(buf.c_str(), &end, 10);
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not an unsigned integer: " + buf);
  }
  if (errno == ERANGE || v > max) {
    return Status::OutOfRange("integer out of range [0, " +
                              std::to_string(max) + "]: " + buf);
  }
  return static_cast<uint64_t>(v);
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < sizeof(units) / sizeof(units[0])) {
    v /= 1024.0;
    ++u;
  }
  return StrFormat(u == 0 ? "%.0f %s" : "%.2f %s", v, units[u]);
}

std::string HumanSeconds(double seconds) {
  if (seconds < 1e-3) return StrFormat("%.1f us", seconds * 1e6);
  if (seconds < 1.0) return StrFormat("%.1f ms", seconds * 1e3);
  if (seconds < 120.0) return StrFormat("%.2f s", seconds);
  if (seconds < 7200.0) return StrFormat("%.1f min", seconds / 60.0);
  return StrFormat("%.2f h", seconds / 3600.0);
}

}  // namespace gbda
