#include "common/string_util.h"

#include <charconv>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>

namespace remac {

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && (s[b] == ' ' || s[b] == '\t' || s[b] == '\n' || s[b] == '\r'))
    ++b;
  while (e > b && (s[e - 1] == ' ' || s[e - 1] == '\t' || s[e - 1] == '\n' ||
                   s[e - 1] == '\r'))
    --e;
  return s.substr(b, e - b);
}

std::string ExactDoubleString(double value) {
  char buf[64];
  char* end = std::to_chars(buf, buf + sizeof(buf), value,
                            std::chars_format::general, 6)
                  .ptr;
  double back = 0.0;
  std::from_chars(buf, end, back);
  const bool exact = std::isnan(value)
                         ? std::isnan(back)
                         : std::memcmp(&back, &value, sizeof(double)) == 0;
  if (!exact) end = std::to_chars(buf, buf + sizeof(buf), value).ptr;
  return std::string(buf, end);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StringFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::string HumanBytes(double bytes) {
  const char* suffixes[] = {"B", "KB", "MB", "GB", "TB"};
  int idx = 0;
  while (bytes >= 1024.0 && idx < 4) {
    bytes /= 1024.0;
    ++idx;
  }
  return StringFormat("%.1f%s", bytes, suffixes[idx]);
}

std::string HumanSeconds(double seconds) {
  if (seconds < 1.0) return StringFormat("%.1fms", seconds * 1e3);
  if (seconds < 120.0) return StringFormat("%.2fs", seconds);
  if (seconds < 7200.0) return StringFormat("%.1fmin", seconds / 60.0);
  return StringFormat("%.2fh", seconds / 3600.0);
}

}  // namespace remac
