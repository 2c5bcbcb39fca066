#ifndef REMAC_COMMON_STRING_UTIL_H_
#define REMAC_COMMON_STRING_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

namespace remac {

/// Joins the elements of `parts` with `sep` between them.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` at every occurrence of `sep` (no empty-token suppression).
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StringFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Renders `value` so that parsing the text gives back the same double:
/// printf's %g form (6 significant digits, C locale) when that is exact,
/// otherwise the shortest form that round-trips (std::to_chars). Keys
/// built from constants must tell 0.1234561 from 0.1234564.
std::string ExactDoubleString(double value);

/// Renders a byte count with an IEC suffix, e.g., "30.0GB".
std::string HumanBytes(double bytes);

/// Renders a duration in seconds adaptively (ms / s / min / h).
std::string HumanSeconds(double seconds);

}  // namespace remac

#endif  // REMAC_COMMON_STRING_UTIL_H_
