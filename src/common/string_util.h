#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace gbda {

/// Splits `s` on `sep`, dropping empty tokens when `keep_empty` is false.
std::vector<std::string> Split(std::string_view s, char sep, bool keep_empty = false);

/// Joins tokens with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

bool StartsWith(std::string_view s, std::string_view prefix);

/// Strict integer / floating-point parsers (whole string must parse).
Result<int64_t> ParseInt(std::string_view s);
Result<double> ParseDouble(std::string_view s);
/// Unsigned decimal in [0, max]; a sign, trailing text or a value past
/// `max` is an error rather than a wrap or a truncation.
Result<uint64_t> ParseUint(std::string_view s, uint64_t max = UINT64_MAX);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte count ("1.5 KB", "13.3 GB").
std::string HumanBytes(uint64_t bytes);

/// Human-readable duration ("231.4 ms", "3.8 h").
std::string HumanSeconds(double seconds);

}  // namespace gbda
