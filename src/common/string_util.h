// Small string helpers used across modules (no std::format on GCC 12).

#ifndef TREEWM_COMMON_STRING_UTIL_H_
#define TREEWM_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace treewm {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading/trailing ASCII whitespace.
std::string_view StrTrim(std::string_view text);

/// Lower-cases ASCII letters.
std::string StrToLower(std::string_view text);

/// Parses a double; returns false on malformed input or trailing garbage.
bool ParseDouble(std::string_view text, double* out);

/// Parses a signed 64-bit integer; returns false on malformed input.
bool ParseInt64(std::string_view text, int64_t* out);

}  // namespace treewm

#endif  // TREEWM_COMMON_STRING_UTIL_H_
