// Small string utilities shared across modules (CSV parsing, report
// formatting). Kept deliberately minimal: nothing here allocates beyond what
// the returned values require.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace privlocad::util {

/// Splits `text` on `delimiter`, keeping empty fields. "a,,b" -> {a, "", b}.
std::vector<std::string> split(std::string_view text, char delimiter);

/// Removes leading and trailing ASCII whitespace.
std::string_view trim(std::string_view text);

/// Parses a double, throwing InvalidArgument on malformed or trailing input.
double parse_double(std::string_view text);

/// Parses a decimal integer, sign allowed ("-7" gives -7), throwing
/// InvalidArgument on malformed or trailing input or overflow.
long long parse_int(std::string_view text);

/// parse_int limited to [min, max]: nullopt on malformed input or a value
/// outside the range, for callers that name the field in their own error
/// (a count flag, a CSV column).
std::optional<long long> parse_int_in(std::string_view text, long long min,
                                      long long max);

/// Joins `parts` with `separator`. join({"a","b"}, ", ") -> "a, b".
std::string join(const std::vector<std::string>& parts,
                 std::string_view separator);

/// Formats `value` with `digits` places after the decimal point.
std::string format_double(double value, int digits);

}  // namespace privlocad::util
