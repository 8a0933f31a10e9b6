#include "util/strings.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <limits>

#include "util/validation.hpp"

namespace privlocad::util {

std::vector<std::string> split(std::string_view text, char delimiter) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = text.find(delimiter, start);
    if (pos == std::string_view::npos) {
      fields.emplace_back(text.substr(start));
      return fields;
    }
    fields.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

double parse_double(std::string_view text) {
  const std::string_view trimmed = trim(text);
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size()) {
    throw InvalidArgument("not a valid double: '" + std::string(text) + "'");
  }
  return value;
}

long long parse_int(std::string_view text) {
  const std::optional<long long> value =
      parse_int_in(text, std::numeric_limits<long long>::min(),
                   std::numeric_limits<long long>::max());
  if (!value) {
    throw InvalidArgument("not a valid integer: '" + std::string(text) + "'");
  }
  return *value;
}

std::optional<long long> parse_int_in(std::string_view text, long long min,
                                      long long max) {
  const std::string_view trimmed = trim(text);
  long long value = 0;
  const auto [ptr, ec] =
      std::from_chars(trimmed.data(), trimmed.data() + trimmed.size(), value);
  if (ec != std::errc{} || ptr != trimmed.data() + trimmed.size() ||
      value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view separator) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out.append(separator);
    out.append(parts[i]);
  }
  return out;
}

std::string format_double(double value, int digits) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", digits, value);
  return buffer;
}

}  // namespace privlocad::util
