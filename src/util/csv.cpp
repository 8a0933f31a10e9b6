#include "util/csv.hpp"

#include <istream>
#include <ostream>

#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/validation.hpp"

namespace privlocad::util {
namespace {

/// Splits one physical CSV line into fields, honoring RFC-4180 double
/// quotes: a quoted field may contain commas, and "" inside quotes is a
/// literal quote. Errors carry `line_number` so a bad row is findable.
/// Multi-line quoted fields (embedded newlines) are not supported; the
/// writer refuses to produce them.
std::vector<std::string> split_csv_line(const std::string& line,
                                        std::size_t line_number) {
  std::vector<std::string> fields;
  std::string field;
  std::size_t i = 0;
  const auto context = [line_number] {
    return "CSV line " + std::to_string(line_number);
  };

  while (true) {
    field.clear();
    if (i < line.size() && line[i] == '"') {
      // Quoted field: scan to the closing quote, folding "" into ".
      ++i;
      bool closed = false;
      while (i < line.size()) {
        if (line[i] == '"') {
          if (i + 1 < line.size() && line[i + 1] == '"') {
            field += '"';
            i += 2;
            continue;
          }
          ++i;
          closed = true;
          break;
        }
        field += line[i++];
      }
      if (!closed) {
        throw ParseError(context() +
                             ": unterminated quoted field (multi-line "
                             "quoted fields are unsupported)",
                         line_number);
      }
      if (i < line.size() && line[i] != ',') {
        throw ParseError(
            context() + ": unexpected character after closing quote",
            line_number);
      }
    } else {
      // Unquoted field: runs to the next comma; a stray quote inside it
      // means the producer meant quoting we would otherwise mis-parse.
      while (i < line.size() && line[i] != ',') {
        if (line[i] == '"') {
          throw ParseError(
              context() + ": unexpected '\"' inside unquoted field",
              line_number);
        }
        field += line[i++];
      }
    }
    fields.push_back(field);
    if (i >= line.size()) return fields;
    ++i;  // consume the comma; a trailing comma yields a final empty field
  }
}

/// True when RFC 4180 requires the field to be double-quoted.
bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"") != std::string::npos;
}

std::string escape_field(const std::string& field) {
  if (field.find_first_of("\n\r") != std::string::npos) {
    throw InvalidArgument(
        "CSV fields must not contain newlines (the reader is line-based)");
  }
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (const char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string render_row(const std::vector<std::string>& fields) {
  std::vector<std::string> escaped;
  escaped.reserve(fields.size());
  for (const std::string& field : fields) {
    escaped.push_back(escape_field(field));
  }
  return join(escaped, ",");
}

}  // namespace

std::size_t CsvTable::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return i;
  }
  throw ParseError("CSV has no column named '" + name + "'");
}

CsvTable read_csv(std::istream& in) {
  CsvTable table;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (trim(line).empty()) continue;
    auto fields = split_csv_line(line, line_number);
    if (table.header.empty()) {
      table.header = std::move(fields);
      continue;
    }
    if (fields.size() != table.header.size()) {
      throw ParseError("CSV line " + std::to_string(line_number) + " has " +
                           std::to_string(fields.size()) +
                           " fields, expected " +
                           std::to_string(table.header.size()),
                       line_number);
    }
    table.rows.push_back(std::move(fields));
  }
  return table;
}

CsvWriter::CsvWriter(std::ostream& out, std::vector<std::string> header)
    : out_(out), width_(header.size()) {
  require(width_ > 0, "CSV header must not be empty");
  out_ << render_row(header) << '\n';
}

void CsvWriter::write_row(const std::vector<std::string>& fields) {
  if (fields.size() != width_) {
    throw InvalidArgument("CSV row width " + std::to_string(fields.size()) +
                          " does not match header width " +
                          std::to_string(width_));
  }
  out_ << render_row(fields) << '\n';
}

}  // namespace privlocad::util
