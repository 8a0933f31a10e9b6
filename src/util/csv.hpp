// Minimal CSV reader/writer used by the trace module and the bench harness.
//
// Single-line RFC 4180: fields split on commas, double-quoted fields may
// contain commas, and "" inside quotes is a literal quote. Embedded
// newlines are the one RFC feature deliberately not supported (the reader
// is line-based); the writer rejects them and the reader reports an
// unterminated quote with its line number. The reader also validates
// column counts per row and reports the offending line number.
//
// Error taxonomy (util/status.hpp): structurally malformed input throws
// util::ParseError (an InvalidArgument carrying ErrorCode::kParseError and
// the 1-based line). The reader takes a stream; callers that open a file
// report a failure to open it themselves (trace::read_traces_file throws
// util::IoError), so "the file is corrupt" and "the file is unreachable"
// stay distinguishable.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace privlocad::util {

/// One parsed CSV table: a header row plus data rows of equal width.
struct CsvTable {
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;

  /// Index of a named column, throwing InvalidArgument if absent.
  std::size_t column(const std::string& name) const;
};

/// Parses CSV from a stream. First line is the header. Blank lines are
/// skipped. Throws InvalidArgument on ragged rows and malformed quoting
/// (with the line number).
CsvTable read_csv(std::istream& in);

/// Streaming CSV writer. Writes the header on construction.
class CsvWriter {
 public:
  CsvWriter(std::ostream& out, std::vector<std::string> header);

  /// Writes one row, quoting fields that contain commas or quotes; throws
  /// InvalidArgument if the width differs from the header's or a field
  /// contains a newline.
  void write_row(const std::vector<std::string>& fields);

 private:
  std::ostream& out_;
  std::size_t width_;
};

}  // namespace privlocad::util
