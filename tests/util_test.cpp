// Unit tests for the util module: strings, CSV, validation, timer.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "util/csv.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"
#include "util/validation.hpp"

namespace privlocad::util {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b", ',');
  ASSERT_EQ(fields.size(), 3u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
}

TEST(Strings, SplitSingleField) {
  const auto fields = split("alone", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "alone");
}

TEST(Strings, SplitEmptyStringYieldsOneEmptyField) {
  const auto fields = split("", ',');
  ASSERT_EQ(fields.size(), 1u);
  EXPECT_EQ(fields[0], "");
}

TEST(Strings, TrimStripsBothEnds) {
  EXPECT_EQ(trim("  x \t"), "x");
  EXPECT_EQ(trim("x"), "x");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(Strings, ParseDoubleAcceptsWhitespaceAndSign) {
  EXPECT_DOUBLE_EQ(parse_double(" 3.5 "), 3.5);
  EXPECT_DOUBLE_EQ(parse_double("-2e3"), -2000.0);
  EXPECT_DOUBLE_EQ(parse_double("0"), 0.0);
}

TEST(Strings, ParseDoubleRejectsGarbage) {
  EXPECT_THROW(parse_double("abc"), InvalidArgument);
  EXPECT_THROW(parse_double("1.5x"), InvalidArgument);
  EXPECT_THROW(parse_double(""), InvalidArgument);
}

TEST(Strings, ParseIntRoundTrip) {
  EXPECT_EQ(parse_int("42"), 42);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_THROW(parse_int("1.5"), InvalidArgument);
  EXPECT_THROW(parse_int("99999999999999999999"), InvalidArgument);
}

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({"solo"}, ","), "solo");
  EXPECT_EQ(join({}, ","), "");
}

TEST(Strings, FormatDoubleRespectsDigits) {
  EXPECT_EQ(format_double(3.14159, 2), "3.14");
  EXPECT_EQ(format_double(1.0, 0), "1");
}

// ------------------------------------------------------------------- CSV

TEST(Csv, ReadSimpleTable) {
  std::istringstream in("a,b\n1,2\n3,4\n");
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.header.size(), 2u);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[1][0], "3");
  EXPECT_EQ(table.column("b"), 1u);
}

TEST(Csv, SkipsBlankLinesAndCarriageReturns) {
  std::istringstream in("a,b\r\n\n1,2\r\n   \n3,4\n");
  const CsvTable table = read_csv(in);
  EXPECT_EQ(table.rows.size(), 2u);
}

TEST(Csv, RejectsRaggedRowWithLineNumber) {
  std::istringstream in("a,b\n1,2,3\n");
  try {
    read_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Csv, RaggedRowIsATypedParseErrorCarryingTheLine) {
  std::istringstream in("a,b\n1,2\n3\n");
  try {
    read_csv(in);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kParseError);
    EXPECT_EQ(e.line(), 3u);
  }
}

TEST(Csv, UnknownColumnThrows) {
  std::istringstream in("a,b\n1,2\n");
  const CsvTable table = read_csv(in);
  EXPECT_THROW(table.column("zzz"), InvalidArgument);
}

TEST(Csv, WriterRoundTripsThroughReader) {
  std::ostringstream out;
  CsvWriter writer(out, {"x", "y"});
  writer.write_row({"1.5", "2.5"});
  writer.write_row({"3", "4"});

  std::istringstream in(out.str());
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][1], "2.5");
}

TEST(Csv, WriterRejectsWrongWidth) {
  std::ostringstream out;
  CsvWriter writer(out, {"x", "y"});
  EXPECT_THROW(writer.write_row({"only-one"}), InvalidArgument);
}

TEST(Csv, WriterRejectsEmptyHeader) {
  std::ostringstream out;
  EXPECT_THROW(CsvWriter(out, {}), InvalidArgument);
}

TEST(Csv, QuotedFieldsMayContainCommas) {
  // Regression: the reader used to split on every comma, so a quoted
  // "lat,lon" pair silently became two fields and shifted the row.
  std::istringstream in("place,coords\nhome,\"47.37,8.54\"\n");
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.rows.size(), 1u);
  ASSERT_EQ(table.rows[0].size(), 2u);
  EXPECT_EQ(table.rows[0][1], "47.37,8.54");
}

TEST(Csv, DoubledQuoteInsideQuotedFieldIsLiteral) {
  std::istringstream in("a,b\n\"say \"\"hi\"\"\",2\n");
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "say \"hi\"");
}

TEST(Csv, EmptyQuotedFieldAndTrailingComma) {
  std::istringstream in("a,b,c\n\"\",x,\n");
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.rows.size(), 1u);
  EXPECT_EQ(table.rows[0][0], "");
  EXPECT_EQ(table.rows[0][2], "");
}

TEST(Csv, UnterminatedQuoteNamesTheLine) {
  std::istringstream in("a,b\n\"oops,2\n");
  try {
    read_csv(in);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 2"), std::string::npos);
    EXPECT_NE(what.find("unterminated"), std::string::npos);
  }
}

TEST(Csv, GarbageAfterClosingQuoteThrows) {
  std::istringstream in("a,b\n\"x\"y,2\n");
  EXPECT_THROW(read_csv(in), InvalidArgument);
}

TEST(Csv, StrayQuoteInUnquotedFieldThrows) {
  std::istringstream in("a,b\n1,2\"3\n");
  EXPECT_THROW(read_csv(in), InvalidArgument);
}

TEST(Csv, WriterQuotesAndRoundTripsSpecialFields) {
  std::ostringstream out;
  CsvWriter writer(out, {"name", "note"});
  writer.write_row({"a,b", "say \"hi\""});
  writer.write_row({"plain", ""});

  std::istringstream in(out.str());
  const CsvTable table = read_csv(in);
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][0], "a,b");
  EXPECT_EQ(table.rows[0][1], "say \"hi\"");
  EXPECT_EQ(table.rows[1][0], "plain");
}

TEST(Csv, WriterRejectsEmbeddedNewlines) {
  std::ostringstream out;
  CsvWriter writer(out, {"x"});
  EXPECT_THROW(writer.write_row({"two\nlines"}), InvalidArgument);
  EXPECT_THROW(writer.write_row({"cr\rhere"}), InvalidArgument);
}

// ------------------------------------------------------------- validation

TEST(Validation, RequirePositive) {
  EXPECT_NO_THROW(require_positive(0.1, "p"));
  EXPECT_THROW(require_positive(0.0, "p"), InvalidArgument);
  EXPECT_THROW(require_positive(-1.0, "p"), InvalidArgument);
  EXPECT_THROW(require_positive(std::nan(""), "p"), InvalidArgument);
}

TEST(Validation, RequireNonNegative) {
  EXPECT_NO_THROW(require_non_negative(0.0, "p"));
  EXPECT_THROW(require_non_negative(-0.1, "p"), InvalidArgument);
}

TEST(Validation, RequireUnitOpen) {
  EXPECT_NO_THROW(require_unit_open(0.5, "p"));
  EXPECT_THROW(require_unit_open(0.0, "p"), InvalidArgument);
  EXPECT_THROW(require_unit_open(1.0, "p"), InvalidArgument);
}

TEST(Validation, MessagesNameTheParameter) {
  try {
    require_positive(-2.0, "epsilon");
    FAIL();
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("epsilon"), std::string::npos);
  }
}

// ------------------------------------------------------------------ timer

TEST(Timer, ElapsedIsMonotonicNonNegative) {
  Timer timer;
  const double a = timer.elapsed_seconds();
  const double b = timer.elapsed_seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  EXPECT_NEAR(timer.elapsed_millis(), timer.elapsed_seconds() * 1e3, 50.0);
}

TEST(Timer, ResetRestartsClock) {
  Timer timer;
  timer.reset();
  EXPECT_LT(timer.elapsed_seconds(), 1.0);
}

}  // namespace
}  // namespace privlocad::util
