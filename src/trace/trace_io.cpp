#include "trace/trace_io.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <map>
#include <ostream>

#include "util/csv.hpp"
#include "util/status.hpp"
#include "util/strings.hpp"
#include "util/validation.hpp"

namespace privlocad::trace {

void write_traces(std::ostream& out, const std::vector<UserTrace>& traces) {
  util::CsvWriter writer(out, {"user_id", "x_m", "y_m", "timestamp"});
  for (const UserTrace& trace : traces) {
    for (const CheckIn& c : trace.check_ins) {
      writer.write_row({std::to_string(trace.user_id),
                        util::format_double(c.position.x, 3),
                        util::format_double(c.position.y, 3),
                        std::to_string(c.time)});
    }
  }
}

std::vector<UserTrace> read_traces(std::istream& in) {
  const util::CsvTable table = util::read_csv(in);
  const std::size_t id_col = table.column("user_id");
  const std::size_t x_col = table.column("x_m");
  const std::size_t y_col = table.column("y_m");
  const std::size_t t_col = table.column("timestamp");

  std::map<std::uint64_t, UserTrace> by_user;
  for (std::size_t r = 0; r < table.rows.size(); ++r) {
    const auto& row = table.rows[r];
    // Every field is checked here, with the offending row in the error:
    // downstream profile-window and serving code treats the timestamp as
    // seconds-since-epoch and the coordinates as finite plane meters, so
    // a malformed value must fail loudly, not propagate as a
    // context-free parse error (or worse, a bogus window or user id).
    const auto reject = [r, &row](std::size_t col, const char* field,
                                  const char* need) {
      return util::ParseError("trace row " + std::to_string(r + 1) + ": " +
                                  field + " '" + row[col] + "' " + need,
                              r + 2);  // +1 for the header, +1 for 1-basing
    };
    const auto non_negative_int = [&](std::size_t col, const char* field) {
      const auto value = util::parse_int_in(
          row[col], 0, std::numeric_limits<long long>::max());
      if (!value) throw reject(col, field, "is not a non-negative integer");
      return *value;
    };
    const auto finite_double = [&](std::size_t col, const char* field) {
      double value = 0.0;
      try {
        value = util::parse_double(row[col]);
      } catch (const util::InvalidArgument&) {
        throw reject(col, field, "is not a number");
      }
      if (!std::isfinite(value)) throw reject(col, field, "must be finite");
      return value;
    };

    const Timestamp time = non_negative_int(t_col, "timestamp");
    const auto id =
        static_cast<std::uint64_t>(non_negative_int(id_col, "user_id"));
    const geo::Point position{finite_double(x_col, "x_m"),
                              finite_double(y_col, "y_m")};
    UserTrace& trace = by_user[id];
    trace.user_id = id;
    trace.check_ins.push_back({position, time});
  }

  std::vector<UserTrace> traces;
  traces.reserve(by_user.size());
  for (auto& [id, trace] : by_user) {
    // Downstream consumers (profile windows, edge serving) assume each
    // trace is time-ordered, but rows may arrive in any order. Stable so
    // equal-timestamp check-ins keep their file order.
    std::stable_sort(trace.check_ins.begin(), trace.check_ins.end(),
                     [](const CheckIn& a, const CheckIn& b) {
                       return a.time < b.time;
                     });
    traces.push_back(std::move(trace));
  }
  return traces;
}

void write_traces_geo(std::ostream& out, const std::vector<UserTrace>& traces,
                      const geo::LocalProjection& projection) {
  util::CsvWriter writer(out, {"user_id", "lat_deg", "lon_deg", "timestamp"});
  for (const UserTrace& trace : traces) {
    for (const CheckIn& c : trace.check_ins) {
      const geo::LatLon geo_pos = projection.to_geo(c.position);
      writer.write_row({std::to_string(trace.user_id),
                        util::format_double(geo_pos.lat_deg, 7),
                        util::format_double(geo_pos.lon_deg, 7),
                        std::to_string(c.time)});
    }
  }
}

void write_traces_file(const std::string& path,
                       const std::vector<UserTrace>& traces) {
  std::ofstream out(path);
  if (!out) throw util::IoError("cannot open for writing: " + path);
  write_traces(out, traces);
}

std::vector<UserTrace> read_traces_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw util::IoError("cannot open for reading: " + path);
  return read_traces(in);
}

}  // namespace privlocad::trace
