// CSV serialization for traces.
//
// Format (one row per check-in, local metric coordinates):
//   user_id,x_m,y_m,timestamp
// The geographic variant writes lat/lon through a projection so exported
// traces can be inspected on a map.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "geo/projection.hpp"
#include "trace/check_in.hpp"

namespace privlocad::trace {

/// Writes traces as CSV rows (user_id,x_m,y_m,timestamp).
void write_traces(std::ostream& out, const std::vector<UserTrace>& traces);

/// Reads traces back; rows may be grouped, interleaved, or shuffled by
/// user AND by time. Traces are returned sorted by user id with each
/// user's check-ins stable-sorted by timestamp (equal timestamps keep
/// file order), since downstream profile-window and serving code assumes
/// time-ordered traces. Throws util::ParseError (an InvalidArgument),
/// naming the row, on a malformed or negative user_id or timestamp and
/// on a malformed or non-finite x_m or y_m.
std::vector<UserTrace> read_traces(std::istream& in);

/// Writes traces with geographic coordinates
/// (user_id,lat_deg,lon_deg,timestamp) using `projection`.
void write_traces_geo(std::ostream& out, const std::vector<UserTrace>& traces,
                      const geo::LocalProjection& projection);

/// File-path convenience wrappers; throw std::runtime_error on IO failure.
void write_traces_file(const std::string& path,
                       const std::vector<UserTrace>& traces);
std::vector<UserTrace> read_traces_file(const std::string& path);

}  // namespace privlocad::trace
