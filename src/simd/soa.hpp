// Structure-of-arrays views over 2-D points.
//
// The hot kernels consume coordinates as two contiguous double arrays
// (xs[] / ys[]), unit-stride loads rather than a gather over AoS
// geo::Point objects. PointSpan is the non-owning view the kernels
// take; SoaPoints is the owning scratch that converts an AoS
// vector<Point> into that layout while reusing its capacity across
// calls (the same pattern DeobfuscationWorkspace uses for the attack's
// scratch). These spans are the native view type the ROADMAP's columnar
// data plane will expose directly, at which point the conversion step
// disappears for stores that are already columnar.
#pragma once

#include <cstddef>
#include <vector>

#include "geo/point.hpp"

namespace privlocad::simd {

/// Non-owning SoA view: n points whose coordinates live at xs[i], ys[i].
/// Plain pointers + size, the same shape the kernels take.
struct PointSpan {
  const double* xs = nullptr;
  const double* ys = nullptr;
  std::size_t size = 0;
};

/// Owning SoA scratch with capacity reuse. assign() is the AoS -> SoA
/// conversion edge; keep one instance alive (thread_local or in a
/// workspace) so steady-state conversions allocate nothing.
class SoaPoints {
 public:
  void clear() {
    xs_.clear();
    ys_.clear();
  }

  void assign(const std::vector<geo::Point>& points) {
    xs_.resize(points.size());
    ys_.resize(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      xs_[i] = points[i].x;
      ys_[i] = points[i].y;
    }
  }

  void push_back(geo::Point p) {
    xs_.push_back(p.x);
    ys_.push_back(p.y);
  }

  geo::Point at(std::size_t i) const { return {xs_[i], ys_[i]}; }

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const double* xs() const { return xs_.data(); }
  const double* ys() const { return ys_.data(); }

  PointSpan span() const { return {xs_.data(), ys_.data(), xs_.size()}; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace privlocad::simd
