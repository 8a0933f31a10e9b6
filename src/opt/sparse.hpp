// Sparse (CSR) constraint storage for linear programs.
//
// The geo-IND mechanism LP has k^2 variables but only a handful of
// nonzeros per constraint row: a row-stochastic equality touches the k
// entries of one channel row, and a grid-edge ratio constraint touches
// exactly two variables. Storing those rows densely costs O(rows * k^2)
// memory and makes every simplex pivot a dense sweep, which kept a dense
// tableau solver to tiny grids. CsrMatrix keeps only the nonzeros, so
// constraint storage is O(nnz) and the revised simplex (opt/simplex.hpp)
// prices and ftrans in O(nnz per column).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace privlocad::opt {

/// Compressed-sparse-row matrix built row by row. Entries within a row
/// must be appended in strictly increasing column order (asserted in
/// debug builds, checked by SparseLpProblem::validate()).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(std::size_t cols) : cols_(cols) {}

  /// Appends one entry to the currently open row.
  void append(std::size_t col, double value) {
    assert(col < cols_);
    assert(open_row_entries_ == 0 ||
           col > static_cast<std::size_t>(col_.back()));
    col_.push_back(static_cast<std::uint32_t>(col));
    value_.push_back(value);
    ++open_row_entries_;
  }

  /// Closes the currently open row (possibly empty) and starts the next.
  void finish_row() {
    row_start_.push_back(col_.size());
    open_row_entries_ = 0;
  }

  std::size_t rows() const { return row_start_.size() - 1; }
  std::size_t cols() const { return cols_; }
  std::size_t nonzeros() const { return col_.size(); }

  /// Half-open nonzero index range [row_begin(r), row_end(r)) of row r;
  /// index into col_index() / value().
  std::size_t row_begin(std::size_t r) const {
    assert(r < rows());
    return row_start_[r];
  }
  std::size_t row_end(std::size_t r) const {
    assert(r < rows());
    return row_start_[r + 1];
  }
  std::uint32_t col_index(std::size_t nz) const {
    assert(nz < col_.size());
    return col_[nz];
  }
  double value(std::size_t nz) const {
    assert(nz < value_.size());
    return value_[nz];
  }

 private:
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_start_{0};
  std::vector<std::uint32_t> col_;
  std::vector<double> value_;
  std::size_t open_row_entries_ = 0;
};

/// The LP the revised simplex solves:
///   minimize c^T x  s.t.  A_eq x = b_eq,  A_ub x <= b_ub,  x >= 0.
struct SparseLpProblem {
  std::vector<double> objective;  ///< c, one entry per variable

  CsrMatrix eq_lhs;               ///< A_eq (may have 0 rows)
  std::vector<double> eq_rhs;     ///< b_eq

  CsrMatrix ub_lhs;               ///< A_ub (may have 0 rows)
  std::vector<double> ub_rhs;     ///< b_ub

  /// Validates dimensional consistency, finite coefficients, and
  /// in-range / strictly increasing column indices per row; throws
  /// util::InvalidArgument naming the offending block and sizes.
  void validate() const;
};

}  // namespace privlocad::opt
