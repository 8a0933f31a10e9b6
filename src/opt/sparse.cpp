#include "opt/sparse.hpp"

#include <cmath>
#include <string>

#include "util/validation.hpp"

namespace privlocad::opt {

namespace {

void validate_block(const CsrMatrix& lhs, const std::vector<double>& rhs,
                    std::size_t variables, const char* name) {
  util::require(lhs.rows() == rhs.size(),
                std::string("A_") + name + " has " +
                    std::to_string(lhs.rows()) + " rows but b_" + name +
                    " has " + std::to_string(rhs.size()) + " entries");
  util::require(lhs.rows() == 0 || lhs.cols() == variables,
                std::string("A_") + name + " has " +
                    std::to_string(lhs.cols()) + " columns but the LP has " +
                    std::to_string(variables) + " variables");
  for (std::size_t r = 0; r < lhs.rows(); ++r) {
    std::uint32_t previous = 0;
    bool first = true;
    for (std::size_t nz = lhs.row_begin(r); nz < lhs.row_end(r); ++nz) {
      const std::uint32_t col = lhs.col_index(nz);
      util::require(col < lhs.cols(),
                    std::string("A_") + name + " row " + std::to_string(r) +
                        " references column " + std::to_string(col) +
                        " but the matrix has " + std::to_string(lhs.cols()) +
                        " columns");
      util::require(first || col > previous,
                    std::string("A_") + name + " row " + std::to_string(r) +
                        " columns are not strictly increasing at column " +
                        std::to_string(col));
      util::require(std::isfinite(lhs.value(nz)),
                    std::string("A_") + name + " row " + std::to_string(r) +
                        " has a non-finite coefficient");
      previous = col;
      first = false;
    }
  }
  for (std::size_t r = 0; r < rhs.size(); ++r) {
    util::require(std::isfinite(rhs[r]),
                  std::string("b_") + name + " entry " + std::to_string(r) +
                      " is non-finite");
  }
}

}  // namespace

void SparseLpProblem::validate() const {
  util::require(!objective.empty(), "LP needs at least one variable");
  validate_block(eq_lhs, eq_rhs, objective.size(), "eq");
  validate_block(ub_lhs, ub_rhs, objective.size(), "ub");
}

}  // namespace privlocad::opt
