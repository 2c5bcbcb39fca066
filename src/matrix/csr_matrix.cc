#include "matrix/csr_matrix.h"

#include <algorithm>
#include <cassert>
#include <tuple>

namespace remac {

CsrMatrix::CsrMatrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), row_ptr_(static_cast<size_t>(rows) + 1, 0) {}

CsrMatrix CsrMatrix::FromTriplets(
    int64_t rows, int64_t cols,
    std::vector<std::tuple<int64_t, int64_t, double>> triplets) {
  std::sort(triplets.begin(), triplets.end());
  CsrMatrix m(rows, cols);
  m.col_idx_.reserve(triplets.size());
  m.values_.reserve(triplets.size());
  int64_t prev_r = -1;
  int64_t prev_c = -1;
  for (const auto& [r, c, v] : triplets) {
    assert(r >= 0 && r < rows && c >= 0 && c < cols);
    if (r == prev_r && c == prev_c) {
      m.values_.back() += v;  // merge duplicates
      continue;
    }
    // Close out row pointers up to r.
    for (int64_t rr = prev_r + 1; rr <= r; ++rr) {
      m.row_ptr_[rr] = static_cast<int64_t>(m.values_.size());
    }
    m.col_idx_.push_back(static_cast<int32_t>(c));
    m.values_.push_back(v);
    prev_r = r;
    prev_c = c;
  }
  for (int64_t rr = prev_r + 1; rr <= rows; ++rr) {
    m.row_ptr_[rr] = static_cast<int64_t>(m.values_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::FromDense(const DenseMatrix& dense) {
  CsrMatrix m(dense.rows(), dense.cols());
  for (int64_t r = 0; r < dense.rows(); ++r) {
    for (int64_t c = 0; c < dense.cols(); ++c) {
      const double v = dense.At(r, c);
      if (v != 0.0) {
        m.col_idx_.push_back(static_cast<int32_t>(c));
        m.values_.push_back(v);
      }
    }
    m.row_ptr_[r + 1] = static_cast<int64_t>(m.values_.size());
  }
  return m;
}

DenseMatrix CsrMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (int64_t r = 0; r < rows_; ++r) {
    for (int64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out.At(r, col_idx_[k]) = values_[k];
    }
  }
  return out;
}

}  // namespace remac
