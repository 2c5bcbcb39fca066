#ifndef REMAC_MATRIX_DENSE_MATRIX_H_
#define REMAC_MATRIX_DENSE_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace remac {

/// \brief Row-major dense matrix of doubles.
///
/// A plain value type: copyable and movable. Bounds are checked with
/// assertions in debug builds only; hot paths index the raw buffer.
///
/// The cell buffer is zeroed once, by whoever hands it out: buffers of at
/// least kDenseHugeBufferBytes are their own 2 MiB-aligned anonymous
/// mapping advised MADV_HUGEPAGE (fresh kernel pages, one fault per huge
/// page), smaller ones come from calloc. A mapping is unmapped when its
/// matrix dies: nothing is pooled. When transparent huge pages are off
/// (`never`), every buffer comes from calloc.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  /// rows x cols, every cell +0.0.
  DenseMatrix(int64_t rows, int64_t cols);
  DenseMatrix(int64_t rows, int64_t cols, const std::vector<double>& values);

  DenseMatrix(const DenseMatrix& other);
  DenseMatrix& operator=(const DenseMatrix& other);
  DenseMatrix(DenseMatrix&& other) noexcept;
  DenseMatrix& operator=(DenseMatrix&& other) noexcept;
  ~DenseMatrix();

  /// Identity matrix of size n x n.
  static DenseMatrix Identity(int64_t n);

  int64_t rows() const { return rows_; }
  int64_t cols() const { return cols_; }
  int64_t size() const { return rows_ * cols_; }

  double& At(int64_t r, int64_t c) { return data_[r * cols_ + c]; }
  double At(int64_t r, int64_t c) const { return data_[r * cols_ + c]; }

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::span<const double> values() const { return {data_, cells_}; }

  /// Number of non-zero entries (exact scan).
  int64_t CountNonZeros() const;

  /// Fraction of non-zero entries; 0 for an empty matrix.
  double Sparsity() const;

  /// Memory footprint of the dense representation in bytes.
  int64_t SizeInBytes() const { return rows_ * cols_ * 8 + 16; }

  /// Exact resident payload: the value buffer only (no header estimate).
  int64_t BytesUsed() const {
    return static_cast<int64_t>(cells_) * static_cast<int64_t>(sizeof(double));
  }

  /// Element-wise equality within `tolerance`.
  bool ApproxEquals(const DenseMatrix& other, double tolerance = 1e-9) const;

 private:
  /// Allocates `cells_` cells into data_ (zeroed when `zero`).
  void Allocate(bool zero);
  void Release();

  int64_t rows_ = 0;
  int64_t cols_ = 0;
  size_t cells_ = 0;
  double* data_ = nullptr;
  /// Length of data_'s own mapping; 0 when data_ came from calloc/malloc.
  size_t mapped_bytes_ = 0;
};

/// Smallest cell buffer, in bytes, that gets its own huge-page mapping.
inline constexpr size_t kDenseHugeBufferBytes = size_t{2} << 20;

}  // namespace remac

#endif  // REMAC_MATRIX_DENSE_MATRIX_H_
