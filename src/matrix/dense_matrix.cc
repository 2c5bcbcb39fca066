#include "matrix/dense_matrix.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <utility>

namespace remac {
namespace {

/// True unless the kernel's transparent-huge-page mode is `never` or cannot
/// be read (read once per process).
bool HugePagesEnabled() {
  static const bool enabled = [] {
    std::ifstream in("/sys/kernel/mm/transparent_hugepage/enabled");
    std::string modes;
    return std::getline(in, modes) &&
           modes.find('[') != std::string::npos &&
           modes.find("[never]") == std::string::npos;
  }();
  return enabled;
}

/// `bytes` (a 2 MiB multiple) of fresh zero pages starting on a 2 MiB
/// boundary, advised MADV_HUGEPAGE so each 2 MiB faults in as one huge
/// page; null when the kernel refuses the mapping.
void* MapHugeAligned(size_t bytes) {
  constexpr size_t kAlign = kDenseHugeBufferBytes;
  const size_t span = bytes + kAlign;
  void* raw = mmap(nullptr, span, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (raw == MAP_FAILED) return nullptr;
  const uintptr_t start = reinterpret_cast<uintptr_t>(raw);
  const uintptr_t begin = (start + kAlign - 1) & ~(uintptr_t{kAlign} - 1);
  const uintptr_t end = begin + bytes;
  if (begin > start) munmap(raw, begin - start);
  if (start + span > end) {
    munmap(reinterpret_cast<void*>(end), start + span - end);
  }
  void* p = reinterpret_cast<void*>(begin);
  madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}

}  // namespace

DenseMatrix::DenseMatrix(int64_t rows, int64_t cols)
    : rows_(rows), cols_(cols), cells_(static_cast<size_t>(rows * cols)) {
  assert(rows >= 0 && cols >= 0);
  Allocate(/*zero=*/true);
}

DenseMatrix::DenseMatrix(int64_t rows, int64_t cols,
                         const std::vector<double>& values)
    : rows_(rows), cols_(cols), cells_(values.size()) {
  assert(static_cast<int64_t>(values.size()) == rows * cols);
  Allocate(/*zero=*/false);
  if (cells_ > 0) std::memcpy(data_, values.data(), cells_ * sizeof(double));
}

DenseMatrix::DenseMatrix(const DenseMatrix& other)
    : rows_(other.rows_), cols_(other.cols_), cells_(other.cells_) {
  Allocate(/*zero=*/false);
  if (cells_ > 0) std::memcpy(data_, other.data_, cells_ * sizeof(double));
}

DenseMatrix& DenseMatrix::operator=(const DenseMatrix& other) {
  if (this != &other) *this = DenseMatrix(other);
  return *this;
}

DenseMatrix::DenseMatrix(DenseMatrix&& other) noexcept
    : rows_(std::exchange(other.rows_, 0)),
      cols_(std::exchange(other.cols_, 0)),
      cells_(std::exchange(other.cells_, 0)),
      data_(std::exchange(other.data_, nullptr)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

DenseMatrix& DenseMatrix::operator=(DenseMatrix&& other) noexcept {
  if (this != &other) {
    Release();
    rows_ = std::exchange(other.rows_, 0);
    cols_ = std::exchange(other.cols_, 0);
    cells_ = std::exchange(other.cells_, 0);
    data_ = std::exchange(other.data_, nullptr);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

DenseMatrix::~DenseMatrix() { Release(); }

void DenseMatrix::Allocate(bool zero) {
  data_ = nullptr;
  mapped_bytes_ = 0;
  if (cells_ == 0) return;
  const size_t bytes = cells_ * sizeof(double);
  if (bytes >= kDenseHugeBufferBytes && HugePagesEnabled()) {
    // The last huge page is whole too: a tail of 4 KiB pages would fault
    // up to 511 times where one huge page faults once.
    const size_t length = (bytes + kDenseHugeBufferBytes - 1) /
                          kDenseHugeBufferBytes * kDenseHugeBufferBytes;
    if (void* p = MapHugeAligned(length)) {
      data_ = static_cast<double*>(p);
      mapped_bytes_ = length;
      return;
    }
  }
  data_ = static_cast<double*>(zero ? std::calloc(cells_, sizeof(double))
                                    : std::malloc(bytes));
  if (data_ == nullptr) throw std::bad_alloc();
}

void DenseMatrix::Release() {
  if (mapped_bytes_ > 0) {
    munmap(data_, mapped_bytes_);
  } else {
    std::free(data_);
  }
  data_ = nullptr;
  mapped_bytes_ = 0;
}

DenseMatrix DenseMatrix::Identity(int64_t n) {
  DenseMatrix m(n, n);
  for (int64_t i = 0; i < n; ++i) m.At(i, i) = 1.0;
  return m;
}

int64_t DenseMatrix::CountNonZeros() const {
  int64_t nnz = 0;
  for (double v : values()) {
    if (v != 0.0) ++nnz;
  }
  return nnz;
}

double DenseMatrix::Sparsity() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(CountNonZeros()) /
         static_cast<double>(rows_ * cols_);
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& other,
                               double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  for (size_t i = 0; i < cells_; ++i) {
    const double diff = std::fabs(data_[i] - other.data_[i]);
    const double scale =
        std::max(1.0, std::max(std::fabs(data_[i]), std::fabs(other.data_[i])));
    if (diff > tolerance * scale) return false;
  }
  return true;
}

}  // namespace remac
