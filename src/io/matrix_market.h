#ifndef REMAC_IO_MATRIX_MARKET_H_
#define REMAC_IO_MATRIX_MARKET_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "matrix/matrix.h"

namespace remac {

/// Largest row or column count the reader accepts: 2^24 = 16,777,216,
/// about 140x the largest paper dataset (cri1 and red1, 120,000 rows).
/// The CSR row pointers of a matrix at the limit take 128 MiB.
inline constexpr int64_t kMaxMatrixMarketDim = int64_t{1} << 24;

/// \brief Matrix Market (.mtx) file I/O.
///
/// Supports the two common headers:
///   %%MatrixMarket matrix coordinate real general|symmetric
///   %%MatrixMarket matrix array real general
/// Coordinate files use 1-based indices; symmetric coordinate files store
/// the lower triangle and are mirrored on read. Pattern files get 1.0
/// values. Integer fields are read as doubles.
///
/// A size line with more than kMaxMatrixMarketDim rows or columns is
/// rejected before anything is sized from it.
Result<Matrix> ReadMatrixMarket(const std::string& path);

/// Writes `m` in coordinate format (or array format when `dense` is set).
Status WriteMatrixMarket(const std::string& path, const Matrix& m,
                         bool dense = false);

/// Parses Matrix Market content from a string (testing / embedding).
Result<Matrix> ParseMatrixMarket(const std::string& content);

/// Serializes to a Matrix Market string.
Result<std::string> FormatMatrixMarket(const Matrix& m, bool dense = false);

}  // namespace remac

#endif  // REMAC_IO_MATRIX_MARKET_H_
