#ifndef REMAC_MATRIX_STORAGE_FORMAT_H_
#define REMAC_MATRIX_STORAGE_FORMAT_H_

namespace remac {

/// Sparsity threshold above which the dense format is used, following
/// SystemDS (Section 4.2 of the paper: "we use a dense format if S_V > 0.4").
///
/// This is the single source of truth for the dense/CSR boundary: Matrix's
/// format choice, the physical byte model (MatrixBytes), blocked per-block
/// byte accounting and the fingerprint sparsity bucketing all read it, so
/// every layer agrees on where a value flips between formats.
inline constexpr double kDenseFormatThreshold = 0.4;

}  // namespace remac

#endif  // REMAC_MATRIX_STORAGE_FORMAT_H_
