#include "distributed/tiled_matrix2d.h"

#include <algorithm>
#include <cassert>

#include "cost/physical_model.h"

namespace remac {

const char* TileFormatName(TileFormat format) {
  switch (format) {
    case TileFormat::kEmpty:
      return "empty";
    case TileFormat::kCsr:
      return "CSR";
    case TileFormat::kDense:
      return "dense";
  }
  return "?";
}

TiledMatrix2D TiledMatrix2D::Partition(const Matrix& data, bool transposed,
                                       const ClusterModel& model) {
  TiledMatrix2D t;
  t.rows_ = transposed ? data.cols() : data.rows();
  t.cols_ = transposed ? data.rows() : data.cols();
  t.tile_size_ = model.block_size;
  t.grid_rows_ = NumBlocks(t.rows_, t.tile_size_);
  t.grid_cols_ = NumBlocks(t.cols_, t.tile_size_);
  t.tile_nnz_.assign(static_cast<size_t>(t.grid_rows_ * t.grid_cols_), 0);
  const int64_t ts = t.tile_size_;
  // Tile index of stored cell (r, c): op(M) buckets (c, r) instead of
  // (r, c), so the transpose is never materialized.
  const auto tile_index = [&](int64_t row_tile, int64_t col_tile) {
    return static_cast<size_t>(transposed ? col_tile * t.grid_cols_ + row_tile
                                          : row_tile * t.grid_cols_ + col_tile);
  };
  if (data.is_dense()) {
    // Each stored row splits into ts-wide segments, one per tile: count
    // a segment in one contiguous pass and bump its tile once.
    const DenseMatrix& d = data.dense();
    const int64_t cols = d.cols();
    for (int64_t r = 0; r < d.rows(); ++r) {
      const double* row = d.data() + r * cols;
      const int64_t row_tile = r / ts;
      for (int64_t c0 = 0, col_tile = 0; c0 < cols; c0 += ts, ++col_tile) {
        const int64_t c1 = std::min(cols, c0 + ts);
        int64_t nnz = 0;
        for (int64_t c = c0; c < c1; ++c) nnz += row[c] != 0.0;
        t.tile_nnz_[tile_index(row_tile, col_tile)] += nnz;
      }
    }
  } else {
    const CsrMatrix& s = data.csr();
    for (int64_t r = 0; r < s.rows(); ++r) {
      const int64_t row_tile = r / ts;
      for (int64_t p = s.row_ptr()[r]; p < s.row_ptr()[r + 1]; ++p) {
        ++t.tile_nnz_[tile_index(row_tile, s.col_idx()[p] / ts)];
      }
    }
  }
  return t;
}

TileFormat TiledMatrix2D::TileAnnotation(int64_t tr, int64_t tc) const {
  assert(tr >= 0 && tr < grid_rows_ && tc >= 0 && tc < grid_cols_);
  const int64_t nnz = TileNnz(tr, tc);
  if (nnz == 0) return TileFormat::kEmpty;
  const int64_t cells = TileRows(tr) * TileCols(tc);
  const double sp =
      cells > 0 ? static_cast<double>(nnz) / static_cast<double>(cells) : 0.0;
  return sp > kDenseFormatThreshold ? TileFormat::kDense : TileFormat::kCsr;
}

double TiledMatrix2D::TileBytes(int64_t tr, int64_t tc) const {
  assert(tr >= 0 && tr < grid_rows_ && tc >= 0 && tc < grid_cols_);
  const int64_t nnz = TileNnz(tr, tc);
  if (nnz == 0) return 0.0;  // annotated empty: never transmitted
  const int64_t tile_rows = TileRows(tr);
  const int64_t tile_cols = TileCols(tc);
  const int64_t cells = tile_rows * tile_cols;
  if (cells == 0) return 0.0;
  const double sp = static_cast<double>(nnz) / static_cast<double>(cells);
  return MatrixBytes(static_cast<double>(tile_rows),
                     static_cast<double>(tile_cols), sp);
}

double TiledMatrix2D::TotalBytes() const {
  double total = 0.0;
  for (int64_t tr = 0; tr < grid_rows_; ++tr) {
    for (int64_t tc = 0; tc < grid_cols_; ++tc) {
      total += TileBytes(tr, tc);
    }
  }
  return total;
}

int64_t TiledMatrix2D::EmptyTiles() const {
  int64_t empty = 0;
  for (const int64_t nnz : tile_nnz_) {
    if (nnz == 0) ++empty;
  }
  return empty;
}

int64_t TiledMatrix2D::TotalNnz() const {
  int64_t total = 0;
  for (const int64_t nnz : tile_nnz_) total += nnz;
  return total;
}

std::vector<double> TiledMatrix2D::PerWorkerBytes(
    const Grid2DPartitioner& grid) const {
  std::vector<double> weights;
  weights.reserve(static_cast<size_t>(num_tiles()));
  for (int64_t tr = 0; tr < grid_rows_; ++tr) {
    for (int64_t tc = 0; tc < grid_cols_; ++tc) {
      weights.push_back(TileBytes(tr, tc));
    }
  }
  return grid.WorkerLoads(weights, grid_cols_ == 0 ? 1 : grid_cols_);
}

}  // namespace remac
