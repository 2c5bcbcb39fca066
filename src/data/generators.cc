#include "data/generators.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/rng.h"
#include "common/string_util.h"
#include "matrix/kernels.h"

namespace remac {

std::vector<DatasetSpec> PaperDatasetSpecs() {
  // Paper Table 2, rows scaled by ~1000 (criteo) / ~1000 (reddit), column
  // counts scaled by ~10 for the sparse sets so the fat-vs-thin contrast
  // survives: cri3/red3 stay the "fat" datasets whose A^T A is large.
  return {
      DatasetSpec{"cri1", 120000, 47, 0.60, 0.0, 0.0, 1001},
      DatasetSpec{"cri2", 30000, 870, 4.5e-3, 1.1, 1.1, 1002},
      DatasetSpec{"cri3", 30000, 1500, 2.6e-3, 1.1, 1.1, 1003},
      DatasetSpec{"red1", 120000, 34, 0.51, 0.0, 0.0, 1004},
      DatasetSpec{"red2", 40000, 500, 3.9e-3, 1.1, 1.1, 1005},
      DatasetSpec{"red3", 40000, 2000, 9.6e-4, 1.1, 1.1, 1006},
  };
}

Result<DatasetSpec> PaperDatasetSpec(const std::string& name) {
  for (const DatasetSpec& spec : PaperDatasetSpecs()) {
    if (spec.name == name) return spec;
  }
  return Status::NotFound("unknown paper dataset '" + name + "'");
}

DatasetSpec ZipfSpec(double exponent) {
  DatasetSpec spec;
  spec.name = StringFormat("zipf-%.1f", exponent);
  spec.rows = 30000;
  spec.cols = 870;
  spec.sparsity = 4.5e-3;
  spec.zipf_rows = exponent;
  spec.zipf_cols = exponent;
  spec.seed = 2000 + static_cast<uint64_t>(exponent * 10);
  return spec;
}

Matrix GenerateMatrix(const DatasetSpec& spec) {
  Rng rng(spec.seed);
  if (spec.sparsity > kDenseFormatThreshold) {
    DenseMatrix m(spec.rows, spec.cols);
    int64_t nnz = 0;
    for (int64_t i = 0; i < m.size(); ++i) {
      if (rng.NextDouble() < spec.sparsity) {
        m.data()[i] = rng.NextGaussian();
        nnz += m.data()[i] != 0.0 ? 1 : 0;
      }
    }
    return Matrix::WrapDense(std::move(m), nnz);
  }
  const int64_t target_nnz = static_cast<int64_t>(
      spec.sparsity * static_cast<double>(spec.rows) *
      static_cast<double>(spec.cols));
  // Allocate per-row non-zero counts proportional to the row Zipf weights
  // (capped at the column count), then draw distinct columns per row from
  // the column Zipf distribution. This hits the target sparsity exactly
  // even under extreme skew, where naive rejection sampling saturates.
  std::vector<double> row_weights(static_cast<size_t>(spec.rows));
  double weight_sum = 0.0;
  for (int64_t r = 0; r < spec.rows; ++r) {
    row_weights[r] = 1.0 / std::pow(static_cast<double>(r + 1),
                                    spec.zipf_rows);
    weight_sum += row_weights[r];
  }
  std::vector<int64_t> row_alloc(static_cast<size_t>(spec.rows), 0);
  // Cap how full a single row may get: real skewed logs have heavy rows,
  // not saturated ones, and without the cap the head rows touch *every*
  // column, which would make A^T A fully dense at any skew.
  const int64_t row_cap =
      std::min(spec.cols, std::max<int64_t>(8, spec.cols / 16));
  int64_t allocated = 0;
  for (int64_t r = 0; r < spec.rows && allocated < target_nnz; ++r) {
    const int64_t want = static_cast<int64_t>(
        std::llround(static_cast<double>(target_nnz) * row_weights[r] /
                     weight_sum));
    row_alloc[r] = std::min(std::min<int64_t>(want, row_cap),
                            target_nnz - allocated);
    allocated += row_alloc[r];
  }
  // Distribute any rounding remainder over rows with headroom.
  for (int64_t r = 0; allocated < target_nnz && r < spec.rows; ++r) {
    if (row_alloc[r] < row_cap) {
      ++row_alloc[r];
      ++allocated;
    }
  }
  const ZipfSampler col_sampler(static_cast<uint64_t>(spec.cols),
                                spec.zipf_cols);
  std::vector<std::tuple<int64_t, int64_t, double>> triplets;
  triplets.reserve(static_cast<size_t>(target_nnz));
  std::unordered_set<int64_t> row_seen;
  for (int64_t r = 0; r < spec.rows; ++r) {
    if (row_alloc[r] == 0) continue;
    row_seen.clear();
    int64_t attempts = 0;
    const int64_t cap = row_alloc[r] * 64 + 64;
    while (static_cast<int64_t>(row_seen.size()) < row_alloc[r] &&
           attempts < cap) {
      ++attempts;
      row_seen.insert(static_cast<int64_t>(col_sampler.Sample(rng)));
    }
    // Saturated head: fill the remainder from the lowest unused ranks.
    for (int64_t c = 0;
         static_cast<int64_t>(row_seen.size()) < row_alloc[r] &&
         c < spec.cols;
         ++c) {
      row_seen.insert(c);
    }
    for (int64_t c : row_seen) {
      triplets.emplace_back(r, c, rng.NextGaussian());
    }
  }
  return Matrix::WrapCsr(
      CsrMatrix::FromTriplets(spec.rows, spec.cols, std::move(triplets)));
}

Status RegisterDataset(DataCatalog* catalog, const DatasetSpec& spec,
                       bool with_partial_dfp_inputs) {
  Matrix a = GenerateMatrix(spec);
  // Regression targets: b = A w + noise, so the least-squares scripts
  // optimize a well-posed problem.
  Rng rng(spec.seed ^ 0xb0b5ULL);
  DenseMatrix w(spec.cols, 1);
  for (int64_t i = 0; i < w.size(); ++i) {
    w.data()[i] = rng.NextGaussian() * 0.1;
  }
  auto product = Multiply(a, Matrix::WrapDense(std::move(w)));
  if (!product.ok()) return product.status();
  DenseMatrix b = product.value().ToDense();
  for (int64_t i = 0; i < b.size(); ++i) {
    b.data()[i] += rng.NextGaussian() * 0.01;
  }
  catalog->Register(spec.name + "_b", Matrix::WrapDense(std::move(b)));
  if (with_partial_dfp_inputs) {
    DenseMatrix d(spec.cols, 1);
    for (int64_t i = 0; i < d.size(); ++i) d.data()[i] = rng.NextGaussian();
    catalog->Register(spec.name + "_pd", Matrix::WrapDense(std::move(d)));
    DenseMatrix h(spec.cols, spec.cols);
    for (int64_t i = 0; i < h.size(); ++i) {
      h.data()[i] = rng.NextGaussian() * 0.01;
    }
    catalog->Register(spec.name + "_pH", Matrix::WrapDense(std::move(h)));
  }
  catalog->Register(spec.name, std::move(a));
  return Status::OK();
}

}  // namespace remac
