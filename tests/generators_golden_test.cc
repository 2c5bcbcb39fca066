#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "data/generators.h"
#include "plan/plan_builder.h"

/// Golden digests of the synthetic datasets and of the catalog statistics
/// derived from them. Every optimizer decision and simulated second starts
/// from these values, so a change to how matrices are generated or how the
/// catalog counts them must keep each digest bit for bit. The digests were
/// recorded from the generator and catalog that built the CSR copy to count
/// rows and columns, before counting moved onto the stored format.

namespace remac {
namespace {

/// Order-sensitive 64-bit digest: each word is folded in through the
/// SplitMix64 finalizer.
class Digest {
 public:
  void Add(uint64_t word) {
    uint64_t z = state_ ^ word;
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    state_ = z ^ (z >> 31);
  }
  void Add(int64_t word) { Add(static_cast<uint64_t>(word)); }
  void Add(double value) { Add(std::bit_cast<uint64_t>(value)); }
  template <typename T>
  void Add(const std::vector<T>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (const T& v : values) Add(v);
  }
  void Add(std::span<const double> values) {
    Add(static_cast<uint64_t>(values.size()));
    for (double v : values) Add(v);
  }
  void Add(const std::vector<int32_t>& values) {
    Add(static_cast<uint64_t>(values.size()));
    for (int32_t v : values) Add(static_cast<int64_t>(v));
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 0;
};

/// Format, shape, nnz() and the stored payload (the dense cells, or the
/// CSR row pointers, column indices and values).
uint64_t MatrixDigest(const Matrix& m) {
  Digest d;
  d.Add(static_cast<int64_t>(m.is_dense() ? 0 : 1));
  d.Add(m.rows());
  d.Add(m.cols());
  d.Add(m.nnz());
  if (m.is_dense()) {
    d.Add(m.dense().values());
  } else {
    d.Add(m.csr().row_ptr());
    d.Add(m.csr().col_idx());
    d.Add(m.csr().values());
  }
  return d.value();
}

uint64_t StatsDigest(const MatrixStats& stats) {
  Digest d;
  d.Add(stats.rows);
  d.Add(stats.cols);
  d.Add(stats.sparsity);
  d.Add(stats.row_counts);
  d.Add(stats.col_counts);
  return d.value();
}

/// The serve workload's dataset shape: 8000 x 64 at sparsity 0.3.
DatasetSpec ServeSpec() {
  DatasetSpec spec;
  spec.name = "serve";
  spec.rows = 8000;
  spec.cols = 64;
  spec.sparsity = 0.3;
  spec.seed = 5000;
  return spec;
}

struct Golden {
  std::string name;
  int64_t nnz;
  uint64_t matrix_digest;
};

TEST(GeneratorsGolden, MatricesMatchRecordedDigests) {
  const Golden goldens[] = {
      {"cri1", 3382656, 0xca08a6b4d77935b8ULL},
      {"cri2", 75777, 0xe2233baf116d4ed1ULL},
      {"serve", 64000, 0xb8555be86a88fcbfULL},
  };
  for (const Golden& golden : goldens) {
    const DatasetSpec spec = golden.name == "serve"
                                 ? ServeSpec()
                                 : PaperDatasetSpec(golden.name).value();
    const Matrix m = GenerateMatrix(spec);
    EXPECT_EQ(m.nnz(), golden.nnz) << golden.name;
    EXPECT_EQ(MatrixDigest(m), golden.matrix_digest)
        << golden.name << ": 0x" << std::hex << MatrixDigest(m);
  }
}

TEST(GeneratorsGolden, CatalogStatsMatchRecordedDigests) {
  const std::pair<std::string, uint64_t> goldens[] = {
      {"cri1", 0x37d9c6222a757f4cULL},  {"cri2", 0xda31bef2d6b3c9fbULL},
      {"cri3", 0xf418146e5f421b83ULL},  {"red1", 0x803d00bc0c84a52fULL},
      {"red2", 0xdcd1bf094e6082b2ULL},  {"red3", 0x29e3d8e941175465ULL},
      {"serve", 0xcc3c8f01789b19a3ULL},
  };
  for (const auto& [name, digest] : goldens) {
    const DatasetSpec spec =
        name == "serve" ? ServeSpec() : PaperDatasetSpec(name).value();
    DataCatalog catalog;
    catalog.Register(name, GenerateMatrix(spec));
    const MatrixStats& stats = *catalog.Stats(name).value();
    EXPECT_EQ(StatsDigest(stats), digest)
        << name << ": 0x" << std::hex << StatsDigest(stats);
  }
}

}  // namespace
}  // namespace remac
