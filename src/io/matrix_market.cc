#include "io/matrix_market.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace remac {

namespace {

struct Header {
  bool coordinate = true;
  bool symmetric = false;
  bool pattern = false;
};

/// Advances to the next non-blank, non-comment line. The MatrixMarket
/// spec allows comment ('%') and blank lines anywhere after the banner,
/// including interleaved with coordinate data. Returns false on EOF.
bool NextDataLine(std::istream& in, std::string* line) {
  while (std::getline(in, *line)) {
    const std::string_view stripped = StripWhitespace(*line);
    if (!stripped.empty() && stripped[0] != '%') return true;
  }
  return false;
}

Result<Header> ParseHeader(const std::string& line) {
  std::istringstream in(line);
  std::string banner, object, format, field, symmetry;
  in >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket") {
    return Status::ParseError("not a MatrixMarket file: '" + line + "'");
  }
  if (object != "matrix") {
    return Status::Unsupported("MatrixMarket object '" + object + "'");
  }
  Header header;
  if (format == "coordinate") {
    header.coordinate = true;
  } else if (format == "array") {
    header.coordinate = false;
  } else {
    return Status::Unsupported("MatrixMarket format '" + format + "'");
  }
  if (field == "pattern") {
    header.pattern = true;
  } else if (field != "real" && field != "integer" && field != "double") {
    return Status::Unsupported("MatrixMarket field '" + field + "'");
  }
  if (symmetry == "symmetric") {
    header.symmetric = true;
  } else if (symmetry != "general") {
    return Status::Unsupported("MatrixMarket symmetry '" + symmetry + "'");
  }
  return header;
}

/// Rejects a size line no matrix can have: a negative count, a rows x
/// cols product that overflows, or more entries than cells.
Status CheckSize(int64_t rows, int64_t cols, int64_t nnz,
                 const std::string& line) {
  if (rows < 0 || cols < 0 || nnz < 0) {
    return Status::ParseError("negative size in: '" + line + "'");
  }
  int64_t cells = 0;
  if (__builtin_mul_overflow(rows, cols, &cells)) {
    return Status::OutOfRange("rows x cols overflows in: '" + line + "'");
  }
  if (nnz > cells) {
    return Status::OutOfRange("more entries than cells in: '" + line + "'");
  }
  return Status::OK();
}

/// Rejects a row or column count above kMaxMatrixMarketDim.
Status CheckDims(int64_t rows, int64_t cols, const std::string& line) {
  if (rows > kMaxMatrixMarketDim || cols > kMaxMatrixMarketDim) {
    return Status::OutOfRange(StringFormat(
        "dimension above the limit of %lld in: '%s'",
        static_cast<long long>(kMaxMatrixMarketDim), line.c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<Matrix> ParseMatrixMarket(const std::string& content) {
  std::istringstream in(content);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty MatrixMarket input");
  }
  REMAC_ASSIGN_OR_RETURN(const Header header, ParseHeader(line));
  if (!NextDataLine(in, &line)) {
    return Status::ParseError(
        "missing size line (file has only header and comments)");
  }
  std::istringstream dims(line);
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t nnz = 0;
  // Bytes left after the size line. Allocations sized from the header are
  // capped by what they can hold: an entry line takes at least 4 bytes
  // ("1 1\n"), an array value at least 2 ("0\n"), the last one a byte
  // less for its missing newline.
  const std::streamoff pos = in.tellg();  // -1 once the input is spent
  const int64_t remaining =
      pos < 0 ? 0 : static_cast<int64_t>(content.size()) - pos;
  if (header.coordinate) {
    if (!(dims >> rows >> cols >> nnz)) {
      return Status::ParseError("bad coordinate size line: '" + line + "'");
    }
    REMAC_RETURN_NOT_OK(CheckSize(rows, cols, nnz, line));
    REMAC_RETURN_NOT_OK(CheckDims(rows, cols, line));
    std::vector<std::tuple<int64_t, int64_t, double>> triplets;
    triplets.reserve(static_cast<size_t>(std::min(nnz, (remaining + 1) / 4)) *
                     (header.symmetric ? 2 : 1));
    for (int64_t k = 0; k < nnz; ++k) {
      if (!NextDataLine(in, &line)) {
        return Status::ParseError(StringFormat(
            "expected %lld entries, file ended after %lld",
            static_cast<long long>(nnz), static_cast<long long>(k)));
      }
      std::istringstream entry(line);
      int64_t r = 0;
      int64_t c = 0;
      double v = 1.0;
      if (!(entry >> r >> c)) {
        return Status::ParseError("bad entry line: '" + line + "'");
      }
      if (!header.pattern && !(entry >> v)) {
        return Status::ParseError("missing value in: '" + line + "'");
      }
      if (r < 1 || r > rows || c < 1 || c > cols) {
        return Status::OutOfRange("entry index out of bounds: '" + line +
                                  "'");
      }
      triplets.emplace_back(r - 1, c - 1, v);
      if (header.symmetric && r != c) {
        triplets.emplace_back(c - 1, r - 1, v);
      }
    }
    return Matrix::FromCsr(
        CsrMatrix::FromTriplets(rows, cols, std::move(triplets)));
  }
  if (!(dims >> rows >> cols)) {
    return Status::ParseError("bad array size line: '" + line + "'");
  }
  REMAC_RETURN_NOT_OK(CheckSize(rows, cols, 0, line));
  if (rows * cols > (remaining + 1) / 2) {
    return Status::ParseError(StringFormat(
        "array data ended early: %lld x %lld values cannot fit in %lld bytes",
        static_cast<long long>(rows), static_cast<long long>(cols),
        static_cast<long long>(remaining)));
  }
  // After the byte cap: a header the body cannot fill reports as short
  // data, whatever its dimensions.
  REMAC_RETURN_NOT_OK(CheckDims(rows, cols, line));
  DenseMatrix m(rows, cols);
  // Array format is column-major.
  for (int64_t c = 0; c < cols; ++c) {
    for (int64_t r = 0; r < rows; ++r) {
      double v = 0.0;
      if (!(in >> v)) {
        return Status::ParseError("array data ended early");
      }
      m.At(r, c) = v;
    }
  }
  return Matrix::FromDense(std::move(m));
}

Result<Matrix> ReadMatrixMarket(const std::string& path) {
  std::ifstream file(path);
  if (!file) {
    return Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream content;
  content << file.rdbuf();
  return ParseMatrixMarket(content.str());
}

Result<std::string> FormatMatrixMarket(const Matrix& m, bool dense) {
  std::string out;
  if (dense) {
    out += "%%MatrixMarket matrix array real general\n";
    out += StringFormat("%lld %lld\n", static_cast<long long>(m.rows()),
                        static_cast<long long>(m.cols()));
    const DenseMatrix d = m.ToDense();
    for (int64_t c = 0; c < d.cols(); ++c) {
      for (int64_t r = 0; r < d.rows(); ++r) {
        out += StringFormat("%.17g\n", d.At(r, c));
      }
    }
    return out;
  }
  const CsrMatrix csr = m.ToCsr();
  out += "%%MatrixMarket matrix coordinate real general\n";
  out += StringFormat("%lld %lld %lld\n", static_cast<long long>(csr.rows()),
                      static_cast<long long>(csr.cols()),
                      static_cast<long long>(csr.nnz()));
  for (int64_t r = 0; r < csr.rows(); ++r) {
    for (int64_t k = csr.row_ptr()[r]; k < csr.row_ptr()[r + 1]; ++k) {
      out += StringFormat("%lld %lld %.17g\n", static_cast<long long>(r + 1),
                          static_cast<long long>(csr.col_idx()[k] + 1),
                          csr.values()[k]);
    }
  }
  return out;
}

Status WriteMatrixMarket(const std::string& path, const Matrix& m,
                         bool dense) {
  REMAC_ASSIGN_OR_RETURN(const std::string content,
                         FormatMatrixMarket(m, dense));
  std::ofstream file(path);
  if (!file) {
    return Status::InvalidArgument("cannot write '" + path + "'");
  }
  file << content;
  if (!file) {
    return Status::Internal("short write to '" + path + "'");
  }
  return Status::OK();
}

}  // namespace remac
