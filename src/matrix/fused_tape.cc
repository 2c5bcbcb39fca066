#include "matrix/fused_tape.h"

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/string_util.h"
#include "matrix/kernel_internal.h"

namespace remac {

namespace {

using internal::ParallelForRows;

/// A resolved operand of a compiled step: either a per-cell value slot
/// (`cell >= 0`, an index into the per-cell scratch array) or a constant
/// (scalar-slot inputs, folded at compile time).
struct Operand {
  int32_t cell = -1;
  double cval = 0.0;
};

struct CompiledStep {
  FusedOp op = FusedOp::kAdd;
  Operand a;
  Operand b;
};

/// The tape lowered for interpretation: scalar slots folded into
/// constants, matrix slots and step results numbered as per-cell scratch
/// cells, and divide-by-scalar turned into the reciprocal multiply the
/// unfused scalar path performs.
struct CompiledTape {
  std::vector<CompiledStep> steps;
  int32_t num_matrix_inputs = 0;
  int32_t num_cells = 0;
  /// Per step, the value a cell outside every input's sparsity structure
  /// takes (all matrix operands zero). Drives the CSR fast-path validity
  /// check and the out-of-structure part of per-step nnz counts.
  std::vector<double> zero_image;
};

Result<CompiledTape> CompileTape(const FusedTape& tape, size_t num_matrices,
                                 const std::vector<double>& scalars) {
  if (tape.num_inputs < 0 ||
      tape.input_scalar.size() != static_cast<size_t>(tape.num_inputs)) {
    return Status::Internal("fused tape: bad input_scalar size");
  }
  if (tape.steps.empty()) {
    return Status::Internal("fused tape: empty step list");
  }
  // Map slot -> operand.
  std::vector<Operand> slot_operand(static_cast<size_t>(tape.num_inputs) +
                                    tape.steps.size());
  CompiledTape out;
  size_t mi = 0;
  size_t si = 0;
  for (int32_t s = 0; s < tape.num_inputs; ++s) {
    if (tape.input_scalar[static_cast<size_t>(s)]) {
      if (si >= scalars.size()) {
        return Status::Internal("fused tape: missing scalar operand");
      }
      slot_operand[static_cast<size_t>(s)] = Operand{-1, scalars[si++]};
    } else {
      slot_operand[static_cast<size_t>(s)] =
          Operand{static_cast<int32_t>(mi++), 0.0};
    }
  }
  if (mi != num_matrices || si != scalars.size()) {
    return Status::Internal("fused tape: operand count mismatch");
  }
  out.num_matrix_inputs = static_cast<int32_t>(mi);
  out.num_cells =
      out.num_matrix_inputs + static_cast<int32_t>(tape.steps.size());
  out.steps.reserve(tape.steps.size());
  for (size_t j = 0; j < tape.steps.size(); ++j) {
    const FusedStep& step = tape.steps[j];
    const int32_t limit = tape.num_inputs + static_cast<int32_t>(j);
    const bool unary = step.op == FusedOp::kExp || step.op == FusedOp::kLog;
    if (step.lhs < 0 || step.lhs >= limit ||
        (unary ? step.rhs != -1 : (step.rhs < 0 || step.rhs >= limit))) {
      return Status::Internal("fused tape: step operand out of range");
    }
    CompiledStep cs;
    cs.op = step.op;
    cs.a = slot_operand[static_cast<size_t>(step.lhs)];
    if (!unary) cs.b = slot_operand[static_cast<size_t>(step.rhs)];
    // Matrix / scalar divides by the reciprocal (the unfused
    // executor's ScalarMultiply broadcast), not per-cell division.
    if (cs.op == FusedOp::kDiv && !unary && cs.b.cell < 0) {
      cs.op = FusedOp::kMul;
      cs.b.cval = cs.b.cval == 0.0 ? 0.0 : 1.0 / cs.b.cval;
    }
    slot_operand[tape.num_inputs + j] =
        Operand{out.num_matrix_inputs + static_cast<int32_t>(j), 0.0};
    out.steps.push_back(cs);
  }
  // Zero image: run the tape once with every matrix cell at 0.
  std::vector<double> cells(static_cast<size_t>(out.num_cells), 0.0);
  out.zero_image.resize(out.steps.size());
  for (size_t j = 0; j < out.steps.size(); ++j) {
    const CompiledStep& cs = out.steps[j];
    const double a = cs.a.cell >= 0 ? cells[static_cast<size_t>(cs.a.cell)]
                                    : cs.a.cval;
    const double b = cs.b.cell >= 0 ? cells[static_cast<size_t>(cs.b.cell)]
                                    : cs.b.cval;
    const double v = FusedApply(cs.op, a, b);
    cells[static_cast<size_t>(out.num_matrix_inputs) + j] = v;
    out.zero_image[j] = v;
  }
  return out;
}

/// Cells interpreted per tile: small enough that every step's scratch
/// lane (8 KiB) stays L1-resident, large enough to amortize the per-step
/// dispatch to ~nothing.
constexpr int64_t kTileCells = 1024;

/// One compiled step applied over a tile with the opcode fixed at compile
/// time, so each operand-mode branch is a plain vectorizable loop over
/// FusedApply. A null `pa`/`pb` means the operand is the constant
/// `ca`/`cb` (unary steps pass a null b). Returns the tile's non-zero
/// count.
template <FusedOp Op>
int64_t StepTile(const double* pa, double ca, const double* pb, double cb,
                 double* dst, int64_t len) {
  int64_t nz = 0;
  if (pa != nullptr && pb != nullptr) {
    for (int64_t k = 0; k < len; ++k) {
      const double v = FusedApply(Op, pa[k], pb[k]);
      dst[k] = v;
      nz += v != 0.0 ? 1 : 0;
    }
  } else if (pa != nullptr) {
    for (int64_t k = 0; k < len; ++k) {
      const double v = FusedApply(Op, pa[k], cb);
      dst[k] = v;
      nz += v != 0.0 ? 1 : 0;
    }
  } else if (pb != nullptr) {
    for (int64_t k = 0; k < len; ++k) {
      const double v = FusedApply(Op, ca, pb[k]);
      dst[k] = v;
      nz += v != 0.0 ? 1 : 0;
    }
  } else {
    const double v = FusedApply(Op, ca, cb);
    for (int64_t k = 0; k < len; ++k) dst[k] = v;
    nz = v != 0.0 ? len : 0;
  }
  return nz;
}

int64_t StepTileDispatch(FusedOp op, const double* pa, double ca,
                         const double* pb, double cb, double* dst,
                         int64_t len) {
  switch (op) {
    case FusedOp::kAdd: return StepTile<FusedOp::kAdd>(pa, ca, pb, cb, dst, len);
    case FusedOp::kSub: return StepTile<FusedOp::kSub>(pa, ca, pb, cb, dst, len);
    case FusedOp::kMul: return StepTile<FusedOp::kMul>(pa, ca, pb, cb, dst, len);
    case FusedOp::kDiv: return StepTile<FusedOp::kDiv>(pa, ca, pb, cb, dst, len);
    case FusedOp::kMin: return StepTile<FusedOp::kMin>(pa, ca, pb, cb, dst, len);
    case FusedOp::kMax: return StepTile<FusedOp::kMax>(pa, ca, pb, cb, dst, len);
    case FusedOp::kExp: return StepTile<FusedOp::kExp>(pa, ca, pb, cb, dst, len);
    case FusedOp::kLog: return StepTile<FusedOp::kLog>(pa, ca, pb, cb, dst, len);
  }
  return 0;
}

/// Runs the compiled steps over `count` flat cells, loading matrix-slot
/// values through `in_ptr`, writing the final step's value to `out` and
/// exact per-step non-zero counts to `nnz_out`. Tile-at-a-time: each step
/// sweeps a kTileCells-wide lane before the next step runs, which keeps
/// every intermediate in L1 instead of materializing it (the whole point
/// of fusing), while the fixed-opcode inner loops vectorize like the
/// unfused kernels. The final step streams straight into `out`; when
/// `out` aliases a stolen input this is still safe, because an
/// elementwise step reads cell k of every operand before writing cell k,
/// and earlier steps only touch the current tile's range. Parallel over
/// fixed flat ranges; integer counts fold order-independently, so the
/// result never depends on the thread count.
void RunCells(const CompiledTape& ct, const std::vector<const double*>& in_ptr,
              int64_t count, double* out, std::vector<int64_t>* nnz_out) {
  const size_t ns = ct.steps.size();
  const size_t nm = static_cast<size_t>(ct.num_matrix_inputs);
  std::vector<std::atomic<int64_t>> counts(ns);
  ParallelForRows(count, static_cast<int64_t>(ns), [&](int64_t i0,
                                                       int64_t i1) {
    std::vector<double> scratch(ns * static_cast<size_t>(kTileCells));
    std::vector<int64_t> local(ns, 0);
    for (int64_t t = i0; t < i1; t += kTileCells) {
      const int64_t len = std::min(kTileCells, i1 - t);
      auto lane = [&](const Operand& o) -> const double* {
        if (o.cell < 0) return nullptr;
        if (o.cell < static_cast<int32_t>(nm)) return in_ptr[o.cell] + t;
        return scratch.data() +
               static_cast<size_t>(o.cell - static_cast<int32_t>(nm)) *
                   static_cast<size_t>(kTileCells);
      };
      for (size_t j = 0; j < ns; ++j) {
        const CompiledStep& cs = ct.steps[j];
        double* dst = j + 1 == ns
                          ? out + t
                          : scratch.data() + j * static_cast<size_t>(kTileCells);
        local[j] += StepTileDispatch(cs.op, lane(cs.a), cs.a.cval, lane(cs.b),
                                     cs.b.cval, dst, len);
      }
    }
    for (size_t j = 0; j < ns; ++j) {
      counts[j].fetch_add(local[j], std::memory_order_relaxed);
    }
  });
  nnz_out->resize(ns);
  for (size_t j = 0; j < ns; ++j) {
    (*nnz_out)[j] = counts[j].load(std::memory_order_relaxed);
  }
}

/// True when every matrix operand is CSR with one shared sparsity
/// structure (identical row_ptr and col_idx).
bool SharedCsrStructure(const std::vector<Matrix>& matrices) {
  if (matrices.empty()) return false;
  for (const Matrix& m : matrices) {
    if (m.is_dense()) return false;
  }
  const CsrMatrix& base = matrices[0].csr();
  for (size_t i = 1; i < matrices.size(); ++i) {
    const CsrMatrix& other = matrices[i].csr();
    if (&other == &base) continue;
    if (other.nnz() != base.nnz()) return false;
    if (other.row_ptr() != base.row_ptr()) return false;
    if (other.col_idx() != base.col_idx()) return false;
  }
  return true;
}

}  // namespace

const char* FusedOpName(FusedOp op) {
  switch (op) {
    case FusedOp::kAdd: return "add";
    case FusedOp::kSub: return "sub";
    case FusedOp::kMul: return "mul";
    case FusedOp::kDiv: return "div";
    case FusedOp::kMin: return "min";
    case FusedOp::kMax: return "max";
    case FusedOp::kExp: return "exp";
    case FusedOp::kLog: return "log";
  }
  return "?";
}

std::string FusedTape::ToString() const {
  std::string out;
  for (int32_t s = 0; s < num_inputs; ++s) {
    if (s > 0) out += ",";
    out += input_scalar[static_cast<size_t>(s)] ? "S" : "M";
  }
  out += "|";
  auto slot_name = [&](int32_t slot) {
    if (slot < num_inputs) return StringFormat("i%d", slot);
    return StringFormat("t%d", slot - num_inputs);
  };
  for (size_t j = 0; j < steps.size(); ++j) {
    if (j > 0) out += ";";
    const FusedStep& step = steps[j];
    out += StringFormat("t%d=%s(", static_cast<int>(j), FusedOpName(step.op));
    out += slot_name(step.lhs);
    if (step.rhs >= 0) {
      out += ",";
      out += slot_name(step.rhs);
    }
    out += ")";
  }
  return out;
}

Result<FusedExecResult> ExecuteFusedTape(const FusedTape& tape,
                                         std::vector<Matrix> matrices,
                                         const std::vector<double>& scalars) {
  for (const Matrix& m : matrices) {
    if (m.rows() != tape.rows || m.cols() != tape.cols) {
      return Status::Internal(StringFormat(
          "fused tape: operand is %lld x %lld, region is %lld x %lld",
          static_cast<long long>(m.rows()), static_cast<long long>(m.cols()),
          static_cast<long long>(tape.rows),
          static_cast<long long>(tape.cols)));
    }
  }
  REMAC_ASSIGN_OR_RETURN(const CompiledTape ct,
                         CompileTape(tape, matrices.size(), scalars));
  const int64_t total = tape.rows * tape.cols;
  FusedExecResult result;

  // CSR value-array fast path: all matrix operands share one structure
  // and cells outside it end at exactly 0, so only the stored values need
  // to run through the tape.
  if (total > 0 && SharedCsrStructure(matrices) &&
      ct.zero_image.back() == 0.0) {
    const CsrMatrix& base = matrices[0].csr();
    const int64_t snnz = base.nnz();
    std::vector<const double*> in_ptr(matrices.size());
    for (size_t i = 0; i < matrices.size(); ++i) {
      in_ptr[i] = matrices[i].csr().values().data();
    }
    std::vector<double> out_vals(static_cast<size_t>(snnz));
    RunCells(ct, in_ptr, snnz, out_vals.data(), &result.step_nnz);
    // Out-of-structure cells follow the zero image: a step whose image is
    // non-zero (e.g. an interior "+ s") conceptually densifies, exactly as
    // its unfused counterpart would have.
    for (size_t j = 0; j < result.step_nnz.size(); ++j) {
      if (ct.zero_image[j] != 0.0) result.step_nnz[j] += total - snnz;
    }
    // Rebuild the structure, dropping cells the tape zeroed.
    CsrMatrix out(tape.rows, tape.cols);
    auto& row_ptr = out.mutable_row_ptr();
    auto& cols = out.mutable_col_idx();
    auto& vals = out.mutable_values();
    cols.reserve(static_cast<size_t>(snnz));
    vals.reserve(static_cast<size_t>(snnz));
    for (int64_t r = 0; r < tape.rows; ++r) {
      for (int64_t k = base.row_ptr()[r]; k < base.row_ptr()[r + 1]; ++k) {
        const double v = out_vals[static_cast<size_t>(k)];
        if (v != 0.0) {
          cols.push_back(base.col_idx()[k]);
          vals.push_back(v);
        }
      }
      row_ptr[r + 1] = static_cast<int64_t>(vals.size());
    }
    result.output = Matrix::FromCsr(std::move(out));
    result.csr_path = true;
    return result;
  }

  // Dense path. Try to run in place inside a dying dense input: safe
  // because each flat cell reads every operand before its own output cell
  // is written, and parallel ranges are disjoint.
  DenseMatrix out_buf;
  int64_t stolen_slot = -1;
  for (size_t i = 0; i < matrices.size(); ++i) {
    if (matrices[i].TryReleaseDense(&out_buf)) {
      stolen_slot = static_cast<int64_t>(i);
      break;
    }
  }
  if (stolen_slot < 0) out_buf = DenseMatrix(tape.rows, tape.cols);
  std::vector<DenseMatrix> temps;
  temps.reserve(matrices.size());
  std::vector<const double*> in_ptr(matrices.size());
  for (size_t i = 0; i < matrices.size(); ++i) {
    if (static_cast<int64_t>(i) == stolen_slot) {
      in_ptr[i] = out_buf.data();
    } else if (matrices[i].is_dense()) {
      in_ptr[i] = matrices[i].dense().data();
    } else {
      temps.push_back(matrices[i].csr().ToDense());
      in_ptr[i] = temps.back().data();
    }
  }
  RunCells(ct, in_ptr, total, out_buf.data(), &result.step_nnz);
  result.output =
      Matrix::FromDense(std::move(out_buf), result.step_nnz.back());
  result.in_place = stolen_slot >= 0;
  return result;
}

}  // namespace remac
