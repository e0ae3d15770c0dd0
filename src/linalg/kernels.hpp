// Dense kernels underlying the three block operations of the block fan-out
// method (paper §2.1):
//
//   BFAC(K,K):    L_KK := Factor(L_KK)        -> potrf_lower
//   BDIV(I,K):    L_IK := L_IK * L_KK^{-T}    -> trsm_right_ltrans
//   BMOD(I,J,K):  L_IJ := L_IJ - L_IK L_JK^T  -> gemm_nt_minus
//
// All operate on column-major DenseMatrix storage. Written from scratch (no
// BLAS is available offline). The BMOD kernel is a packed, cache-tiled GEMM
// with a register micro-kernel; BFAC and BDIV are blocked panel algorithms
// expressed through the same level-3 core, so B=48..96 blocks run near
// machine speed. The `_unblocked` scalar variants and the naive GEMM are the
// reference implementations the kernel tests compare against.
#pragma once

#include <vector>

#include "linalg/dense_matrix.hpp"
#include "support/types.hpp"

namespace spc {

// Pivot handling for the Cholesky kernels (docs/ROBUSTNESS.md). Under
// kStrict any pivot with d <= 0 is numeric breakdown; under kPerturb,
// pivots d <= delta * max|diag(A)| are boosted to that threshold
// (CHOLMOD-style regularization) and counted, so the factorization always
// completes and one step of iterative refinement recovers solve accuracy.
enum class PivotPolicy { kStrict, kPerturb };

// Default relative perturbation threshold (delta in the formula above).
inline constexpr double kDefaultPivotDelta = 1e-12;

// Absolute pivot parameters for one factorization run, derived once from
// PivotPolicy + delta + max|diag(A)| (see make_pivot_control in
// factor/numeric_factor.hpp).
struct PivotControl {
  PivotPolicy policy = PivotPolicy::kStrict;
  double boost = 0.0;  // kPerturb: pivots d <= boost are raised to boost
};

// In-place lower Cholesky factorization of A (A must be square, symmetric
// content in the lower triangle). The strict upper triangle is zeroed.
// Throws spc::Error (ErrorKind::kNotPositiveDefinite) if A is not positive
// definite. Blocked: panels are factored with the scalar kernel and the
// trailing submatrix is updated through the packed GEMM core.
void potrf_lower(DenseMatrix& a);

// Scalar (unblocked) reference version of potrf_lower.
void potrf_lower_unblocked(DenseMatrix& a);

// B := B * L^{-T} where L is lower triangular (the diagonal block of the
// factor). B is m x k, L is k x k. Blocked: left-looking over column panels
// of B, with the bulk of the work done by the packed GEMM core.
void trsm_right_ltrans(const DenseMatrix& l, DenseMatrix& b);

// Scalar (unblocked) reference version of trsm_right_ltrans.
void trsm_right_ltrans_unblocked(const DenseMatrix& l, DenseMatrix& b);

// C := C - A * B^T with A m x k, B n x k, C m x n. This is the BMOD update.
// Dispatches between the register-blocked strided kernel and the
// packed/tiled kernel on operand shape (see gemm_nt_minus_raw).
void gemm_nt_minus(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c);

// Reference (naive triple loop) and always-packed (micro-kernel over packed
// panels) variants, exposed for testing and the kernel microbenchmarks.
void gemm_nt_minus_naive(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c);
void gemm_nt_minus_packed(const DenseMatrix& a, const DenseMatrix& b, DenseMatrix& c);

// ---------------------------------------------------------------------------
// The block engine's kernels on raw column-major storage, one body each for
// both element types the engine is instantiated for (T = double or float;
// the fp32-refine factorization runs the same engine over floats). Same
// dispatch tables as the DenseMatrix entry points above.
// ---------------------------------------------------------------------------

// Strided core: C := C - A * B^T with leading dimensions. A is m x k (lda),
// B is n x k (ldb), C is m x n (ldc). The blocked potrf/trsm panels run
// their trailing updates through this.
template <typename T>
void gemm_nt_minus_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                       idx ldb, T* c, idx ldc);

// C := -(A * B^T), overwriting C (which need not be initialized). Saves the
// zero-fill pass plus the first k-panel's C read versus resize-to-zero +
// gemm_nt_minus_raw when C is scratch — a fragmented BMOD computes its
// update block through this.
template <typename T>
void gemm_nt_neg_raw(idx m, idx n, idx k, const T* a, idx lda, const T* b,
                     idx ldb, T* c, idx ldc);

// B := B * L^{-T} with L k x k lower triangular (ldl), B m x k (ldb).
template <typename T>
void trsm_right_ltrans(idx m, idx k, const T* l, idx ldl, T* b, idx ldb);

// Guarded blocked Cholesky (BFAC) of the leading n x n lower triangle of
// `a` (lda-strided); the strict upper triangle is zeroed. Pivots failing the
// control's test (computed in double for both types) are replaced — boosted
// under kPerturb; set to 1 under kStrict so the factorization can continue
// deterministically — instead of throwing. The column (base_col + local) of
// every replaced pivot is appended to `adjusted`, the first failing pivot's
// value lands in *first_bad, and the number of replacements is returned.
// The engines build their policy semantics (immediate throw, deferred
// min-column breakdown, perturbation accounting) on top of this.
template <typename T>
idx potrf_lower_guarded(idx n, T* a, idx lda, const PivotControl& pc,
                        idx base_col, std::vector<idx>& adjusted,
                        double* first_bad);

// ---------------------------------------------------------------------------
// Solve-path kernels (docs/SOLVE.md). The triangular solve works on n x nrhs
// RHS panels, so its GEMMs are NN / TN shaped (B is the panel itself, not a
// transposed factor block). They share the packed core above: the B (and,
// for TN, A) operand is packed through a transposing pack routine, so big
// panels hit the same register micro-kernels as BMOD.
// ---------------------------------------------------------------------------

// C := C - A * B with A m x k (lda), B k x n (ldb), C m x n (ldc).
void gemm_nn_minus_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc);

// C := -(A * B), overwriting C (need not be initialized) — the forward
// sweep's per-entry update block, scattered into the RHS afterwards.
void gemm_nn_neg_raw(idx m, idx n, idx k, const double* a, idx lda,
                     const double* b, idx ldb, double* c, idx ldc);

// C := C - A^T * B with A stored k x m (lda), B k x n (ldb), C m x n (ldc).
// The backward sweep's per-entry update (L_e^T times gathered RHS rows).
void gemm_tn_minus_raw(idx m, idx n, idx k, const double* a, idx lda,
                       const double* b, idx ldb, double* c, idx ldc);

// X := L^{-1} X where L is k x k lower triangular (ldl) and X is a k x n
// panel (ldx). Blocked: diagonal panels use the scalar substitution kernel,
// the below-panel update runs through gemm_nn_minus_raw.
void trsm_left_lower(idx k, idx n, const double* l, idx ldl, double* x,
                     idx ldx);

// X := L^{-T} X, the transpose counterpart (backward substitution), blocked
// through gemm_tn_minus_raw.
void trsm_left_ltrans(idx k, idx n, const double* l, idx ldl, double* x,
                      idx ldx);

// ---------------------------------------------------------------------------
// Runtime ISA dispatch. Every dense kernel above routes through one of three
// immutable dispatch tables (scalar / AVX2+FMA / AVX-512), resolved once at
// first use from the host CPU — or from SPC_FORCE_ISA=scalar|avx2|avx512 in
// the environment, which throws Error(kMalformedInput) when the forced path
// cannot run on this host. The packed GEMM path produces bitwise-identical
// results on all three paths (shared cache blocking, one exactly-rounded FMA
// per element per rank); the small-shape strided kernels may differ across
// paths by compiler FP contraction.
// ---------------------------------------------------------------------------
enum class KernelIsa { kScalar, kAvx2, kAvx512 };

// Switches the active table; returns false (and changes nothing) when the
// host cannot execute that path. Not meant for concurrent flipping while
// kernels are running (tests switch between runs).
bool set_kernel_isa(KernelIsa isa);
KernelIsa kernel_isa();  // currently active path (resolves on first use)
bool kernel_isa_supported(KernelIsa isa);
const char* kernel_isa_name(KernelIsa isa);  // "scalar" | "avx2" | "avx512"

// Flop counts for the three ops, matching the conventions in DESIGN.md §5.
// These feed both the work model used by the mapping heuristics and the
// simulator cost model.
i64 flops_bfac(idx k);
i64 flops_bdiv(idx m, idx k);
i64 flops_bmod(idx m, idx n, idx k);

}  // namespace spc
