// Numeric block Cholesky factorization over the BlockStructure, using the
// BFAC/BDIV/BMOD primitives of §2.1. block_factorize runs them in the
// sequential right-looking order (identical numeric result to any legal
// data-driven order) and is the reference every other engine is tested
// against; the shared-memory executor (parallel_factor.hpp) runs the same
// task set through the building blocks declared at the bottom of this file.
// Parallel *timing* is the job of the simulator, which shares this task
// structure.
//
// Both engines and their building blocks are templates on the element type
// T of the block storage, instantiated for double (the default) and float.
// A float run factors into its own arena and promotes the result exactly
// into the usual double BlockFactor (every float is a double), so the fp64
// solve and refinement machinery applies unchanged: that is the
// fp32-refine factorization of SolverOptions::Precision::kFp32Refine.
//
// Storage: the diagonal block of column J is a width x width lower triangle
// (stored dense); each off-diagonal block entry holds only its dense rows
// (row-compressed), matching §2.2's supernodal block regularity.
#pragma once

#include <memory>
#include <vector>

#include "blocks/block_structure.hpp"
#include "blocks/task_graph.hpp"
#include "graph/graph.hpp"
#include "linalg/dense_matrix.hpp"
#include "linalg/kernels.hpp"
#include "support/error.hpp"
#include "support/governor.hpp"
#include "support/sync.hpp"
#include "support/types.hpp"

namespace spc {

// Per-run pivot handling for the factorization engines. Under kStrict a
// failed pivot raises Error(kNotPositiveDefinite) carrying the failing
// global column; under kPerturb, pivots d <= pivot_delta * max|diag(A)| are
// boosted to that threshold and counted (see docs/ROBUSTNESS.md). Both
// engines — the serial right-looking sweep and the parallel executor, in
// either element type — implement identical semantics: the same matrix
// yields the same breakdown column or the same set of perturbed columns
// everywhere (in fp32 up to pivots that fp32 rounding pushes across the
// threshold).
struct FactorizeOptions {
  PivotPolicy pivot_policy = PivotPolicy::kStrict;
  double pivot_delta = kDefaultPivotDelta;
  // Resource governance (docs/ROBUSTNESS.md §7). When set, every large
  // allocation (arena, scratch) is charged against `budget` before it
  // happens, and the serial engines poll `deadline` at block-column
  // boundaries. Both default off; a null budget/deadline costs nothing.
  std::shared_ptr<governor::MemoryBudget> budget = nullptr;
  const governor::Deadline* deadline = nullptr;
};

// Outcome report for one factorization run.
struct FactorizeInfo {
  i64 perturbed_pivots = 0;         // number of boosted pivots (kPerturb)
  std::vector<idx> perturbed_cols;  // their global (permuted) columns, ascending
  idx breakdown_col = kNone;        // first failing column (kStrict failure);
                                    // also carried by the thrown Error
  bool fp32 = false;           // factor numerics were computed in fp32 (an
                               // engine instantiated for float); solves
                               // should refine
  bool fp32_fallback = false;  // fp32 pass broke down under kStrict and the
                               // caller automatically re-factored in fp64
  // Degradation rungs taken by the facade's governed retry loop
  // (SparseCholesky::factorize_governed), in the order walked. Empty for a
  // first-attempt success. fp32_fallback above is the plain-factorize
  // special case of the kFp32ToFp64 rung and is still set alongside it.
  std::vector<governor::DegradeRung> degrade_path;
  void reset() {
    perturbed_pivots = 0;
    perturbed_cols.clear();
    breakdown_col = kNone;
    fp32 = false;
    fp32_fallback = false;
    degrade_path.clear();
  }
};

// Derives the absolute pivot threshold for factoring `a` under `opt`:
// boost = pivot_delta * max|diag(a)| (computed once per run, so every
// engine and every schedule applies the identical test).
PivotControl make_pivot_control(const SymSparse& a, const FactorizeOptions& opt);

// Shared pivot-accounting state for one factorization run. Engines hand a
// PivotEnv to complete_block, which reports every replaced pivot here.
// Thread-safe: parallel workers record through the internal mutex (the
// lock is only ever taken on the failure path, so clean runs pay nothing).
//
// Strict-policy semantics differ by engine shape:
//  - sequential engines (deferred = false): the first failing pivot throws
//    immediately; since those engines complete block columns in ascending
//    order, the reported column is the minimal failing column.
//  - parallel engines (deferred = true): a raced teardown could surface a
//    non-minimal column (failing blocks may live in disjoint elimination
//    subtrees), so the executor instead boosts the failing pivot, keeps the
//    DAG running to completion, records the minimum failing column, and
//    throws after the join. Every column smaller than the true minimum
//    factors with its true values, so the reported column matches the
//    sequential engines exactly.
class PivotEnv {
 public:
  PivotEnv(const BlockStructure& bs, const PivotControl& control, bool deferred)
      : bs_(bs), control_(control), deferred_(deferred) {}

  const PivotControl& control() const { return control_; }

  // Reports `adjusted` (local columns within diagonal block b, ascending)
  // as replaced pivots; first_bad is the first failing pivot's value.
  // Under non-deferred kStrict this throws; otherwise it records.
  void on_block_pivots(block_id b, const std::vector<idx>& adjusted,
                       double first_bad);

  // True when a deferred strict breakdown was recorded.
  bool has_breakdown() const;

  // Throws the recorded (minimum-column) breakdown. Pre: has_breakdown().
  [[noreturn]] void throw_breakdown() const;

  // Fills *info (sorted perturbation locations, breakdown column). Safe to
  // call with info == nullptr. Call after all workers have joined.
  void export_info(FactorizeInfo* info) const;

 private:
  const BlockStructure& bs_;
  PivotControl control_;
  bool deferred_;
  mutable Mutex mutex_;
  std::vector<idx> perturbed_ SPC_GUARDED_BY(mutex_);  // global columns
  idx breakdown_col_ SPC_GUARDED_BY(mutex_) = kNone;
  ErrorContext breakdown_ctx_ SPC_GUARDED_BY(mutex_);
};

struct BlockFactor {
  const BlockStructure* structure = nullptr;  // non-owning
  std::vector<DenseMatrix> diag;     // per block column: w x w
  std::vector<DenseMatrix> offdiag;  // per entry: cnt x w

  // Pooled block storage: when the factor is built by init_block_factor the
  // matrices above are views into this single 64-byte-aligned allocation
  // (one contiguous segment per block column — see BlockArenaLayout), which
  // replaces thousands of per-block heap buffers. Construction paths that
  // build owning blocks directly (deserialize) leave it null.
  std::shared_ptr<double[]> arena;
  i64 arena_elems = 0;

  // Entry (global row r, global col c) of the factor, 0 if structurally zero.
  // For validation / small-matrix use only (does a per-call search).
  double entry(idx r, idx c) const;
};

// Offsets (in elements) of every block inside the pooled factor arena. Blocks
// are laid out column by column — the diagonal block of column J first, then
// J's off-diagonal entries in blkptr order — each segment aligned to a cache
// line so adjacent destination blocks never share one. One layout serves
// every element type.
struct BlockArenaLayout {
  std::vector<i64> diag_off;   // per block column
  std::vector<i64> entry_off;  // per off-diagonal entry
  i64 total = 0;               // elements, alignment padding included
};

BlockArenaLayout compute_block_arena_layout(const BlockStructure& bs);

// Block storage of element type T addressed through a BlockArenaLayout.
// Block b is column-major with its row count as leading dimension: width x
// width for diagonal block J, blkcnt x width for an off-diagonal entry.
template <typename T>
struct BlockArena {
  const BlockArenaLayout* layout = nullptr;
  T* base = nullptr;
  idx nb = 0;  // block columns: ids below nb are diagonal blocks

  T* block(block_id b) const {
    return base + (b < nb ? layout->diag_off[static_cast<std::size_t>(b)]
                          : layout->entry_off[static_cast<std::size_t>(b - nb)]);
  }
};

// The arena one engine run factors into. Its bytes are charged against the
// budget before allocation (a breach throws kResourceExhausted with typed
// context) and refunded when the storage dies. release() hands the result
// out as a BlockFactor: a double arena becomes the factor's own storage; a
// float arena is promoted exactly into a fresh double arena, so both are
// live while the promotion runs.
template <typename T>
class FactorArena {
 public:
  FactorArena(const BlockStructure& bs, const BlockArenaLayout& layout,
              const std::shared_ptr<governor::MemoryBudget>& budget);
  const BlockArena<T>& blocks() const { return blocks_; }
  BlockFactor release();

 private:
  const BlockStructure& bs_;
  std::shared_ptr<governor::MemoryBudget> budget_;
  std::shared_ptr<T[]> data_;
  BlockArena<T> blocks_;
};

// Zeroes block column j's arena segment and scatters A's columns of that
// block column into it. Touches only column j's storage, so distinct columns
// can be initialized concurrently — the parallel executor first-touches each
// column's arena segment on the worker that initializes it. Values are
// rounded to T at this single point.
template <typename T>
void init_block_column(const SymSparse& a, const BlockStructure& bs, idx j,
                       const BlockArena<T>& f);

// Factors `a` (which must already be permuted to the ordering the structure
// was built from) in element type T and returns the double factor. Under the
// default strict policy, throws Error(kNotPositiveDefinite) at the first
// failing pivot; under kPerturb, boosts failing pivots and reports them
// through *info (may be null), which also records whether the numerics ran
// in fp32. Right-looking: after completing block column K, all its updates
// are pushed into later columns (the order the block fan-out method uses).
// `tg` must be build_task_graph(bs); callers keep it with the analysis, so
// repeated factorizations of one pattern never rebuild it.
//
// The pivot test runs in double in both types, but a float run's pivot
// values are fp32 partial results: a barely-SPD matrix can break down in
// fp32 and still factor in fp64. SparseCholesky's factorize_attempt retries
// such a breakdown in double.
template <typename T = double>
BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs,
                            const TaskGraph& tg, const FactorizeOptions& opt = {},
                            FactorizeInfo* info = nullptr);

// One-shot form for callers that hold no task graph: builds it, then factors.
inline BlockFactor block_factorize(const SymSparse& a, const BlockStructure& bs) {
  return block_factorize(a, bs, build_task_graph(bs));
}

// --- Building blocks shared with the parallel executor ---------------------

// Where a BMOD's update lands in its destination block. The update is in
// place when its source rows match one run of destination rows element by
// element and its source columns form one run of destination columns: the
// GEMM can then write straight into the destination at (r0, c0). That holds
// for nearly every update on mesh problems; the rest are fragmented and go
// through a scatter.
struct BmodPlacement {
  bool in_place = false;
  idx r0 = 0;  // destination row of the update's first row
  idx c0 = 0;  // destination column of the update's first column
};
BmodPlacement place_block_mod(const BlockStructure& bs, const BlockMod& m);

// Scratch for a fragmented BMOD's GEMM result. One buffer serves both
// element types: it is sized in bytes and handed out as T*.
class UpdateScratch {
 public:
  // Makes room for `bytes` without touching the memory; never shrinks.
  void reserve_bytes(i64 bytes);
  template <typename T>
  T* get(i64 elems) {
    reserve_bytes(elems * static_cast<i64>(sizeof(T)));
    return static_cast<T*>(buf_.get());
  }

 private:
  struct Free {
    void operator()(void* p) const { ::operator delete(p); }
  };
  std::unique_ptr<void, Free> buf_;
  i64 cap_bytes_ = 0;
};

// Applies one BMOD(I,J,K), L_IJ -= L_IK L_JK^T, from the source blocks
// src_i = L_IK and src_j = L_JK into `dest`, the destination block's storage
// (width x width for a diagonal destination; every block has its row count
// as leading dimension), in place when place_block_mod says so. An in-place
// GEMM into a diagonal destination also writes the dead strict upper part of
// the square it covers; BFAC zeroes it. A fragmented update runs its GEMM
// into `update` and is scattered through `rel_rows` (both caller scratch);
// with `scatter_s`, the time that scatter took is added to it. The caller
// must be the destination's only writer — the shared-memory executor's drain
// flag, the distributed executor's owner, or the serial sweep. Serial,
// distributed and shared-memory engines all apply their updates through this
// one function.
template <typename T>
void apply_block_mod_to(const BlockStructure& bs, const BlockMod& m,
                        const T* src_i, const T* src_j, T* dest,
                        UpdateScratch& update, std::vector<idx>& rel_rows,
                        double* scatter_s = nullptr);

// Runs a block's completion operation: BFAC for diagonal blocks, BDIV for
// off-diagonal ones (the diagonal block of its column must be factored).
// Failed BFAC pivots are routed through the PivotEnv's policy (throw /
// record / boost-and-defer).
template <typename T>
void complete_block(const BlockStructure& bs, block_id b, const BlockArena<T>& f,
                    PivotEnv& pivots);

}  // namespace spc
