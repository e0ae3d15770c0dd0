// Public API: sparse Cholesky factorization with block fan-out analysis.
//
// Typical use (see examples/quickstart.cpp):
//
//   spc::SymSparse a = spc::make_grid2d(64, 64);
//   auto chol = spc::SparseCholesky::analyze(a);        // order + symbolic
//   chol.factorize();                                   // numeric L
//   std::vector<double> x = chol.solve(b);              // A x = b
//
//   // Parallel mapping analysis on a simulated Paragon:
//   auto plan = chol.plan_parallel(64, spc::RemapHeuristic::kIncreasingDepth,
//                                  spc::RemapHeuristic::kCyclic);
//   spc::SimResult r = chol.simulate(plan);
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "blocks/block_structure.hpp"
#include "blocks/blocking.hpp"
#include "blocks/domains.hpp"
#include "blocks/task_graph.hpp"
#include "check/check.hpp"
#include "factor/numeric_factor.hpp"
#include "factor/parallel_solve.hpp"
#include "graph/graph.hpp"
#include "mapping/balance.hpp"
#include "mapping/block_map.hpp"
#include "mapping/heuristics.hpp"
#include "sim/cost_model.hpp"
#include "sim/fanout_sim.hpp"
#include "sim/machine.hpp"
#include "support/governor.hpp"
#include "support/types.hpp"
#include "symbolic/amalgamate.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace spc {

struct ParallelWorkspace;  // factor/parallel_factor.hpp

struct SolverOptions {
  enum class Ordering {
    kMmd,      // multiple minimum degree (default; the paper's choice for
               // irregular problems)
    kAmd,      // approximate minimum degree (cheaper updates, similar fill)
    kNd,       // general nested dissection with BFS separators
    kNatural,  // keep the given order (dense problems, pre-ordered input)
  };
  Ordering ordering = Ordering::kMmd;
  idx block_size = 48;  // the paper's B: every supernode is cut at it
  bool amalgamate = true;
  AmalgamationOptions amalgamation;

  // The blocking configuration analyze() hands to make_blocking.
  BlockingOptions blocking_options() const { return BlockingOptions{block_size}; }

  // Pivot handling for the numeric phase (factor/numeric_factor.hpp):
  // kStrict throws Error(kNotPositiveDefinite) at the first failing pivot;
  // kPerturb boosts failing pivots to pivot_delta * max|diag(A)| and
  // records them in factorize_info(). See docs/ROBUSTNESS.md.
  PivotPolicy pivot_policy = PivotPolicy::kStrict;
  double pivot_delta = kDefaultPivotDelta;

  // Numeric precision of every factorization path (factor/numeric_factor.hpp).
  // kFp32Refine runs the serial sweep or the executor over float blocks (up
  // to ~2x kernel throughput), promotes the factor to double, and pairs it
  // with fp64 iterative refinement in the solve paths, recovering
  // fp64-quality solutions for reasonably conditioned systems. If the fp32
  // pass breaks down under kStrict — fp32 rounding can push a barely-SPD
  // pivot negative — factorize() and factorize_parallel() automatically
  // retry in fp64 and set factorize_info().fp32_fallback; factorize_governed()
  // takes its kFp32ToFp64 rung (docs/ROBUSTNESS.md).
  enum class Precision {
    kFp64,        // standard double-precision factorization (default)
    kFp32Refine,  // fp32 factorization + fp64 iterative refinement
  };
  Precision precision = Precision::kFp64;

  // --- Resource governance (docs/ROBUSTNESS.md §7) -------------------------
  // Hard cap in bytes on governed allocations (factor arena, execution
  // workspaces, per-worker scratch, fp32 arena, RHS staging). 0 = unlimited:
  // accounting still runs, so memory_budget()->peak_bytes() measures a
  // workload without capping it. A breach throws Error(kResourceExhausted)
  // with the full accounting in its ErrorContext.
  i64 mem_budget_bytes = 0;
  // Per-request wall-clock limit in seconds, armed at the start of each
  // factorize/solve call; < 0 = no deadline. A limit of exactly 0 is
  // armed-and-already-expired (deterministic for tests). Breaches throw
  // Error(kDeadlineExceeded).
  double deadline_s = -1.0;
  // Bounds and switches for factorize_governed()'s degradation ladder.
  governor::RetryPolicy retry{};
};

// A processor count + block mapping + domain decomposition, with the load
// balance statistics the paper's analysis is built on.
struct ParallelPlan {
  BlockMap map;
  DomainDecomposition domains;
  RootWork root_work;
  BalanceStats balance;
};

class SparseCholesky {
 public:
  // What analyze() derives from the pattern and options alone. Written once,
  // at construction, and shared by copies and with_values() solvers; no
  // ladder rung replaces it, so a degraded solver never alters its peers.
  struct Analysis {
    std::vector<idx> perm;    // final new->old (fill order composed with postorder)
    std::vector<i64> col_ptr; // pattern of A(perm, perm), for with_values'
    std::vector<idx> row_idx; // exact compare
    std::vector<idx> parent;  // column etree of A(perm, perm)
    SymbolicFactor sf;
    BlockStructure bs;
    TaskGraph tg;
    i64 factor_nnz = 0;
    i64 factor_flops = 0;
  };

  // Symbolic phase: ordering, elimination tree, supernodes (+amalgamation),
  // block partition, block structure, task graph.
  static SparseCholesky analyze(const SymSparse& a, const SolverOptions& opt = {});
  // Same, but with a caller-provided fill-reducing ordering (new->old), e.g.
  // nested dissection for grid problems.
  static SparseCholesky analyze_ordered(const SymSparse& a, std::vector<idx> perm,
                                        const SolverOptions& opt = {});

  // Same-pattern refactorization: a new, unfactored solver over this
  // solver's analysis and options with `a` as its matrix, for one O(nnz)
  // permute and no ordering or symbolic work; its factor is bitwise the one
  // a cold analyze() of `a` gives. The permuted col_ptr/row_idx must equal
  // the analysis' exactly (a permutation is a bijection, so this holds iff
  // `a` has the analyzed pattern), else Error(kMalformedInput). Factor,
  // budget and workspaces are the new solver's own.
  SparseCholesky with_values(const SymSparse& a) const;
  // Same over an analysis kept apart from its solver (the spcd registry);
  // `opt` must carry the analyze options it was built with.
  static SparseCholesky with_values(std::shared_ptr<const Analysis> analysis,
                                    const SymSparse& a, const SolverOptions& opt);

  // Numeric factorization (throws spc::Error if A is not SPD).
  void factorize();
  // Same factor computed by the shared-memory data-driven executor (real
  // std::thread workers over the BFAC/BDIV/BMOD task graph; see
  // factor/parallel_factor.hpp). 0 threads = hardware concurrency. The
  // execution workspace (priorities, arena layout, counters, scratch) is
  // built on the first call and cached, so repeated factorizations of the
  // same analyzed structure re-plan and allocate nothing.
  void factorize_parallel(int num_threads = 0);
  bool factorized() const { return factor_.has_value(); }

  // Governed factorization: runs the configured engine under the solver's
  // memory budget and a freshly armed deadline, walking an explicit
  // degradation ladder on failure (docs/ROBUSTNESS.md §7):
  //   fp32 breakdown          -> refactorize in fp64        (kFp32ToFp64)
  //   memory-budget breach    -> serial engine              (kParallelToSerial)
  //   transient fault         -> one same-config retry      (kRetryTransient)
  //                           -> serial engine              (kParallelToSerial)
  // Cancellation, malformed input, deadline breaches, and fp64 SPD failures
  // are never retried. Every rung taken is recorded (in order) in
  // factorize_info().degrade_path, the attempt count is bounded by
  // options().retry.max_attempts, and a degraded configuration sticks:
  // options() reflects the rungs taken. num_threads == 1 starts serial;
  // anything else starts on the parallel executor. Before a parallel
  // attempt, estimate_factor_bytes() gates admission so an infeasible
  // request degrades without wasting numeric work.
  void factorize_governed(int num_threads = 0);

  // Predicted governed bytes of factorize_parallel(num_threads) for the
  // current plan (factor/parallel_factor.hpp). 0 threads = hardware
  // concurrency.
  i64 estimate_factor_bytes(int num_threads = 0) const;

  // The solver's byte accounting, created at analyze() time (account-only
  // unless options().mem_budget_bytes caps it). All governed allocations of
  // this solver charge here; in_use_bytes() returns to the cached
  // workspaces' steady-state footprint after each run and to 0 when the
  // solver and its workspaces die.
  const std::shared_ptr<governor::MemoryBudget>& memory_budget() const {
    return budget_;
  }

  // Perturbation/breakdown accounting of the most recent factorize() /
  // factorize_parallel() call (zeroed before each run). Under kPerturb,
  // perturbed_pivots / perturbed_cols report the boosted pivots; under
  // kStrict the call throws instead and breakdown_col carries the failing
  // column in the thrown Error's context.
  const FactorizeInfo& factorize_info() const { return info_; }

  // --- Solves ---------------------------------------------------------------
  // Every overload below is one call into the same private solve core:
  // permute into the cached solve workspace, overlay governance (the
  // solver's memory budget and a freshly armed options().deadline_s, unless
  // `opt` brings its own), run the panel solve of factor/parallel_solve.hpp
  // (opt.threads == 1, the default, runs one serial sweep; >= 2 sweeps
  // column slices of a multi-RHS panel at once), refine, and permute back.
  // A perturbed-pivot factor gets one refinement step and an fp32 factor two
  // (docs/ROBUSTNESS.md), whichever overload is called, so a one-RHS solve
  // gives bitwise the same answer through every entry point. A perturbed
  // factor whose refined solution of a finite RHS is non-finite (the input
  // was indefinite) throws Error(kNotPositiveDefinite) instead of returning it. The workspace
  // (update panels, RHS staging) is built on the first call and
  // reused, so repeated solves allocate nothing — and because every
  // overload shares it, one SparseCholesky object must not run two solves at
  // the same time (spcd serializes them per registry entry).

  // Solves A x = b in the ORIGINAL row/column order of the input matrix.
  std::vector<double> solve(const std::vector<double>& b,
                            const SolveOptions& opt = {}) const;

  // Multi-RHS solve in place: B is num_rows() x nrhs, column-major, in the
  // ORIGINAL row order; processed in panels of opt.nrhs_block columns so
  // the factor is walked once per panel.
  void solve_multi(DenseMatrix& b, const SolveOptions& opt = {}) const;

  // Solve followed by iterative refinement until the correction's inf-norm
  // drops below `tol` or `max_iters` steps (never fewer than the automatic
  // steps above). For well-conditioned SPD systems one step already reaches
  // working accuracy; the option matters for the ill-conditioned stiffness
  // matrices in the BCSSTK class.
  std::vector<double> solve_refined(const std::vector<double>& b,
                                    const SolveOptions& opt, int max_iters = 3,
                                    double tol = 1e-14) const;
  std::vector<double> solve_refined(const std::vector<double>& b, int max_iters = 3,
                                    double tol = 1e-14) const;

  // --- Introspection -------------------------------------------------------
  idx num_rows() const { return a_perm_.num_rows(); }
  const SolverOptions& options() const { return opt_; }
  const std::vector<idx>& ordering() const { return analysis_->perm; }  // new->old
  const SymSparse& permuted_matrix() const { return a_perm_; }
  const std::vector<idx>& etree_parent() const { return analysis_->parent; }
  const SymbolicFactor& symbolic() const { return analysis_->sf; }
  const BlockStructure& structure() const { return analysis_->bs; }
  const TaskGraph& task_graph() const { return analysis_->tg; }
  const std::shared_ptr<const Analysis>& analysis() const { return analysis_; }
  const BlockFactor& factor() const;

  i64 factor_nnz_exact() const { return analysis_->factor_nnz; }     // NZ in L (Table 1)
  i64 factor_flops_exact() const { return analysis_->factor_flops; } // "Ops to factor"

  // --- Parallel analysis ---------------------------------------------------
  // Builds a 2-D mapping for `num_procs` processors with the given row and
  // column remapping heuristics; domains per the paper's §2.3 when enabled.
  ParallelPlan plan_parallel(idx num_procs, RemapHeuristic row_h,
                             RemapHeuristic col_h, bool use_domains = true) const;
  // Plan from an explicit map (for custom mappings, e.g. subcube columns).
  ParallelPlan plan_from_map(BlockMap map, bool use_domains = true) const;

  // Simulated block fan-out factorization on the Paragon-like machine model.
  // `policy` selects the paper's data-driven scheduling or the priority
  // scheduling it proposes as future work (see sim/fanout_sim.hpp).
  SimResult simulate(const ParallelPlan& plan, const CostModel& cm = {},
                     SchedulingPolicy policy = SchedulingPolicy::kDataDriven,
                     SimTrace* trace = nullptr) const;

  // --- Invariant validation (src/check/) -----------------------------------
  // Runs every analyze-phase validator: matrix canonical form, elimination
  // tree, postorder, column counts, supernode partition, symbolic factor,
  // block structure, task graph, and a symbolic execution of the schedule.
  // With SPC_CHECK_INVARIANTS=1 in the environment, analyze() and
  // analyze_ordered() run this automatically and throw on any error.
  check::Report check_analysis() const;
  // Validates a plan's mapping and domains, and recomputes the work model
  // and balance statistics from scratch against the reported values. Runs
  // automatically in plan_parallel()/plan_from_map() under
  // SPC_CHECK_INVARIANTS=1.
  check::Report check_plan(const ParallelPlan& plan) const;

 private:
  SparseCholesky() = default;

  // One factorization: the parallel executor or the serial sweep, in the
  // element type options().precision selects (the one place that maps it),
  // under the given deadline and the solver's budget. With fp64_retry, an
  // fp32 strict breakdown is retried in fp64 and sets fp32_fallback; the
  // governed ladder passes false and takes its kFp32ToFp64 rung instead.
  void factorize_attempt(bool parallel, int num_threads,
                         const governor::Deadline* deadline, bool fp64_retry);
  // Shared and never mutated, so the factor's structure pointer and the
  // workspaces stay valid when this object is copied or moved.
  std::shared_ptr<const Analysis> analysis_;
  SymSparse a_perm_;
  SolverOptions opt_;
  FactorizeInfo info_;
  std::optional<BlockFactor> factor_;
  // Cached parallel execution state; built lazily by factorize_parallel, and
  // rebuilt when a copy of this object shares it.
  std::shared_ptr<ParallelWorkspace> pws_;
  // Cached solve workspace, same lifecycle; mutable because solve() is
  // const while the workspace's counters/scratch are per-run state.
  SolveWorkspace& solve_workspace() const;
  mutable std::shared_ptr<SolveWorkspace> sws_;
  // The solve core behind every public solve overload (see "Solves" above):
  // `b` and `x` are rows x nrhs column-major in the ORIGINAL order and may
  // alias; max_iters / tol bound the refinement beyond the automatic steps.
  void solve_core(const double* b, idx rows, idx nrhs, double* x,
                  const SolveOptions& opt, int max_iters, double tol) const;
  // Shared with cached workspaces and arena deleters, so accounting outlives
  // the facade if a workspace does.
  std::shared_ptr<governor::MemoryBudget> budget_;
};

// Convenience one-shot solve.
std::vector<double> solve_spd(const SymSparse& a, const std::vector<double>& b,
                              const SolverOptions& opt = {});

}  // namespace spc
