#include "cholesky/sparse_cholesky.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "factor/parallel_factor.hpp"
#include "graph/permutation.hpp"
#include "ordering/mmd.hpp"
#include "ordering/nested_dissection.hpp"
#include "sim/fanout_sim.hpp"
#include "support/error.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

// SPC_CHECK_INVARIANTS=1 turns on the debug validators at every pipeline
// phase boundary. Read once: the flag is meant for whole-process debug runs.
bool invariants_enabled() {
  static const bool on = [] {
    const char* v = std::getenv("SPC_CHECK_INVARIANTS");
    return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
  }();
  return on;
}

// Refinement sweeps the plain solve paths apply automatically: one step
// recovers working accuracy after perturbed pivots (docs/ROBUSTNESS.md);
// an fp32-computed factor starts from ~single-precision backward error, so
// it gets two (residuals are evaluated in fp64, and each sweep contracts
// the error by O(cond(A) * eps_fp32)).
int auto_refine_steps(const FactorizeInfo& info) {
  if (info.fp32) return 2;
  return info.perturbed_pivots > 0 ? 1 : 0;
}

bool all_finite(const std::vector<double>& v) {
  return std::all_of(v.begin(), v.end(), [](double e) { return std::isfinite(e); });
}

// Arms a per-request deadline from SolverOptions::deadline_s (< 0 = none;
// exactly 0 = armed-and-already-expired).
governor::Deadline arm_deadline(double limit_s) {
  return limit_s >= 0.0 ? governor::Deadline(limit_s) : governor::Deadline();
}

}  // namespace

SparseCholesky SparseCholesky::analyze(const SymSparse& a, const SolverOptions& opt) {
  std::vector<idx> perm;
  switch (opt.ordering) {
    case SolverOptions::Ordering::kMmd:
      perm = mmd_order(a.pattern());
      break;
    case SolverOptions::Ordering::kAmd:
      perm = amd_order(a.pattern());
      break;
    case SolverOptions::Ordering::kNd:
      perm = nested_dissection_order(a.pattern());
      break;
    case SolverOptions::Ordering::kNatural:
      perm = identity_permutation(a.num_rows());
      break;
  }
  return analyze_ordered(a, std::move(perm), opt);
}

SparseCholesky SparseCholesky::analyze_ordered(const SymSparse& a,
                                               std::vector<idx> perm,
                                               const SolverOptions& opt) {
  SPC_CHECK(static_cast<idx>(perm.size()) == a.num_rows(),
            "analyze_ordered: permutation size mismatch");
  SPC_CHECK(opt.block_size >= 1, "analyze_ordered: block_size must be >= 1");
  SparseCholesky chol;
  chol.opt_ = opt;
  auto an = std::make_shared<Analysis>();

  // Postorder the elimination tree of A(perm, perm) so that supernodes and
  // subtrees are contiguous (required by the block partition and by
  // amalgamation), then permute A once by the composed ordering.
  const std::vector<idx> parent1 = elimination_tree(a, perm);
  const std::vector<idx> post = etree_postorder(parent1);
  an->perm = compose_permutations(perm, post);
  chol.a_perm_ = a.permuted(an->perm);
  an->col_ptr = chol.a_perm_.col_ptr();
  an->row_idx = chol.a_perm_.row_idx();
  an->parent = relabel_parent(parent1, post);

  const std::vector<i64> counts = factor_col_counts(chol.a_perm_, an->parent);
  an->factor_nnz = factor_nnz(counts);
  an->factor_flops = factor_flops(counts);

  SupernodePartition sn = find_supernodes(an->parent, counts);
  if (opt.amalgamate) {
    sn = amalgamate_supernodes(sn, an->parent, counts, opt.amalgamation);
  }
  an->sf = symbolic_factorize(chol.a_perm_, an->parent, sn);
  an->bs = build_block_structure(an->sf, make_blocking(an->sf, opt.blocking_options()));
  an->tg = build_task_graph(an->bs);
  chol.analysis_ = std::move(an);
  // The budget exists even when uncapped so every run is accounted and
  // peak_bytes() can size a cap for later governed runs.
  chol.budget_ = std::make_shared<governor::MemoryBudget>(opt.mem_budget_bytes);
  if (invariants_enabled()) chol.check_analysis().require_ok("analyze");
  return chol;
}

SparseCholesky SparseCholesky::with_values(const SymSparse& a) const {
  return with_values(analysis_, a, opt_);
}

SparseCholesky SparseCholesky::with_values(std::shared_ptr<const Analysis> analysis,
                                           const SymSparse& a,
                                           const SolverOptions& opt) {
  SPC_CHECK(analysis != nullptr, "with_values: no analysis");
  SparseCholesky chol;
  chol.opt_ = opt;
  // A different dimension leaves a_perm_ empty, which fails the compare.
  if (a.num_rows() == static_cast<idx>(analysis->perm.size())) {
    chol.a_perm_ = a.permuted(analysis->perm);
  }
  if (chol.a_perm_.col_ptr() != analysis->col_ptr ||
      chol.a_perm_.row_idx() != analysis->row_idx) {
    throw Error("with_values: the matrix does not have the analyzed pattern",
                ErrorKind::kMalformedInput);
  }
  chol.analysis_ = std::move(analysis);
  chol.budget_ = std::make_shared<governor::MemoryBudget>(opt.mem_budget_bytes);
  return chol;
}

check::Report SparseCholesky::check_analysis() const {
  const idx n = a_perm_.num_rows();
  check::Report r = check::check_matrix(a_perm_);
  r.merge(check::check_etree(a_perm_, etree_parent()));
  // The stored matrix is postordered, so the identity must be a valid
  // postorder of its elimination tree.
  r.merge(check::check_postorder(etree_parent(), identity_permutation(n)));
  r.merge(check::check_colcounts(a_perm_, etree_parent(),
                                 factor_col_counts(a_perm_, etree_parent())));
  r.merge(check::check_supernodes(symbolic().sn, n));
  r.merge(check::check_symbolic(a_perm_, etree_parent(), symbolic()));
  r.merge(check::check_block_structure(symbolic(), structure()));
  r.merge(check::check_blocking(symbolic(), structure().part, opt_.block_size));
  r.merge(check::check_task_graph(structure(), task_graph()));
  r.merge(check::check_schedule(structure(), task_graph()));
  return r;
}

check::Report SparseCholesky::check_plan(const ParallelPlan& plan) const {
  return check::check_plan(structure(), task_graph(), plan.domains, plan.map, plan.balance);
}

void SparseCholesky::factorize_attempt(bool parallel, int num_threads,
                                       const governor::Deadline* deadline,
                                       bool fp64_retry) {
  const BlockStructure& bs = analysis_->bs;
  const TaskGraph& tg = analysis_->tg;
  // One engine per call, instantiated for the precision's element type.
  const auto run = [&](auto element) {
    using T = decltype(element);
    if (parallel) {
      // A copy shares its source's workspace; give it its own.
      if (!pws_ || pws_.use_count() > 1) {
        pws_ = std::make_shared<ParallelWorkspace>(bs, tg);
      }
      ParallelFactorOptions opt;
      opt.num_threads = num_threads;
      opt.pivot_policy = opt_.pivot_policy;
      opt.pivot_delta = opt_.pivot_delta;
      opt.info = &info_;
      opt.budget = budget_;
      opt.deadline = deadline;
      factor_ = block_factorize_parallel<T>(a_perm_, bs, tg, opt, pws_.get());
      return;
    }
    FactorizeOptions fopt;
    fopt.pivot_policy = opt_.pivot_policy;
    fopt.pivot_delta = opt_.pivot_delta;
    fopt.budget = budget_;
    fopt.deadline = deadline;
    factor_ = block_factorize<T>(a_perm_, bs, tg, fopt, &info_);
  };
  if (opt_.precision != SolverOptions::Precision::kFp32Refine) {
    run(double{});
    return;
  }
  try {
    run(float{});
    return;
  } catch (const Error& e) {
    if (!fp64_retry || e.kind() != ErrorKind::kNotPositiveDefinite) throw;
    // fp32 rounding can push a barely-SPD pivot negative where the fp64
    // factorization succeeds; retry in full precision and record it. This
    // is the ungoverned form of the governed ladder's kFp32ToFp64 rung.
  }
  run(double{});
  info_.fp32_fallback = true;
}

void SparseCholesky::factorize() {
  const governor::Deadline dl = arm_deadline(opt_.deadline_s);
  factorize_attempt(/*parallel=*/false, 1, dl.armed() ? &dl : nullptr,
                    /*fp64_retry=*/true);
}

void SparseCholesky::factorize_parallel(int num_threads) {
  const governor::Deadline dl = arm_deadline(opt_.deadline_s);
  factorize_attempt(/*parallel=*/true, num_threads, dl.armed() ? &dl : nullptr,
                    /*fp64_retry=*/true);
}

i64 SparseCholesky::estimate_factor_bytes(int num_threads) const {
  i64 bytes =
      estimate_parallel_factor_bytes(analysis_->bs, analysis_->tg, num_threads);
  // An fp32 run ends with its float arena and the promoted double arena
  // both live.
  if (opt_.precision == SolverOptions::Precision::kFp32Refine) {
    bytes += compute_block_arena_layout(analysis_->bs).total *
             static_cast<i64>(sizeof(float));
  }
  return bytes;
}

void SparseCholesky::factorize_governed(int num_threads) {
  const governor::RetryPolicy pol = opt_.retry;
  const int max_attempts = std::max(1, pol.max_attempts);
  const governor::Deadline dl = arm_deadline(opt_.deadline_s);
  const governor::Deadline* deadline = dl.armed() ? &dl : nullptr;
  bool parallel = num_threads != 1;
  bool transient_retried = false;
  std::vector<governor::DegradeRung> path;
  for (int attempt = 1;; ++attempt) {
    try {
      // Admission control: a parallel attempt whose predicted footprint
      // cannot fit under the cap degrades immediately instead of running
      // until the arena charge breaches mid-build.
      if (parallel && budget_->budget_bytes() > 0) {
        const i64 est = estimate_factor_bytes(num_threads);
        if (est + budget_->in_use_bytes() > budget_->budget_bytes()) {
          ErrorContext ctx;
          ctx.bytes_requested = est;
          ctx.bytes_in_use = budget_->in_use_bytes();
          ctx.budget_bytes = budget_->budget_bytes();
          ctx.has_budget = true;
          ctx.phase = "factorize";
          throw_budget_exceeded("predicted footprint exceeds memory budget",
                                ctx);
        }
      }
      // The ladder takes the fp32 breakdown rung itself (below).
      factorize_attempt(parallel, num_threads, deadline, /*fp64_retry=*/false);
      info_.degrade_path = path;
      // The plain-factorize flag for the ladder's fp32 rung, so existing
      // introspection sees the same signal either way.
      for (const governor::DegradeRung r : path) {
        if (r == governor::DegradeRung::kFp32ToFp64) info_.fp32_fallback = true;
      }
      return;
    } catch (const Error& e) {
      const ErrorKind kind = e.kind();
      bool have_rung = false;
      governor::DegradeRung rung = governor::DegradeRung::kRetryTransient;
      if (kind == ErrorKind::kNotPositiveDefinite) {
        // Only an fp32 breakdown is recoverable: retry in full precision.
        // An fp64 SPD failure is a property of the matrix, not the run.
        if (pol.allow_degrade &&
            opt_.precision == SolverOptions::Precision::kFp32Refine) {
          opt_.precision = SolverOptions::Precision::kFp64;
          rung = governor::DegradeRung::kFp32ToFp64;
          have_rung = true;
        }
      } else if (kind == ErrorKind::kResourceExhausted) {
        // Memory pressure: give up the parallel workspace entirely.
        if (pol.allow_degrade && parallel) {
          parallel = false;
          rung = governor::DegradeRung::kParallelToSerial;
          have_rung = true;
        }
      } else if (kind == ErrorKind::kInjectedFault ||
                 kind == ErrorKind::kInternal) {
        // Possibly-transient executor faults: one same-configuration retry
        // (with optional backoff), then fall back to the serial engine.
        if (!transient_retried) {
          transient_retried = true;
          if (pol.backoff_s > 0.0) {
            std::this_thread::sleep_for(
                std::chrono::duration<double>(pol.backoff_s));
          }
          rung = governor::DegradeRung::kRetryTransient;
          have_rung = true;
        } else if (pol.allow_degrade && parallel) {
          parallel = false;
          rung = governor::DegradeRung::kParallelToSerial;
          have_rung = true;
        }
      }
      // kCancelled / kMalformedInput / kDeadlineExceeded, an exhausted
      // ladder, or an exhausted attempt bound: surface the failure with the
      // rungs already taken on record.
      if (!have_rung || attempt >= max_attempts) {
        info_.degrade_path = path;
        throw;
      }
      path.push_back(rung);
    }
  }
}

const BlockFactor& SparseCholesky::factor() const {
  SPC_CHECK(factor_.has_value(), "factor(): call factorize() first");
  return *factor_;
}

SolveWorkspace& SparseCholesky::solve_workspace() const {
  // A copy shares its source's workspace; give it its own.
  if (!sws_ || sws_.use_count() > 1) {
    sws_ = std::make_shared<SolveWorkspace>(analysis_->bs);
  }
  return *sws_;
}

void SparseCholesky::solve_core(const double* b, idx rows, idx nrhs, double* x,
                                const SolveOptions& opt, int max_iters,
                                double tol) const {
  SPC_CHECK(factor_.has_value(), "solve(): call factorize() first");
  const idx n = a_perm_.num_rows();
  SPC_CHECK(rows == n, "solve(): right-hand side size mismatch");
  if (nrhs == 0) return;
  SolveWorkspace& ws = solve_workspace();
  const std::vector<idx>& perm = analysis_->perm;
  // Governance overlay: the solver's budget and a freshly armed per-request
  // deadline, unless the caller supplied their own.
  SolveOptions gopt = opt;
  if (gopt.budget == nullptr) gopt.budget = budget_;
  const governor::Deadline dl =
      gopt.deadline == nullptr ? arm_deadline(opt_.deadline_s)
                               : governor::Deadline();
  if (dl.armed()) gopt.deadline = &dl;
  // Stage the permuted panel in the workspace's persistent buffer (perm[k]
  // = original index of position k), solve it in place, then permute back —
  // zero allocation at steady state. Growth is charged against the budget
  // (and covered by the SPC_FAULT alloc site).
  ws.stage_rhs(static_cast<i64>(n) * nrhs, gopt.budget);
  const auto col = [n](auto* base, idx c) {
    return base + static_cast<std::size_t>(c) * static_cast<std::size_t>(n);
  };
  for (idx c = 0; c < nrhs; ++c) {
    const double* src = col(b, c);
    double* dst = col(ws.rhs.data(), c);
    for (idx k = 0; k < n; ++k) dst[k] = src[perm[k]];
  }
  DenseMatrix staged;
  staged.attach(ws.rhs.data(), n, nrhs);
  block_solve_multi_parallel(*factor_, staged, gopt, &ws);
  // Column-wise refinement against the unperturbed A (docs/ROBUSTNESS.md).
  // A perturbed or fp32 factor always gets its auto_refine_steps; beyond
  // those, up to max_iters steps run until the correction drops to tol.
  // `b` still holds the original right-hand sides here even when x == b.
  const int floor_steps = auto_refine_steps(info_);
  const int steps = std::max(floor_steps, max_iters);
  if (steps > 0) {
    std::vector<double> pb(static_cast<std::size_t>(n));
    std::vector<double> px(static_cast<std::size_t>(n));
    for (idx c = 0; c < nrhs; ++c) {
      const double* src = col(b, c);
      double* sc = col(ws.rhs.data(), c);
      for (idx k = 0; k < n; ++k) pb[static_cast<std::size_t>(k)] = src[perm[k]];
      std::copy(sc, sc + n, px.begin());
      for (int it = 0; it < steps; ++it) {
        const double corr = refine_once(a_perm_, *factor_, pb, px, gopt, &ws);
        if (it + 1 >= floor_steps && corr <= tol) break;
      }
      // Boosted pivots recover A x = b only when A is positive definite up
      // to the boosts. On an indefinite matrix the boosts cascade until the
      // factor overflows: report that rather than return NaN
      // (docs/ROBUSTNESS.md).
      if (info_.perturbed_pivots > 0 && all_finite(pb) && !all_finite(px)) {
        ErrorContext ctx;
        ctx.column = info_.perturbed_cols.empty() ? -1 : info_.perturbed_cols.front();
        ctx.phase = "solve";
        throw_not_spd(
            "solve: non-finite solution from a perturbed factor, the matrix "
            "is not positive definite (first boosted pivot)",
            ctx);
      }
      std::copy(px.begin(), px.end(), sc);
    }
  }
  for (idx c = 0; c < nrhs; ++c) {
    double* dst = col(x, c);
    const double* src = col(ws.rhs.data(), c);
    for (idx k = 0; k < n; ++k) dst[perm[k]] = src[k];
  }
}

std::vector<double> SparseCholesky::solve(const std::vector<double>& b,
                                          const SolveOptions& opt) const {
  return solve_refined(b, opt, /*max_iters=*/0);
}

void SparseCholesky::solve_multi(DenseMatrix& b, const SolveOptions& opt) const {
  solve_core(b.data(), b.rows(), b.cols(), b.data(), opt, /*max_iters=*/0, 0.0);
}

std::vector<double> SparseCholesky::solve_refined(const std::vector<double>& b,
                                                  const SolveOptions& opt,
                                                  int max_iters,
                                                  double tol) const {
  std::vector<double> x(b.size());
  solve_core(b.data(), static_cast<idx>(b.size()), 1, x.data(), opt, max_iters, tol);
  return x;
}

std::vector<double> SparseCholesky::solve_refined(const std::vector<double>& b,
                                                  int max_iters, double tol) const {
  return solve_refined(b, SolveOptions{}, max_iters, tol);
}

ParallelPlan SparseCholesky::plan_parallel(idx num_procs, RemapHeuristic row_h,
                                           RemapHeuristic col_h,
                                           bool use_domains) const {
  const ProcessorGrid grid = make_grid(num_procs);
  ParallelPlan plan;
  plan.domains = use_domains ? find_domains(symbolic(), structure(), task_graph(), num_procs)
                             : no_domains(structure().num_block_cols());
  plan.root_work = compute_root_work(task_graph(), structure(), plan.domains, num_procs);
  const std::vector<idx> depth = block_depths(structure(), etree_parent());
  plan.map = make_heuristic_map(grid, row_h, col_h, plan.root_work, depth);
  plan.balance = compute_balance(plan.root_work, plan.map);
  if (invariants_enabled()) check_plan(plan).require_ok("plan");
  return plan;
}

ParallelPlan SparseCholesky::plan_from_map(BlockMap map, bool use_domains) const {
  const idx num_procs = map.grid.size();
  ParallelPlan plan;
  plan.domains = use_domains ? find_domains(symbolic(), structure(), task_graph(), num_procs)
                             : no_domains(structure().num_block_cols());
  plan.root_work = compute_root_work(task_graph(), structure(), plan.domains, num_procs);
  plan.map = std::move(map);
  plan.balance = compute_balance(plan.root_work, plan.map);
  if (invariants_enabled()) check_plan(plan).require_ok("plan");
  return plan;
}

SimResult SparseCholesky::simulate(const ParallelPlan& plan, const CostModel& cm,
                                   SchedulingPolicy policy, SimTrace* trace) const {
  return simulate_fanout(structure(), task_graph(), plan.map, plan.domains, cm, policy, trace);
}

std::vector<double> solve_spd(const SymSparse& a, const std::vector<double>& b,
                              const SolverOptions& opt) {
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  chol.factorize();
  return chol.solve(b);
}

}  // namespace spc
