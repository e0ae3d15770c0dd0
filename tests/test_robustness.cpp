// Robustness tests: the structured error taxonomy, malformed-input handling
// in both file readers, the generators' SPD opt-out, pivot-policy semantics
// (strict breakdown column parity and perturbation parity across all
// factorization engines), perturbed-solve recovery through the facade, and
// cooperative cancellation with workspace reuse. See docs/ROBUSTNESS.md.
#include <gtest/gtest.h>

#include <atomic>

#include "support/sync.hpp"
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/parallel_factor.hpp"
#include "factor/residual.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/harwell_boeing.hpp"
#include "graph/matrix_market.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

// --- Error taxonomy --------------------------------------------------------

TEST(ErrorTaxonomy, KindNames) {
  EXPECT_STREQ(error_kind_name(ErrorKind::kInternal), "Internal");
  EXPECT_STREQ(error_kind_name(ErrorKind::kNotPositiveDefinite),
               "NotPositiveDefinite");
  EXPECT_STREQ(error_kind_name(ErrorKind::kMalformedInput), "MalformedInput");
  EXPECT_STREQ(error_kind_name(ErrorKind::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(error_kind_name(ErrorKind::kCancelled), "Cancelled");
  EXPECT_STREQ(error_kind_name(ErrorKind::kInjectedFault), "InjectedFault");
}

TEST(ErrorTaxonomy, ExitCodeContract) {
  // docs/ROBUSTNESS.md: these values are a documented CLI contract.
  EXPECT_EQ(exit_code_for(ErrorKind::kInternal), 1);
  EXPECT_EQ(exit_code_for(ErrorKind::kMalformedInput), 3);
  EXPECT_EQ(exit_code_for(ErrorKind::kNotPositiveDefinite), 4);
  EXPECT_EQ(exit_code_for(ErrorKind::kResourceExhausted), 5);
  EXPECT_EQ(exit_code_for(ErrorKind::kCancelled), 6);
  EXPECT_EQ(exit_code_for(ErrorKind::kInjectedFault), 7);
}

TEST(ErrorTaxonomy, NotSpdContextPayload) {
  ErrorContext ctx;
  ctx.column = 42;
  ctx.supernode = 7;
  ctx.block_i = 3;
  ctx.block_j = 2;
  ctx.pivot = -1.5e-3;
  ctx.has_pivot = true;
  try {
    throw_not_spd("pivot failed", ctx);
    FAIL() << "throw_not_spd returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNotPositiveDefinite);
    EXPECT_EQ(e.context().column, 42);
    EXPECT_EQ(e.context().supernode, 7);
    EXPECT_EQ(e.context().block_i, 3);
    EXPECT_EQ(e.context().block_j, 2);
    EXPECT_TRUE(e.context().has_pivot);
    EXPECT_NE(std::string(e.what()).find("column 42"), std::string::npos);
  }
}

TEST(ErrorTaxonomy, MalformedContextCarriesLine) {
  try {
    throw_malformed("bad entry", 17);
    FAIL() << "throw_malformed returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput);
    EXPECT_EQ(e.context().line, 17);
    EXPECT_NE(std::string(e.what()).find("line 17"), std::string::npos);
  }
}

// --- FailureSlot -----------------------------------------------------------

TEST(FailureSlot, FirstRecordWinsLaterAreCounted) {
  FailureSlot slot;
  EXPECT_FALSE(slot.failed());
  EXPECT_EQ(slot.first(), nullptr);
  EXPECT_TRUE(slot.record(std::make_exception_ptr(Error("first")), 7,
                          FailureSlot::Phase::kCompletion));
  EXPECT_FALSE(slot.record(std::make_exception_ptr(Error("second")), 9,
                           FailureSlot::Phase::kDrain));
  EXPECT_TRUE(slot.failed());
  EXPECT_EQ(slot.later_failures(), 1);
  EXPECT_EQ(slot.task(), 7);
  EXPECT_EQ(slot.phase(), FailureSlot::Phase::kCompletion);
  try {
    std::rethrow_exception(slot.first());
    FAIL() << "no exception stored";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(FailureSlot, ConcurrentRecordsExactlyOneWinner) {
  const int kThreads = 8;
  for (int rep = 0; rep < 20; ++rep) {
    FailureSlot slot;
    spc::atomic<int> winners{0};
    std::vector<std::thread> ts;
    ts.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&slot, &winners, t] {
        if (slot.record(std::make_exception_ptr(Error("w")), t,
                        FailureSlot::Phase::kDrain)) {
          winners.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& t : ts) t.join();
    EXPECT_EQ(winners.load(), 1);
    EXPECT_EQ(slot.later_failures(), kThreads - 1);
    EXPECT_NE(slot.first(), nullptr);
  }
}

// --- MatrixMarket malformed-input corpus -----------------------------------

ErrorContext expect_mm_malformed(const std::string& text) {
  std::istringstream in(text);
  try {
    read_matrix_market(in);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << e.what();
    return e.context();
  }
  ADD_FAILURE() << "reader accepted malformed input:\n" << text;
  return {};
}

TEST(MatrixMarketRobust, RejectsMissingBanner) {
  const ErrorContext ctx = expect_mm_malformed("3 3 3\n1 1 1.0\n");
  EXPECT_EQ(ctx.line, 1);
}

TEST(MatrixMarketRobust, RejectsUnsupportedHeader) {
  EXPECT_EQ(expect_mm_malformed("%%MatrixMarket matrix array real general\n")
                .line,
            1);
  EXPECT_EQ(expect_mm_malformed(
                "%%MatrixMarket matrix coordinate real general\n2 2 1\n")
                .line,
            1);
}

TEST(MatrixMarketRobust, RejectsBadSizeLine) {
  const std::string banner = "%%MatrixMarket matrix coordinate real symmetric\n";
  EXPECT_EQ(expect_mm_malformed(banner + "2 x 1\n").line, 2);
  EXPECT_EQ(expect_mm_malformed(banner + "2 3 1\n").line, 2);   // not square
  EXPECT_EQ(expect_mm_malformed(banner + "2 2 -1\n").line, 2);  // negative nnz
  EXPECT_EQ(expect_mm_malformed(banner + "9999999999 9999999999 1\n").line,
            2);  // overflows idx
  EXPECT_GE(expect_mm_malformed(banner).line, 1);  // missing size line
}

TEST(MatrixMarketRobust, RejectsTruncatedEntryList) {
  const ErrorContext ctx = expect_mm_malformed(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "3 3 4\n"
      "1 1 4.0\n"
      "2 1 -1.0\n"
      "2 2 4.0\n");
  EXPECT_GE(ctx.line, 5);
}

TEST(MatrixMarketRobust, RejectsBadEntries) {
  const std::string head =
      "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 4.0\n";
  EXPECT_EQ(expect_mm_malformed(head + "2 x 1.0\n").line, 4);    // unparseable
  EXPECT_EQ(expect_mm_malformed(head + "99 1 1.0\n").line, 4);   // out of range
  EXPECT_EQ(expect_mm_malformed(head + "0 1 1.0\n").line, 4);    // 1-based
  EXPECT_EQ(expect_mm_malformed(head + "2 1 1.0 junk\n").line, 4);
  EXPECT_EQ(expect_mm_malformed(head + "2 1 nan\n").line, 4);    // non-finite
}

TEST(MatrixMarketRobust, SpdizeOptOutKeepsRawValues) {
  const std::string text =
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 3\n"
      "1 1 -1.0\n"
      "2 1 0.5\n"
      "2 2 2.0\n";
  {
    std::istringstream in(text);
    bool boosted = true;
    const SymSparse m = read_matrix_market(in, &boosted, /*spdize=*/false);
    EXPECT_FALSE(boosted);
    // Diagonal entries are the first entry of each column, stored verbatim.
    EXPECT_DOUBLE_EQ(m.values()[static_cast<std::size_t>(m.col_ptr()[0])], -1.0);
    EXPECT_DOUBLE_EQ(m.values()[static_cast<std::size_t>(m.col_ptr()[1])], 2.0);
  }
  {
    std::istringstream in(text);
    bool boosted = false;
    const SymSparse m = read_matrix_market(in, &boosted);  // default: repair
    EXPECT_TRUE(boosted);
    m.validate();  // boosted diagonal is positive and dominant
  }
}

// --- Harwell-Boeing malformed-input corpus ---------------------------------

// Same 4x4 RSA fixture as test_io_hb.cpp; mutated below to hit each check.
std::string rsa_fixture() {
  std::string s;
  s += "Test symmetric matrix                                                   TEST    \n";
  s += "             5             1             1             3             0\n";
  s += "RSA                      4             4             7             0\n";
  s += "(8I6)           (8I6)           (4E16.8)            \n";
  s += "     1     4     6     7     8\n";
  s += "     1     2     4     2     3     3     4\n";
  s += "  1.00000000E+01  1.00000000E+00  2.00000000E+00  1.10000000E+01\n";
  s += "  3.00000000E+00  1.20000000E+01  1.30000000E+01\n";
  return s;
}

void expect_hb_malformed(const std::string& text) {
  std::istringstream in(text);
  try {
    read_harwell_boeing(in);
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << e.what();
    return;
  }
  ADD_FAILURE() << "HB reader accepted malformed input";
}

TEST(HarwellBoeingRobust, RejectsCorruptedVariants) {
  // Truncated value section.
  std::string s = rsa_fixture();
  expect_hb_malformed(s.substr(0, s.rfind("  3.00000000E+00")));
  // Non-monotone column pointers.
  s = rsa_fixture();
  s.replace(s.find("     1     4     6     7     8"), 30,
            "     1     6     4     7     8");
  expect_hb_malformed(s);
  // Bad Fortran format spec.
  s = rsa_fixture();
  s.replace(s.find("(8I6)"), 5, "(XYZ)");
  expect_hb_malformed(s);
  // Row index out of range.
  s = rsa_fixture();
  s.replace(s.find("     1     2     4     2     3     3     4"), 42,
            "     1     2     9     2     3     3     4");
  expect_hb_malformed(s);
  // Unparseable value field.
  s = rsa_fixture();
  s.replace(s.find("  1.00000000E+01"), 16, "  1.00000000Q+01");
  expect_hb_malformed(s);
}

TEST(HarwellBoeingRobust, SpdizeOptOutKeepsRawValues) {
  std::string s = rsa_fixture();
  s.replace(s.find("  1.00000000E+01"), 16, " -1.00000000E+01");
  {
    std::istringstream in(s);
    bool boosted = false;
    const SymSparse m = read_harwell_boeing(in, &boosted, /*spdize=*/false);
    EXPECT_FALSE(boosted);
    EXPECT_DOUBLE_EQ(m.values()[static_cast<std::size_t>(m.col_ptr()[0])],
                     -10.0);
  }
  {
    std::istringstream in(s);
    bool boosted = false;
    const SymSparse m = read_harwell_boeing(in, &boosted);
    EXPECT_TRUE(boosted);
    m.validate();
  }
}

// --- Generator SPD opt-out -------------------------------------------------

TEST(Generators, SpdizeOptOutProducesIndefiniteMatrix) {
  const SymSparse mesh = make_fem_mesh(
      {.nodes = 40, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 11,
       .spdize = false});
  double min_diag = 1.0;
  const auto& ptr = mesh.col_ptr();
  for (idx c = 0; c < mesh.num_rows(); ++c) {
    min_diag = std::min(min_diag,
                        mesh.values()[static_cast<std::size_t>(ptr[c])]);
  }
  EXPECT_LT(min_diag, 0.0);  // genuinely indefinite

  const SymSparse lp = make_lp_normal_equations(
      {.n = 200, .mean_overlap = 10, .hubs = 2, .hub_span = 0.02, .seed = 3,
       .spdize = false});
  double lp_min_diag = 1.0;
  for (idx c = 0; c < lp.num_rows(); ++c) {
    lp_min_diag = std::min(
        lp_min_diag, lp.values()[static_cast<std::size_t>(lp.col_ptr()[c])]);
  }
  EXPECT_LT(lp_min_diag, 0.0);

  // Defaults stay SPD (the pre-existing contract).
  make_fem_mesh({.nodes = 40, .dof = 2, .dim = 3, .avg_node_degree = 8.0,
                 .seed = 11}).validate();
}

// --- Pivot-policy parity across engines ------------------------------------

// Factors with fn, expecting a strict NotPositiveDefinite breakdown; returns
// the failing global (permuted) column from the error context.
template <typename Fn>
idx breakdown_column(Fn&& fn) {
  try {
    fn();
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kNotPositiveDefinite) << e.what();
    EXPECT_GE(e.context().column, 0);
    return e.context().column;
  }
  ADD_FAILURE() << "indefinite matrix factored without error";
  return -2;
}

TEST(PivotParity, StrictBreakdownColumnAgreesAcrossEngines) {
  const SymSparse a = make_fem_mesh(
      {.nodes = 60, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 13,
       .spdize = false});
  const SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();

  const idx col = breakdown_column(
      [&] { block_factorize(ap, chol.structure(), chol.task_graph()); });
  EXPECT_EQ(breakdown_column([&] {
              block_factorize<float>(ap, chol.structure(), chol.task_graph());
            }),
            col);
  for (int threads : {1, 2, 4, 8}) {
    ParallelFactorOptions popt;
    popt.num_threads = threads;
    EXPECT_EQ(breakdown_column([&] {
                block_factorize_parallel(ap, chol.structure(),
                                         chol.task_graph(), popt);
              }),
              col)
        << "threads=" << threads;
    EXPECT_EQ(breakdown_column([&] {
                block_factorize_parallel<float>(ap, chol.structure(),
                                                chol.task_graph(), popt);
              }),
              col)
        << "threads=" << threads << " fp32";
  }
}

TEST(PivotParity, PerturbLocationsAgreeAcrossEngines) {
  const SymSparse a = make_fem_mesh(
      {.nodes = 60, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 13,
       .spdize = false});
  const SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();
  FactorizeOptions fopt;
  fopt.pivot_policy = PivotPolicy::kPerturb;

  FactorizeInfo ref;
  block_factorize(ap, chol.structure(), chol.task_graph(), fopt, &ref);
  EXPECT_GE(ref.perturbed_pivots, 1);
  EXPECT_EQ(ref.perturbed_pivots,
            static_cast<i64>(ref.perturbed_cols.size()));

  FactorizeInfo fp32;
  block_factorize<float>(ap, chol.structure(), chol.task_graph(), fopt, &fp32);
  EXPECT_EQ(fp32.perturbed_cols, ref.perturbed_cols);

  for (int threads : {1, 2, 4, 8}) {
    ParallelFactorOptions popt;
    popt.num_threads = threads;
    popt.pivot_policy = PivotPolicy::kPerturb;
    FactorizeInfo par;
    popt.info = &par;
    block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt);
    EXPECT_EQ(par.perturbed_cols, ref.perturbed_cols)
        << "threads=" << threads;
    FactorizeInfo par32;
    popt.info = &par32;
    block_factorize_parallel<float>(ap, chol.structure(), chol.task_graph(),
                                    popt);
    EXPECT_TRUE(par32.fp32);
    EXPECT_EQ(par32.perturbed_cols, ref.perturbed_cols)
        << "threads=" << threads << " fp32";
  }
}

// --- Perturbed-solve recovery through the facade ---------------------------

double inf_norm(const SymSparse& a) {
  std::vector<double> row_sum(static_cast<std::size_t>(a.num_rows()), 0.0);
  const auto& ptr = a.col_ptr();
  for (idx c = 0; c < a.num_rows(); ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)];
         k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = a.row_idx()[static_cast<std::size_t>(k)];
      const double v = std::abs(a.values()[static_cast<std::size_t>(k)]);
      row_sum[static_cast<std::size_t>(r)] += v;
      if (r != c) row_sum[static_cast<std::size_t>(c)] += v;
    }
  }
  double m = 0.0;
  for (double v : row_sum) m = std::max(m, v);
  return m;
}

// NaN-propagating: std::max(m, NaN) keeps m, so a NaN entry is returned
// as is instead of being dropped.
double inf_norm(const std::vector<double>& x) {
  double m = 0.0;
  for (double v : x) {
    if (std::isnan(v)) return v;
    m = std::max(m, std::abs(v));
  }
  return m;
}

// Normwise backward error ||Ax - b|| / (||A|| ||x|| + ||b||), inf-norms.
double backward_error(const SymSparse& a, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> ax = a.multiply(x);
  std::vector<double> r(b.size());
  for (std::size_t i = 0; i < b.size(); ++i) r[i] = ax[i] - b[i];
  return inf_norm(r) / (inf_norm(a) * inf_norm(x) + inf_norm(b));
}

// Replaces one diagonal entry of an SPD mesh matrix with a tiny value, so a
// strict factorization breaks down and a perturbing one must boost that
// pivot. With `coupled` the entry keeps its off-diagonals and the matrix is
// indefinite (a 2x2 principal minor is negative); without, the variable is
// decoupled and the matrix stays SPD but near-singular.
SymSparse tiny_pivot_matrix(bool coupled, idx* tiny_col) {
  const SymSparse a0 = make_fem_mesh(
      {.nodes = 50, .dof = 2, .dim = 3, .avg_node_degree = 8.0, .seed = 5});
  const idx n = a0.num_rows();
  *tiny_col = n / 2;
  std::vector<double> diag(static_cast<std::size_t>(n));
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
  const auto& ptr = a0.col_ptr();
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)];
         k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = a0.row_idx()[static_cast<std::size_t>(k)];
      const double v = a0.values()[static_cast<std::size_t>(k)];
      if (r == c) {
        diag[static_cast<std::size_t>(c)] = v;
      } else if (coupled || (r != *tiny_col && c != *tiny_col)) {
        pos.emplace_back(r, c);
        val.push_back(v);
      }
    }
  }
  diag[static_cast<std::size_t>(*tiny_col)] = 1e-30;
  return SymSparse::from_entries(n, diag, pos, val);
}

TEST(PerturbRecovery, TinyPivotSolveReachesBackwardStability) {
  Rng rng(99);
  for (const bool coupled : {false, true}) {
    SCOPED_TRACE(coupled ? "indefinite" : "SPD");
    idx tiny_col = kNone;
    const SymSparse a = tiny_pivot_matrix(coupled, &tiny_col);
    std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
    for (double& v : b) v = rng.uniform(-1.0, 1.0);

    // Strict policy: the indefinite matrix breaks down; the SPD one's
    // pivot is tiny but positive, so it factors.
    const auto strict = [&] {
      SparseCholesky s = SparseCholesky::analyze(a);
      s.factorize();
    };
    if (coupled) {
      EXPECT_THROW(strict(), Error);
    } else {
      EXPECT_NO_THROW(strict());
    }

    // Perturb policy: the pivot is boosted and the count is reported, on
    // the serial and on the parallel facade path alike. Info is reset per
    // run, not accumulated.
    SolverOptions opt;
    opt.pivot_policy = PivotPolicy::kPerturb;
    SparseCholesky chol = SparseCholesky::analyze(a, opt);
    chol.factorize();
    const i64 first_run = chol.factorize_info().perturbed_pivots;
    EXPECT_GE(first_run, 1);
    chol.factorize();
    EXPECT_EQ(chol.factorize_info().perturbed_pivots, first_run);
    SparseCholesky pchol = SparseCholesky::analyze(a, opt);
    pchol.factorize_parallel(4);
    EXPECT_GE(pchol.factorize_info().perturbed_pivots, 1);

    for (const SparseCholesky* c : {&chol, &pchol}) {
      if (!coupled) {
        // SPD: the refined solve is backward stable. The normwise backward
        // error stays at the delta level even though the forward error of
        // this near-singular system is unbounded.
        EXPECT_LE(backward_error(a, c->solve(b), b), 1e-10);
        continue;
      }
      // Indefinite: the boosts cascade until the factor overflows, and no
      // refinement of an SPD factor can solve an indefinite system. The
      // solve reports it with a typed error instead of returning NaN.
      try {
        const std::vector<double> x = c->solve(b);
        ADD_FAILURE() << "indefinite solve returned, backward error "
                      << backward_error(a, x, b);
      } catch (const Error& e) {
        EXPECT_EQ(e.kind(), ErrorKind::kNotPositiveDefinite) << e.what();
        EXPECT_STREQ(e.context().phase, "solve");
      }
    }
  }
}

// --- Cooperative cancellation ----------------------------------------------

TEST(Cancellation, PreSetTokenCancelsAndWorkspaceStaysReusable) {
  const SymSparse a = make_fem_mesh({80, 3, 3, 9.0, 77});
  const SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();
  ParallelWorkspace ws(chol.structure(), chol.task_graph());

  for (int threads : {1, 2, 4}) {
    spc::atomic<bool> cancel{true};
    ParallelFactorOptions popt;
    popt.num_threads = threads;
    popt.cancel = &cancel;
    try {
      block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt,
                               &ws);
      FAIL() << "cancelled run returned a factor (threads=" << threads << ")";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
    }
    // The same workspace must produce a correct factor on the next call.
    ParallelFactorOptions clean;
    clean.num_threads = threads;
    const BlockFactor f = block_factorize_parallel(
        ap, chol.structure(), chol.task_graph(), clean, &ws);
    EXPECT_LT(factor_residual_probe(ap, f), 1e-10);
  }
}

TEST(Cancellation, MidRunTokenEitherCompletesOrCancelsCleanly) {
  // Set the token from another thread mid-flight: the run must either finish
  // (token seen too late) or throw kCancelled — never crash or hang, and the
  // workspace must stay reusable either way.
  const SymSparse a = make_fem_mesh({100, 3, 3, 9.0, 31});
  const SparseCholesky chol = SparseCholesky::analyze(a);
  const SymSparse& ap = chol.permuted_matrix();
  ParallelWorkspace ws(chol.structure(), chol.task_graph());
  for (int rep = 0; rep < 3; ++rep) {
    spc::atomic<bool> cancel{false};
    std::thread canceller([&cancel] { cancel.store(true); });
    ParallelFactorOptions popt;
    popt.num_threads = 4;
    popt.cancel = &cancel;
    try {
      block_factorize_parallel(ap, chol.structure(), chol.task_graph(), popt,
                               &ws);
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kCancelled) << e.what();
    }
    canceller.join();
    ParallelFactorOptions clean;
    clean.num_threads = 4;
    const BlockFactor f = block_factorize_parallel(
        ap, chol.structure(), chol.task_graph(), clean, &ws);
    EXPECT_LT(factor_residual_probe(ap, f), 1e-10);
  }
}

}  // namespace
}  // namespace spc
