// Distributed executor tests: numeric agreement with the shared-memory
// factorization under strict per-processor data isolation, and message/byte
// agreement with the Paragon simulator (the protocol and the timing model
// must describe the same communication).
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/distributed_factor.hpp"
#include "factor/residual.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

class DistributedSweep
    : public ::testing::TestWithParam<std::tuple<int, idx, bool>> {};

TEST_P(DistributedSweep, CorrectFactorAndSimAgreement) {
  const auto [family, procs, domains] = GetParam();
  SymSparse a;
  SolverOptions opt;
  opt.block_size = 10;
  switch (family) {
    case 0: a = make_grid2d(14, 12); break;
    case 1:
      a = make_dense_spd(60);
      opt.ordering = SolverOptions::Ordering::kNatural;
      break;
    case 2: a = make_fem_mesh({60, 3, 2, 9.0, 123}); break;
  }
  SparseCholesky chol = SparseCholesky::analyze(a, opt);
  const ParallelPlan plan = chol.plan_parallel(
      procs, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic, domains);

  const DistributedFactorResult dist = distributed_fanout_factorize(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), plan.map,
      plan.domains);
  // Numeric correctness under data isolation.
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), dist.factor), 1e-10);

  // The executor and the simulator must agree on the communication pattern.
  const SimResult sim = chol.simulate(plan);
  EXPECT_EQ(dist.messages, sim.total_msgs());
  EXPECT_EQ(dist.bytes, sim.total_bytes());

  // Agreement with the sequential factor up to summation order.
  const BlockFactor seq = block_factorize(chol.permuted_matrix(), chol.structure(),
                                          chol.task_graph());
  double max_diff = 0.0;
  for (std::size_t j = 0; j < seq.diag.size(); ++j) {
    for (idx c = 0; c < seq.diag[j].cols(); ++c) {
      for (idx r = c; r < seq.diag[j].rows(); ++r) {
        max_diff = std::max(
            max_diff, std::abs(seq.diag[j](r, c) - dist.factor.diag[j](r, c)));
      }
    }
  }
  EXPECT_LT(max_diff, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedSweep,
    ::testing::Combine(::testing::Range(0, 3), ::testing::Values<idx>(1, 4, 9, 63),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, idx, bool>>& info) {
      const int f = std::get<0>(info.param);
      const char* name = f == 0 ? "grid" : (f == 1 ? "dense" : "fem");
      return std::string(name) + "_P" + std::to_string(std::get<1>(info.param)) +
             (std::get<2>(info.param) ? "_dom" : "_nodom");
    });

TEST(DistributedFactor, SingleProcessorSendsNothing) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(10, 10));
  const ParallelPlan plan = chol.plan_parallel(
      1, RemapHeuristic::kCyclic, RemapHeuristic::kCyclic);
  const DistributedFactorResult r = distributed_fanout_factorize(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), plan.map,
      plan.domains);
  EXPECT_EQ(r.messages, 0);
  EXPECT_EQ(r.bytes, 0);
  EXPECT_EQ(r.peak_received_entries, 0);
}

TEST(DistributedFactor, DomainsProduceAggregates) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(24, 24));
  const ParallelPlan with = chol.plan_parallel(
      8, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic, true);
  const ParallelPlan without = chol.plan_parallel(
      8, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic, false);
  const DistributedFactorResult rw = distributed_fanout_factorize(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), with.map,
      with.domains);
  const DistributedFactorResult ro = distributed_fanout_factorize(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), without.map,
      without.domains);
  EXPECT_GT(rw.aggregates, 0);
  EXPECT_EQ(ro.aggregates, 0);
  EXPECT_LT(rw.messages, ro.messages);
  // Both still correct.
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), rw.factor), 1e-10);
  EXPECT_LT(factor_residual_probe(chol.permuted_matrix(), ro.factor), 1e-10);
}

TEST(DistributedFactor, ReplicationBounded) {
  // The peak replicated storage on any processor must stay below the whole
  // factor (copies are freed after their last use).
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(20, 20));
  const ParallelPlan plan = chol.plan_parallel(
      4, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
  const DistributedFactorResult r = distributed_fanout_factorize(
      chol.permuted_matrix(), chol.structure(), chol.task_graph(), plan.map,
      plan.domains);
  EXPECT_GT(r.peak_received_entries, 0);
  EXPECT_LT(r.peak_received_entries, chol.structure().stored_entries());
}

}  // namespace
}  // namespace spc
