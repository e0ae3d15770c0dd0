// Tests for the structural invariant checkers (src/check/).
//
// Negative tests seed one deliberate corruption each and assert the
// responsible validator reports exactly the expected rule; positive tests
// run the full pipeline on a CUBE mesh and an LP normal-equations matrix
// and require zero findings.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "check/check.hpp"
#include "cholesky/sparse_cholesky.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "mapping/grid.hpp"
#include "support/error.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

// A report that flags rule `rule` as an error and nothing else fatal from
// an unrelated layer: the corruption must be pinpointed, not produce a
// cascade that happens to contain it.
void expect_only(const check::Report& r, const char* rule) {
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has(rule)) << "expected rule " << rule << "; report:\n"
                           << [&] {
                                std::ostringstream os;
                                r.print(os);
                                return os.str();
                              }();
  for (const check::Finding& f : r.findings()) {
    if (f.severity == check::Severity::kError) {
      EXPECT_EQ(f.rule, rule) << f.detail;
    }
  }
}

SparseCholesky analyzed(const SymSparse& a, idx block_size = 16) {
  SolverOptions opt;
  opt.block_size = block_size;
  return SparseCholesky::analyze(a, opt);
}

// --- Positive: the real pipeline must come back clean ----------------------

TEST(CheckClean, CubePipelineHasNoFindings) {
  const SparseCholesky chol = analyzed(make_grid3d(9, 9, 9));
  const check::Report r = chol.check_analysis();
  std::ostringstream os;
  r.print(os);
  EXPECT_TRUE(r.ok()) << os.str();
  EXPECT_EQ(r.errors(), 0);

  const ParallelPlan plan = chol.plan_parallel(
      16, RemapHeuristic::kIncreasingDepth, RemapHeuristic::kCyclic);
  const check::Report rp = chol.check_plan(plan);
  std::ostringstream osp;
  rp.print(osp);
  EXPECT_TRUE(rp.ok()) << osp.str();
}

TEST(CheckClean, LpPipelineHasNoFindings) {
  LpGenOptions opt;
  opt.n = 700;
  const SparseCholesky chol = analyzed(make_lp_normal_equations(opt), 24);
  const check::Report r = chol.check_analysis();
  std::ostringstream os;
  r.print(os);
  EXPECT_TRUE(r.ok()) << os.str();

  // Relatively prime 2x3 grid, domains off: pure 2-D map.
  const ParallelPlan plan = chol.plan_parallel(
      6, RemapHeuristic::kDecreasingWork, RemapHeuristic::kCyclic, false);
  const check::Report rp = chol.check_plan(plan);
  std::ostringstream osp;
  rp.print(osp);
  EXPECT_TRUE(rp.ok()) << osp.str();
}

// --- Seeded corruption: CSR canonical form ---------------------------------

TEST(CheckMatrix, DetectsBadRowOrder) {
  // Column 0 lists rows {0, 2, 1}: out of order below the diagonal.
  const std::vector<i64> ptr = {0, 3, 4, 5};
  const std::vector<idx> row = {0, 2, 1, 1, 2};
  const std::vector<double> val = {4.0, 1.0, 1.0, 4.0, 4.0};
  expect_only(check::check_matrix_csr(3, ptr, row, val), "matrix.row-order");
}

TEST(CheckMatrix, DetectsMissingDiagonal) {
  const std::vector<i64> ptr = {0, 1, 1};
  const std::vector<idx> row = {0};
  const std::vector<double> val = {4.0};
  expect_only(check::check_matrix_csr(2, ptr, row, val), "matrix.diag-first");
}

TEST(CheckMatrix, DetectsNegativeDiagonal) {
  const std::vector<i64> ptr = {0, 1, 2};
  const std::vector<idx> row = {0, 1};
  const std::vector<double> val = {4.0, -1.0};
  expect_only(check::check_matrix_csr(2, ptr, row, val),
              "matrix.diag-positive");
}

TEST(CheckGraph, DetectsAsymmetry) {
  // Arc 0->1 with no reverse arc.
  const std::vector<i64> ptr = {0, 1, 1};
  const std::vector<idx> adj = {1};
  expect_only(check::check_graph_csr(2, ptr, adj), "graph.symmetry");
}

// --- Seeded corruption: elimination tree -----------------------------------

TEST(CheckEtree, DetectsCycle) {
  // 0 -> 1 -> 2 -> 0 is a cycle; parent[2] = 0 <= 2 breaks the topological
  // order every valid etree satisfies.
  const std::vector<idx> parent = {1, 2, 0, kNone};
  expect_only(check::check_parent_array(4, parent), "etree.parent-order");
}

TEST(CheckEtree, DetectsWrongParent) {
  const SymSparse a = make_grid2d(6, 6);
  std::vector<idx> parent = elimination_tree(a);
  // Reroute one non-root node to a different (still later) parent.
  for (std::size_t j = 0; j < parent.size(); ++j) {
    if (parent[j] != kNone && parent[j] + 1 < static_cast<idx>(parent.size())) {
      parent[j] = parent[j] + 1;
      break;
    }
  }
  expect_only(check::check_etree(a, parent), "etree.mismatch");
}

TEST(CheckPostorder, DetectsParentBeforeChild) {
  // parent[0] = 2: fine. Postorder {2, 1, 0} visits vertex 2 (the parent)
  // before its child 0.
  const std::vector<idx> parent = {2, 2, kNone};
  const std::vector<idx> post = {2, 1, 0};
  expect_only(check::check_postorder(parent, post), "postorder.child-first");
}

TEST(CheckColcounts, DetectsMiscount) {
  const SymSparse a = make_grid2d(6, 6);
  const std::vector<idx> parent = elimination_tree(a);
  std::vector<i64> counts = factor_col_counts(a, parent);
  counts[0] += 1;
  const check::Report r = check::check_colcounts(a, parent, counts);
  EXPECT_FALSE(r.ok());
  // Depending on the column, the inflated count breaks either the nesting
  // relation or only the recomputation; both pinpoint column counts.
  EXPECT_TRUE(r.has("colcount.mismatch") || r.has("colcount.nesting"));
}

// --- Seeded corruption: supernodes -----------------------------------------

TEST(CheckSupernodes, DetectsOverlap) {
  // Supernode 0 = [0, 4), supernode 1 = [2, 6): overlapping columns 2-3.
  SupernodePartition sn;
  sn.first_col = {0, 4, 2, 6};
  sn.sn_of_col = {0, 0, 0, 0, 1, 1};
  expect_only(check::check_supernodes(sn, 6), "supernode.overlap");
}

TEST(CheckSupernodes, DetectsBadInverseMap) {
  SupernodePartition sn;
  sn.first_col = {0, 2, 4};
  sn.sn_of_col = {0, 0, 0, 1};  // column 2 claims supernode 0
  expect_only(check::check_supernodes(sn, 4), "supernode.map");
}

// --- Seeded corruption: block structure --------------------------------------
// Both solve sweeps walk the block structure in column order and need only
// what check_block_structure guarantees: every entry strictly below its
// column's diagonal and the entry ranges tiling the entry arrays.

TEST(CheckBlockStructure, AcceptsRealStructures) {
  for (const SymSparse& a :
       {make_grid2d(15, 17), make_lp_normal_equations({200})}) {
    const SparseCholesky chol = SparseCholesky::analyze(a);
    const check::Report r =
        check::check_block_structure(chol.symbolic(), chol.structure());
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.errors(), 0);
  }
}

TEST(CheckBlockStructure, FlagsEntryAboveDiagonal) {
  const SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12));
  BlockStructure bad = chol.structure();
  ASSERT_GT(bad.num_entries(), 0);
  // Point the first entry of the first non-empty column at the column
  // itself: no longer strictly below the diagonal.
  for (idx k = 0; k < bad.num_block_cols(); ++k) {
    if (bad.blkptr[static_cast<std::size_t>(k)] <
        bad.blkptr[static_cast<std::size_t>(k) + 1]) {
      bad.blkrow[static_cast<std::size_t>(
          bad.blkptr[static_cast<std::size_t>(k)])] = k;
      break;
    }
  }
  expect_only(check::check_block_structure(chol.symbolic(), bad),
              "blocks.blkrow-order");
}

TEST(CheckBlockStructure, FlagsUnconsumedEntries) {
  const SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 13));
  BlockStructure bad = chol.structure();
  // Drop the first column's entries from its blkptr range (monotonicity is
  // preserved): no sweep would ever apply them.
  idx k0 = -1;
  for (idx k = 0; k < bad.num_block_cols(); ++k) {
    if (bad.blkptr[static_cast<std::size_t>(k)] <
        bad.blkptr[static_cast<std::size_t>(k) + 1]) {
      k0 = k;
      break;
    }
  }
  ASSERT_GE(k0, 0);
  for (idx k = 0; k <= k0; ++k) {
    bad.blkptr[static_cast<std::size_t>(k)] =
        bad.blkptr[static_cast<std::size_t>(k0) + 1];
  }
  expect_only(check::check_block_structure(chol.symbolic(), bad),
              "blocks.blkptr");
}

// --- Seeded corruption: task graph and schedule ----------------------------

TEST(CheckSchedule, DetectsDoubleScheduledBlock) {
  const SparseCholesky chol = analyzed(make_grid3d(7, 7, 7));
  TaskGraph tg = chol.task_graph();
  // Undercount one destination's incoming mods: the executor protocol would
  // schedule it before its last update lands — a double-scheduled block.
  ASSERT_FALSE(tg.mods.empty());
  const block_id victim = tg.mods.back().dest;
  ASSERT_GT(tg.mods_into[static_cast<std::size_t>(victim)], 0);
  tg.mods_into[static_cast<std::size_t>(victim)] -= 1;
  const check::Report r = check::check_schedule(chol.structure(), tg);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("schedule.double-schedule"));
  // The same corruption is also caught statically by the graph validator.
  EXPECT_TRUE(check::check_task_graph(chol.structure(), tg)
                  .has("taskgraph.mods-into"));
}

TEST(CheckSchedule, DetectsStuckDag) {
  const SparseCholesky chol = analyzed(make_grid3d(7, 7, 7));
  TaskGraph tg = chol.task_graph();
  // Overcount: the victim waits for a mod that never comes, and everything
  // downstream of it starves.
  tg.mods_into[0] += 1;
  const check::Report r = check::check_schedule(chol.structure(), tg);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has("schedule.stuck"));
}

TEST(CheckTaskGraph, DetectsWrongFlops) {
  const SparseCholesky chol = analyzed(make_grid3d(7, 7, 7));
  TaskGraph tg = chol.task_graph();
  ASSERT_FALSE(tg.mods.empty());
  tg.mods.front().flops += 1;
  expect_only(check::check_task_graph(chol.structure(), tg),
              "taskgraph.flops");
}

// --- Seeded corruption: subtree-affinity partition --------------------------

TEST(CheckAffinity, CleanPartitionsAcrossWorkerCounts) {
  const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8));
  for (const int workers : {1, 2, 4, 8}) {
    const check::Report r =
        check::check_affinity(chol.structure(), chol.task_graph(), workers);
    std::ostringstream os;
    r.print(os);
    EXPECT_TRUE(r.ok()) << "workers=" << workers << "\n" << os.str();
  }
}

TEST(CheckAffinity, DetectsClosureViolation) {
  const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8));
  const BlockStructure& bs = chol.structure();
  const TaskGraph& tg = chol.task_graph();
  AffinityPartition part = subtree_affinity_partition(4, bs, tg);
  // Re-pin one below-frontier column to a different worker: the executor
  // would seed it on the wrong private stack, and its BDIV/BMOD sources
  // would cross subtree boundaries.
  bool corrupted = false;
  for (idx j = 0; j < bs.num_block_cols() && !corrupted; ++j) {
    if (bs.blkptr[static_cast<std::size_t>(j)] >=
        bs.blkptr[static_cast<std::size_t>(j) + 1]) {
      continue;
    }
    const idx p = bs.blkrow[static_cast<std::size_t>(
        bs.blkptr[static_cast<std::size_t>(j)])];
    const int oj = part.owner[static_cast<std::size_t>(j)];
    if (oj >= 0 && part.owner[static_cast<std::size_t>(p)] == oj) {
      part.owner[static_cast<std::size_t>(j)] = (oj + 1) % part.num_workers;
      corrupted = true;
    }
  }
  ASSERT_TRUE(corrupted) << "no pinned column with a same-owner parent";
  expect_only(check::check_affinity_partition(bs, tg, part),
              "sched.affinity.closure");
}

TEST(CheckAffinity, DetectsWorkModelDrift) {
  const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8));
  const BlockStructure& bs = chol.structure();
  const TaskGraph& tg = chol.task_graph();
  {
    AffinityPartition part = subtree_affinity_partition(4, bs, tg);
    part.col_work[0] += 1;
    expect_only(check::check_affinity_partition(bs, tg, part),
                "sched.affinity.col-work");
  }
  {
    AffinityPartition part = subtree_affinity_partition(4, bs, tg);
    part.worker_work[0] += 1;
    expect_only(check::check_affinity_partition(bs, tg, part),
                "sched.affinity.worker-work");
  }
}

TEST(CheckAffinity, DetectsBrokenBalanceBound) {
  const SparseCholesky chol = analyzed(make_grid3d(8, 8, 8));
  const BlockStructure& bs = chol.structure();
  const TaskGraph& tg = chol.task_graph();
  AffinityPartition part = subtree_affinity_partition(4, bs, tg);
  ASSERT_GT(part.pinned_work, 0);
  // A wildly understated max subtree makes the recorded assignment exceed
  // the LPT guarantee the executor's balance claim rests on.
  part.max_pinned_subtree = -part.total_work;
  expect_only(check::check_affinity_partition(bs, tg, part),
              "sched.affinity.balance");
}

// --- Seeded corruption: mapping and balance --------------------------------

TEST(CheckMapping, DetectsOutOfRangeMapEntry) {
  BlockMap map;
  map.grid = ProcessorGrid{2, 2};
  map.map_row = {0, 1, 5, 0};  // mapI[2] = 5 on a 2x2 grid
  map.map_col = {0, 1, 0, 1};
  expect_only(check::check_mapping(map), "mapping.row-range");
}

TEST(CheckMapping, WarnsWhenNotOnto) {
  BlockMap map;
  map.grid = ProcessorGrid{2, 2};
  map.map_row = {0, 0, 0, 0};  // processor row 1 never used
  map.map_col = {0, 1, 0, 1};
  const check::Report r = check::check_mapping(map);
  EXPECT_TRUE(r.ok());  // warning, not error
  EXPECT_TRUE(r.has("mapping.row-onto"));
  EXPECT_GT(r.warnings(), 0);
}

TEST(CheckDomains, DetectsOutOfRangeProcessor) {
  DomainDecomposition dom;
  dom.domain_proc = {0, 3, kNone};
  dom.num_domains = 2;
  expect_only(check::check_domains(dom, /*num_procs=*/2, /*num_block_cols=*/3),
              "domains.range");
}

TEST(CheckPlan, DetectsBalanceMismatch) {
  const SparseCholesky chol = analyzed(make_grid3d(7, 7, 7));
  ParallelPlan plan = chol.plan_parallel(16, RemapHeuristic::kIncreasingDepth,
                                         RemapHeuristic::kCyclic);
  plan.balance.overall += 0.05;
  expect_only(chol.check_plan(plan), "balance.mismatch");
}

// --- Report plumbing -------------------------------------------------------

TEST(CheckReport, RequireOkThrowsWithFindings) {
  check::Report r;
  r.warn("some.rule", "advisory");
  EXPECT_NO_THROW(r.require_ok("analyze"));
  r.error("other.rule", "fatal");
  EXPECT_THROW(r.require_ok("analyze"), Error);
}

}  // namespace
}  // namespace spc
