// Unit tests for the ordering algorithms: MMD, geometric and general nested
// dissection. Quality assertions compare fill against natural order.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "gen/lp_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "graph/permutation.hpp"
#include "ordering/geometric_nd.hpp"
#include "ordering/mmd.hpp"
#include "ordering/nested_dissection.hpp"
#include "support/error.hpp"
#include "symbolic/colcount.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

i64 fill_under(const SymSparse& a, const std::vector<idx>& perm) {
  const SymSparse p = a.permuted(perm);
  return factor_nnz(factor_col_counts(p, elimination_tree(p)));
}

TEST(Mmd, ReturnsPermutation) {
  const SymSparse a = make_grid2d(7, 9);
  const std::vector<idx> p = mmd_order(a.pattern());
  EXPECT_TRUE(is_permutation(p));
}

TEST(Mmd, EmptyGraph) { EXPECT_TRUE(mmd_order(Graph::from_edges(0, {})).empty()); }

TEST(Mmd, SingletonAndIsolated) {
  const Graph g = Graph::from_edges(3, {{0, 2}});
  const std::vector<idx> p = mmd_order(g);
  EXPECT_TRUE(is_permutation(p));
  // Vertex 1 is isolated (degree 0) and must be eliminated first.
  EXPECT_EQ(p[0], 1);
}

TEST(Mmd, PathGraphIsFillFree) {
  // A path has a perfect elimination ordering; MMD must find zero fill:
  // NZ(L) offdiag == #edges.
  const idx n = 50;
  std::vector<std::pair<idx, idx>> edges;
  std::vector<double> diag(n, 3.0), val(n - 1, -1.0);
  for (idx i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  const SymSparse a = SymSparse::from_entries(n, diag, edges, val);
  EXPECT_EQ(fill_under(a, mmd_order(a.pattern())), n - 1);
}

TEST(Mmd, StarGraphIsFillFree) {
  const idx n = 30;
  std::vector<std::pair<idx, idx>> edges;
  std::vector<double> diag(n, static_cast<double>(n)), val(n - 1, -1.0);
  for (idx i = 1; i < n; ++i) edges.emplace_back(0, i);
  const SymSparse a = SymSparse::from_entries(n, diag, edges, val);
  // Perfect elimination: leaves first, hub last.
  const std::vector<idx> p = mmd_order(a.pattern());
  EXPECT_EQ(p.back(), 0);
  EXPECT_EQ(fill_under(a, p), n - 1);
}

TEST(Mmd, CliquePlusPendantIsFillFree) {
  // K5 with a pendant vertex: pendant (degree 1) first, clique order free.
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i < 5; ++i) {
    for (idx j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  }
  edges.emplace_back(4, 5);
  std::vector<double> diag(6, 10.0), val(edges.size(), -1.0);
  const SymSparse a = SymSparse::from_entries(6, diag, edges, val);
  EXPECT_EQ(fill_under(a, mmd_order(a.pattern())), static_cast<i64>(edges.size()));
}

TEST(Mmd, BeatsNaturalOrderOnGrid) {
  const SymSparse a = make_grid2d(20, 20);
  const i64 fill_mmd = fill_under(a, mmd_order(a.pattern()));
  const i64 fill_nat = fill_under(a, identity_permutation(a.num_rows()));
  EXPECT_LT(fill_mmd, fill_nat / 2);
}

TEST(Mmd, DeterministicAcrossRuns) {
  const SymSparse a = make_grid3d(5, 5, 5);
  EXPECT_EQ(mmd_order(a.pattern()), mmd_order(a.pattern()));
}

TEST(Mmd, MassEliminationOnCompleteBipartite) {
  // K_{2,6}: eliminating one side's vertex makes the other side's vertices
  // indistinguishable/mass-eliminable; just verify validity + zero-ish fill.
  std::vector<std::pair<idx, idx>> edges;
  for (idx a = 0; a < 2; ++a) {
    for (idx b = 2; b < 8; ++b) edges.emplace_back(a, b);
  }
  std::vector<double> diag(8, 10.0), val(edges.size(), -1.0);
  const SymSparse m = SymSparse::from_entries(8, diag, edges, val);
  const std::vector<idx> p = mmd_order(m.pattern());
  EXPECT_TRUE(is_permutation(p));
  // Optimal fill for K_{2,6} is small; MMD should be near it.
  EXPECT_LE(fill_under(m, p), 14);
}

// --- Minimum-degree properties and the fill guard ---------------------------

// The medium 10FLEET stand-in's LP parameters at n rows: interval couplings
// plus hub rows (~n/10.7 hubs, each touching 10% of the rows), the case the
// lazy degree update exists for.
SymSparse hub_lp(idx n, std::uint64_t seed) {
  LpGenOptions o;
  o.n = n;
  o.mean_overlap = 60.0;
  o.hubs = std::max<idx>(1, n * 280 / 3000);
  o.hub_span = 0.10;
  o.seed = seed;
  return make_lp_normal_equations(o);
}

TEST(MinDegreeProperty, PermutationAndDeterministicOnEveryFamily) {
  std::vector<std::pair<std::string, Graph>> families;
  for (const auto& [n, seed] : std::vector<std::pair<idx, std::uint64_t>>{
           {200, 1}, {700, 2}, {1500, 3}, {3000, 4}}) {
    families.emplace_back("lp" + std::to_string(n), hub_lp(n, seed).pattern());
  }
  std::vector<std::pair<idx, idx>> star, chain, complete, parts;
  for (idx i = 1; i < 40; ++i) star.emplace_back(0, i);
  for (idx i = 0; i + 1 < 60; ++i) chain.emplace_back(i, i + 1);
  for (idx i = 0; i < 25; ++i) {
    for (idx j = i + 1; j < 25; ++j) complete.emplace_back(i, j);
  }
  // A 6x6 grid, a triangle, a 5-path and two isolated vertices.
  for (idx y = 0; y < 6; ++y) {
    for (idx x = 0; x < 6; ++x) {
      if (x + 1 < 6) parts.emplace_back(6 * y + x, 6 * y + x + 1);
      if (y + 1 < 6) parts.emplace_back(6 * y + x, 6 * (y + 1) + x);
    }
  }
  parts.insert(parts.end(), {{36, 37}, {37, 38}, {36, 38}});
  for (idx i = 39; i < 43; ++i) parts.emplace_back(i, i + 1);
  families.emplace_back("star", Graph::from_edges(40, star));
  families.emplace_back("chain", Graph::from_edges(60, chain));
  families.emplace_back("complete", Graph::from_edges(25, complete));
  families.emplace_back("components", Graph::from_edges(46, parts));
  families.emplace_back("single", Graph::from_edges(1, {}));

  for (const auto& [name, g] : families) {
    const std::size_t n = static_cast<std::size_t>(g.num_vertices());
    for (idx delta : {0, 1, 2, 4}) {
      MmdOptions opt;
      opt.delta = delta;
      const std::vector<idx> p = mmd_order(g, opt);
      EXPECT_EQ(p.size(), n) << name << " delta " << delta;
      EXPECT_TRUE(is_permutation(p)) << name << " delta " << delta;
      EXPECT_EQ(p, mmd_order(g, opt)) << name << " delta " << delta;
    }
    const std::vector<idx> p = amd_order(g);
    EXPECT_EQ(p.size(), n) << name << " amd";
    EXPECT_TRUE(is_permutation(p)) << name << " amd";
    EXPECT_EQ(p, amd_order(g)) << name << " amd";
  }
}

// Fill guard: pinned NZ(L) under mmd_order. Tie order may legitimately move,
// but a change that costs more than 2% fill on these instances fails here.
void expect_fill_within_pin(const std::string& name, const SymSparse& a, i64 pin) {
  const std::vector<idx> p = mmd_order(a.pattern());
  ASSERT_TRUE(is_permutation(p)) << name;
  EXPECT_LE(fill_under(a, p), pin + pin / 50) << name << " pin " << pin;
}

TEST(MmdFillGuard, HubRowLpInstances) {
  // LP3000 with the parameters of the lp_cold workload, seeds 1-3.
  const std::pair<std::uint64_t, i64> pins[] = {
      {1, 715681}, {2, 719706}, {3, 728294}};
  for (const auto& [seed, pin] : pins) {
    expect_fill_within_pin("LP3000 seed " + std::to_string(seed),
                           hub_lp(3000, seed), pin);
  }
}

TEST(MmdFillGuard, MediumSuiteMatrices) {
  const std::pair<const char*, i64> pins[] = {{"BCSSTK31", 1333932},
                                              {"GRID300", 550750},
                                              {"CUBE40", 816254},
                                              {"COPTER2", 3776070}};
  for (const auto& [name, pin] : pins) {
    expect_fill_within_pin(name, make_bench_matrix(name, SuiteScale::kMedium).matrix,
                           pin);
  }
}

TEST(GeometricNd2d, IsPermutation) {
  const std::vector<idx> p = geometric_nd_2d(15, 11);
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeometricNd2d, SeparatorLast) {
  // For an odd square grid the final vertex ordered must lie on the central
  // cross (the top-level separator).
  const idx k = 9;
  const std::vector<idx> p = geometric_nd_2d(k, k);
  const idx last = p.back();
  const idx x = last % k, y = last / k;
  EXPECT_TRUE(x == k / 2 || y == k / 2);
}

TEST(GeometricNd2d, NearOptimalFillScaling) {
  // ND fill for a k x k grid is O(n log n); natural order is O(n^1.5).
  const idx k = 32;
  const SymSparse a = make_grid2d(k, k);
  const i64 fill_nd = fill_under(a, geometric_nd_2d(k, k));
  const i64 fill_nat = fill_under(a, identity_permutation(a.num_rows()));
  EXPECT_LT(fill_nd, fill_nat / 2);
  EXPECT_LT(fill_nd, 12 * static_cast<i64>(k) * k * 5);  // ~ c n log n sanity
}

TEST(GeometricNd3d, IsPermutationAndOrdersCube) {
  const std::vector<idx> p = geometric_nd_3d(7, 6, 5);
  EXPECT_TRUE(is_permutation(p));
  const SymSparse a = make_grid3d(7, 6, 5);
  const i64 fill = fill_under(a, geometric_nd_3d(7, 6, 5));
  EXPECT_GT(fill, 0);
}

TEST(GeometricNd, RejectsBadArgs) {
  EXPECT_THROW(geometric_nd_2d(0, 5), Error);
  EXPECT_THROW(geometric_nd_3d(2, 2, 0), Error);
  EXPECT_THROW(geometric_nd_2d(4, 4, 0), Error);
}

TEST(GeneralNd, IsPermutation) {
  const SymSparse a = make_grid2d(17, 13);
  const std::vector<idx> p = nested_dissection_order(a.pattern());
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeneralNd, HandlesDisconnected) {
  // Two disjoint triangles plus an isolated vertex.
  const Graph g = Graph::from_edges(
      7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  const std::vector<idx> p = nested_dissection_order(g, NdOptions{2});
  EXPECT_TRUE(is_permutation(p));
}

TEST(GeneralNd, ComparableFillToMmdOnGrid) {
  const SymSparse a = make_grid2d(24, 24);
  const i64 fill_nd = fill_under(a, nested_dissection_order(a.pattern()));
  const i64 fill_mmd = fill_under(a, mmd_order(a.pattern()));
  EXPECT_LT(fill_nd, fill_mmd * 3);  // same ballpark
}

TEST(BfsSeparator, SplitsPath) {
  // Path 0-1-...-9: separator should be a single middle vertex.
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < 10; ++i) edges.emplace_back(i, i + 1);
  const Graph g = Graph::from_edges(10, edges);
  std::vector<idx> verts(10);
  for (idx i = 0; i < 10; ++i) verts[i] = i;
  std::vector<idx> a, b, sep;
  bfs_vertex_separator(g, verts, a, b, sep);
  EXPECT_EQ(a.size() + b.size() + sep.size(), 10u);
  EXPECT_FALSE(a.empty());
  EXPECT_FALSE(b.empty());
  EXPECT_LE(sep.size(), 1u);
  // No edge may cross directly between the two sides.
  std::vector<int> side(10, 0);
  for (idx v : a) side[v] = 1;
  for (idx v : b) side[v] = 2;
  for (auto [u, v] : edges) {
    EXPECT_FALSE(side[u] != 0 && side[v] != 0 && side[u] != side[v])
        << "edge " << u << "-" << v << " crosses the separator";
  }
}

}  // namespace
}  // namespace spc
