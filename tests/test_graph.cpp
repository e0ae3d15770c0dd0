// Unit tests for graph structures, permutations, and Matrix Market I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <sstream>

#include "cholesky/sparse_cholesky.hpp"
#include "gen/benchmark_suite.hpp"
#include "gen/grid_gen.hpp"
#include "graph/graph.hpp"
#include "graph/matrix_market.hpp"
#include "graph/permutation.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "symbolic/etree.hpp"

namespace spc {
namespace {

TEST(Graph, FromEdgesSymmetrizesAndDedupes) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 0}, {1, 2}, {2, 2}, {1, 2}});
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);  // (0,1), (1,2); self loop dropped
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
  g.validate();
}

TEST(Graph, RejectsOutOfRange) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 5}}), Error);
}

TEST(Graph, PermutedPreservesStructure) {
  const Graph g = Graph::from_edges(4, {{0, 1}, {1, 2}, {2, 3}});
  const std::vector<idx> perm = {3, 2, 1, 0};  // reverse
  const Graph h = g.permuted(perm);
  h.validate();
  EXPECT_EQ(h.num_edges(), 3);
  // Old path 0-1-2-3 becomes new path 3-2-1-0.
  EXPECT_EQ(h.degree(0), 1);
  EXPECT_EQ(h.degree(1), 2);
}

TEST(Graph, ConnectedComponents) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {3, 4}});
  idx count = 0;
  const std::vector<idx> comp = connected_components(g, &count);
  EXPECT_EQ(count, 4);  // {0,1,2}, {3,4}, {5}, {6}
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[5], comp[6]);
}

TEST(Graph, ConnectedComponentsSingleComponent) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx i = 0; i + 1 < 30; ++i) edges.emplace_back(i, i + 1);
  idx count = 0;
  connected_components(Graph::from_edges(30, edges), &count);
  EXPECT_EQ(count, 1);
}

TEST(Permutation, InverseRoundTrips) {
  const std::vector<idx> p = {2, 0, 3, 1};
  const std::vector<idx> inv = inverse_permutation(p);
  for (idx k = 0; k < 4; ++k) EXPECT_EQ(inv[p[k]], k);
}

TEST(Permutation, DetectsInvalid) {
  EXPECT_FALSE(is_permutation({0, 0, 1}));
  EXPECT_FALSE(is_permutation({0, 3}));
  EXPECT_TRUE(is_permutation({1, 0, 2}));
  EXPECT_THROW(inverse_permutation({1, 1}), Error);
}

TEST(Permutation, ComposeAppliesSecondAfterFirst) {
  const std::vector<idx> first = {2, 0, 1};
  const std::vector<idx> second = {1, 2, 0};
  const std::vector<idx> c = compose_permutations(first, second);
  // c[k] = first[second[k]]
  EXPECT_EQ(c, (std::vector<idx>{0, 1, 2}));
}

TEST(Permutation, IdentityIsIdentity) {
  EXPECT_EQ(identity_permutation(3), (std::vector<idx>{0, 1, 2}));
}

SymSparse tiny_spd() {
  // 3x3: diag [4,5,6], offdiag (1,0)=-1, (2,1)=-2
  return SymSparse::from_entries(3, {4.0, 5.0, 6.0}, {{1, 0}, {2, 1}}, {-1.0, -2.0});
}

TEST(SymSparse, CanonicalForm) {
  const SymSparse m = tiny_spd();
  m.validate();
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.nnz_lower(), 5);
  EXPECT_EQ(m.row_idx()[0], 0);  // diagonal first in column 0
}

TEST(SymSparse, DuplicatesSummed) {
  const SymSparse m = SymSparse::from_entries(2, {3.0, 3.0}, {{1, 0}, {0, 1}}, {-1.0, -0.5});
  EXPECT_EQ(m.nnz_lower(), 3);
  EXPECT_DOUBLE_EQ(m.values()[1], -1.5);
}

TEST(SymSparse, MultiplyUsesBothTriangles) {
  const SymSparse m = tiny_spd();
  const std::vector<double> y = m.multiply({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);   // 4 - 1
  EXPECT_DOUBLE_EQ(y[1], 2.0);   // -1 + 5 - 2
  EXPECT_DOUBLE_EQ(y[2], 4.0);   // -2 + 6
}

TEST(SymSparse, PermutedPreservesQuadraticForm) {
  const SymSparse m = tiny_spd();
  const std::vector<idx> perm = {2, 0, 1};
  const SymSparse p = m.permuted(perm);
  p.validate();
  // x^T A x invariant under symmetric permutation (permute x accordingly).
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> px(3);
  for (idx k = 0; k < 3; ++k) px[k] = x[static_cast<std::size_t>(perm[k])];
  const std::vector<double> ax = m.multiply(x);
  const std::vector<double> pax = p.multiply(px);
  double qa = 0.0, qb = 0.0;
  for (idx k = 0; k < 3; ++k) {
    qa += x[k] * ax[k];
    qb += px[k] * pax[k];
  }
  EXPECT_NEAR(qa, qb, 1e-12);
}

TEST(SymSparse, PatternDropsDiagonal) {
  const Graph g = tiny_spd().pattern();
  EXPECT_EQ(g.num_edges(), 2);
}

TEST(SymSparse, RejectsDiagonalInOffdiagList) {
  EXPECT_THROW(SymSparse::from_entries(2, {1.0, 1.0}, {{1, 1}}, {2.0}), Error);
}

TEST(MatrixMarket, RoundTrip) {
  const SymSparse m = tiny_spd();
  std::ostringstream os;
  write_matrix_market(os, m);
  std::istringstream is(os.str());
  const SymSparse back = read_matrix_market(is);
  back.validate();
  EXPECT_EQ(back.num_rows(), 3);
  EXPECT_EQ(back.nnz_lower(), 5);
  EXPECT_DOUBLE_EQ(back.values()[0], 4.0);
}

TEST(MatrixMarket, PatternFileGetsSpdValues) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% comment\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const SymSparse m = read_matrix_market(is);
  m.validate();  // validates positive diagonal, i.e. SPD-ready
  EXPECT_EQ(m.num_rows(), 3);
  EXPECT_EQ(m.nnz_lower(), 5);
}

TEST(MatrixMarket, BoostsWeakDiagonal) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 3\n"
      "1 1 0.1\n"
      "2 2 0.1\n"
      "2 1 -5.0\n");
  bool boosted = false;
  const SymSparse m = read_matrix_market(is, &boosted);
  EXPECT_TRUE(boosted);
  m.validate();
  EXPECT_GE(m.values()[0], 5.0);
}

TEST(MatrixMarket, RejectsGeneralSymmetry) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), Error);
}

TEST(MatrixMarket, RejectsTruncated) {
  std::istringstream is(
      "%%MatrixMarket matrix coordinate real symmetric\n"
      "2 2 2\n"
      "1 1 1.0\n");
  EXPECT_THROW(read_matrix_market(is), Error);
}

// ---------------------------------------------------------------------------
// Differential tests: the counting-pass builders against a sort-based
// reference kept only here. The reference sorts stably, so duplicates sum
// in input order, the order graph.hpp documents.

struct RefCsc {
  std::vector<i64> ptr;
  std::vector<idx> row;
  std::vector<double> val;
};

RefCsc ref_from_entries(idx n, const std::vector<double>& diag,
                        const std::vector<std::pair<idx, idx>>& pos,
                        const std::vector<double>& val) {
  struct Entry {
    idx r, c;
    double v;
  };
  std::vector<Entry> entries;
  for (std::size_t k = 0; k < pos.size(); ++k) {
    entries.push_back({std::max(pos[k].first, pos[k].second),
                       std::min(pos[k].first, pos[k].second), val[k]});
  }
  std::stable_sort(entries.begin(), entries.end(), [](const Entry& x, const Entry& y) {
    return x.c != y.c ? x.c < y.c : x.r < y.r;
  });
  RefCsc m;
  m.ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  std::size_t k = 0;
  for (idx c = 0; c < n; ++c) {
    m.row.push_back(c);
    m.val.push_back(diag[static_cast<std::size_t>(c)]);
    for (; k < entries.size() && entries[k].c == c; ++k) {
      if (m.row.back() == entries[k].r && m.row.back() != c) {
        m.val.back() += entries[k].v;
      } else {
        m.row.push_back(entries[k].r);
        m.val.push_back(entries[k].v);
      }
    }
    m.ptr[static_cast<std::size_t>(c) + 1] = static_cast<i64>(m.row.size());
  }
  return m;
}

// Sorted, deduplicated, symmetric adjacency as (ptr, adj).
std::pair<std::vector<i64>, std::vector<idx>> ref_from_edges(
    idx n, const std::vector<std::pair<idx, idx>>& edges) {
  std::vector<std::pair<idx, idx>> sym;
  for (auto [u, v] : edges) {
    if (u == v) continue;
    sym.emplace_back(u, v);
    sym.emplace_back(v, u);
  }
  std::sort(sym.begin(), sym.end());
  sym.erase(std::unique(sym.begin(), sym.end()), sym.end());
  std::vector<i64> ptr(static_cast<std::size_t>(n) + 1, 0);
  std::vector<idx> adj;
  for (auto [u, v] : sym) {
    ++ptr[static_cast<std::size_t>(u) + 1];
    adj.push_back(v);
  }
  for (idx v = 0; v < n; ++v) ptr[v + 1] += ptr[v];
  return {ptr, adj};
}

// Entries of a canonical matrix, mapped through the old->new map `inv`.
void entries_of(const SymSparse& a, const std::vector<idx>& inv, std::vector<double>& diag,
                std::vector<std::pair<idx, idx>>& pos, std::vector<double>& val) {
  diag.assign(static_cast<std::size_t>(a.num_rows()), 0.0);
  pos.clear();
  val.clear();
  for (idx c = 0; c < a.num_rows(); ++c) {
    for (i64 k = a.col_ptr()[c]; k < a.col_ptr()[c + 1]; ++k) {
      const idx r = a.row_idx()[static_cast<std::size_t>(k)];
      const double v = a.values()[static_cast<std::size_t>(k)];
      if (r == c) {
        diag[static_cast<std::size_t>(inv[c])] = v;
      } else {
        pos.emplace_back(inv[r], inv[c]);
        val.push_back(v);
      }
    }
  }
}

RefCsc ref_permuted(const SymSparse& a, const std::vector<idx>& perm) {
  std::vector<double> diag, val;
  std::vector<std::pair<idx, idx>> pos;
  entries_of(a, inverse_permutation(perm), diag, pos, val);
  return ref_from_entries(a.num_rows(), diag, pos, val);
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> b(v.size());
  if (!v.empty()) std::memcpy(b.data(), v.data(), v.size() * sizeof(double));
  return b;
}

void expect_same(const SymSparse& m, const RefCsc& ref) {
  EXPECT_EQ(m.col_ptr(), ref.ptr);
  EXPECT_EQ(m.row_idx(), ref.row);
  EXPECT_EQ(bits(m.values()), bits(ref.val));
}

void expect_same_pattern(const SymSparse& m) {
  std::vector<std::pair<idx, idx>> edges;
  for (idx c = 0; c < m.num_rows(); ++c) {
    for (i64 k = m.col_ptr()[c]; k < m.col_ptr()[c + 1]; ++k) {
      edges.emplace_back(m.row_idx()[static_cast<std::size_t>(k)], c);
    }
  }
  const Graph g = m.pattern();
  const auto [ptr, adj] = ref_from_edges(m.num_rows(), edges);
  EXPECT_EQ(g.ptr(), ptr);
  EXPECT_EQ(g.adj(), adj);
}

struct Triplets {
  idx n = 0;
  std::vector<double> diag;
  std::vector<std::pair<idx, idx>> pos;
  std::vector<double> val;
};

// Seeded structure families: random triplets with duplicates in both
// orientations, n = 0 and 1, diagonal-only, a chain, and a dense hub row.
std::vector<Triplets> triplet_families(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Triplets> out;
  const auto diag_of = [&](idx n) {
    std::vector<double> d(static_cast<std::size_t>(n));
    for (double& v : d) v = rng.uniform(1.0, 4.0);
    return d;
  };
  const auto add = [&](Triplets& t, idx a, idx b) {
    t.pos.emplace_back(a, b);
    t.val.push_back(rng.uniform(-1.0, 1.0));
  };
  {
    Triplets t;
    t.n = rng.uniform_int(2, 80);
    t.diag = diag_of(t.n);
    const idx m = rng.uniform_int(0, 4 * t.n);
    for (idx k = 0; k < m; ++k) {
      const idx a = rng.uniform_int(0, t.n - 1);
      const idx b = rng.uniform_int(0, t.n - 1);
      if (a == b) continue;
      add(t, a, b);
      // Repeat some entries, in either orientation, up to three times.
      for (idx d = rng.uniform_int(0, 3); d > 0 && rng.uniform() < 0.4; --d) {
        if (rng.uniform() < 0.5) add(t, a, b); else add(t, b, a);
      }
    }
    out.push_back(t);
  }
  out.push_back(Triplets{});  // n = 0
  {
    Triplets t;
    t.n = 1;
    t.diag = diag_of(1);
    out.push_back(t);
  }
  {
    Triplets t;
    t.n = rng.uniform_int(2, 40);
    t.diag = diag_of(t.n);
    out.push_back(t);  // diagonal only
  }
  {
    Triplets t;
    t.n = rng.uniform_int(2, 60);
    t.diag = diag_of(t.n);
    for (idx i = 0; i + 1 < t.n; ++i) add(t, i + 1, i);  // chain
    out.push_back(t);
  }
  {
    Triplets t;
    t.n = rng.uniform_int(3, 60);
    t.diag = diag_of(t.n);
    const idx hub = rng.uniform_int(0, t.n - 1);
    for (idx k = 0; k < 2 * t.n; ++k) {
      const idx other = rng.uniform_int(0, t.n - 1);
      if (other == hub) continue;
      if (rng.uniform() < 0.5) add(t, hub, other); else add(t, other, hub);
    }
    for (idx i = 0; i + 1 < t.n; ++i) add(t, i, i + 1);
    out.push_back(t);
  }
  return out;
}

std::vector<idx> random_permutation(idx n, Rng& rng) {
  std::vector<idx> p = identity_permutation(n);
  for (idx i = n - 1; i > 0; --i) std::swap(p[i], p[rng.uniform_int(0, i)]);
  return p;
}

TEST(BucketBuilders, MatchSortReferenceBitwise) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed * 7919);
    for (const Triplets& t : triplet_families(seed)) {
      SCOPED_TRACE(testing::Message() << "seed " << seed << " n " << t.n);
      const SymSparse m = SymSparse::from_entries(t.n, t.diag, t.pos, t.val);
      expect_same(m, ref_from_entries(t.n, t.diag, t.pos, t.val));
      expect_same_pattern(m);

      const Graph g = Graph::from_edges(t.n, t.pos);
      const auto [gptr, gadj] = ref_from_edges(t.n, t.pos);
      EXPECT_EQ(g.ptr(), gptr);
      EXPECT_EQ(g.adj(), gadj);

      const std::vector<idx> perm = random_permutation(t.n, rng);
      const SymSparse p = m.permuted(perm);
      expect_same(p, ref_permuted(m, perm));
      expect_same_pattern(p);
      const Graph gp = g.permuted(perm);
      EXPECT_EQ(gp.ptr(), p.pattern().ptr());
      EXPECT_EQ(gp.adj(), p.pattern().adj());

      // Round trip back to the original, bit for bit.
      const SymSparse back = p.permuted(inverse_permutation(perm));
      EXPECT_EQ(back.col_ptr(), m.col_ptr());
      EXPECT_EQ(back.row_idx(), m.row_idx());
      EXPECT_EQ(bits(back.values()), bits(m.values()));
    }
  }
}

TEST(BucketBuilders, DuplicatesSumInInputOrder) {
  // (1e16 + 1) rounds back to 1e16, so input order gives 0; summing the two
  // large terms first would give 1.
  const SymSparse m = SymSparse::from_entries(
      2, {1.0, 1.0}, {{1, 0}, {0, 1}, {1, 0}}, {1e16, 1.0, -1e16});
  ASSERT_EQ(m.nnz_lower(), 3);
  EXPECT_EQ(m.values()[1], 0.0);
  const SymSparse r = SymSparse::from_entries(
      2, {1.0, 1.0}, {{1, 0}, {0, 1}, {1, 0}}, {1e16, -1e16, 1.0});
  EXPECT_EQ(r.values()[1], 1.0);
}

TEST(BucketBuilders, BadIndicesRejectedBeforeBuilding) {
  const idx n = 5;
  const std::vector<double> diag(n, 1.0);
  for (idx bad : {idx{-1}, n, std::numeric_limits<idx>::max()}) {
    for (const auto& e : {std::pair<idx, idx>{bad, 1}, std::pair<idx, idx>{1, bad}}) {
      SCOPED_TRACE(testing::Message() << "index " << bad);
      // A valid entry first, so a builder that counted as it checked would
      // already have touched its buckets.
      const std::vector<std::pair<idx, idx>> pos = {{2, 0}, e};
      try {
        SymSparse::from_entries(n, diag, pos, {1.0, 1.0});
        ADD_FAILURE() << "from_entries accepted an out-of-range index";
      } catch (const Error& err) {
        EXPECT_EQ(err.kind(), ErrorKind::kInternal);
        EXPECT_NE(std::string(err.what()).find("index out of range"), std::string::npos);
      }
      try {
        Graph::from_edges(n, pos);
        ADD_FAILURE() << "from_edges accepted an out-of-range endpoint";
      } catch (const Error& err) {
        EXPECT_EQ(err.kind(), ErrorKind::kInternal);
        EXPECT_NE(std::string(err.what()).find("endpoint out of range"), std::string::npos);
      }
    }
  }
}

// analyze_ordered permutes once by the composed ordering; the result must
// equal the two-permute route (permute by the ordering, postorder that
// matrix's etree, permute again) done with the sort-based reference.
TEST(BucketBuilders, AnalyzeOrderedMatchesTwoPermuteRoute) {
  std::vector<BenchMatrix> cases = {make_bench_matrix("10FLEET", SuiteScale::kMedium),
                                    make_bench_matrix("BCSSTK31", SuiteScale::kMedium)};
  BenchMatrix grid;
  grid.name = "GRID3D";
  grid.matrix = make_grid3d(9, 8, 7);
  grid.ordering = OrderingKind::kMmd;
  cases.push_back(grid);
  for (const BenchMatrix& bm : cases) {
    SCOPED_TRACE(bm.name);
    const std::vector<idx> perm = order_bench_matrix(bm);
    const SymSparse a1 = bm.matrix.permuted(perm);
    expect_same(a1, ref_permuted(bm.matrix, perm));
    const std::vector<idx> parent1 = elimination_tree(a1);
    EXPECT_EQ(elimination_tree(bm.matrix, perm), parent1);
    const std::vector<idx> post = etree_postorder(parent1);

    const SparseCholesky chol = SparseCholesky::analyze_ordered(bm.matrix, perm);
    EXPECT_EQ(chol.ordering(), compose_permutations(perm, post));
    expect_same(chol.permuted_matrix(), ref_permuted(a1, post));
    EXPECT_EQ(chol.etree_parent(), relabel_parent(parent1, post));
  }
}

}  // namespace
}  // namespace spc
