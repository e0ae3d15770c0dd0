// Serialization round-trip tests and condition-number estimation tests.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/condest.hpp"
#include "factor/residual.hpp"
#include "factor/serialize.hpp"
#include "gen/dense_gen.hpp"
#include "gen/grid_gen.hpp"
#include "gen/mesh_gen.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

TEST(Serialize, RoundTripSolvesIdentically) {
  const SymSparse a = make_fem_mesh({60, 3, 2, 9.0, 321});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();

  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  SavedFactorization loaded = load_factorization(stream);

  Rng rng(2);
  std::vector<double> b(static_cast<std::size_t>(a.num_rows()));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> x_orig = chol.solve(b);
  const std::vector<double> x_loaded = loaded.solve(b);
  ASSERT_EQ(x_orig.size(), x_loaded.size());
  for (std::size_t i = 0; i < x_orig.size(); ++i) {
    EXPECT_DOUBLE_EQ(x_orig[i], x_loaded[i]);
  }
}

TEST(Serialize, MovePreservesSelfBinding) {
  const SymSparse a = make_grid2d(8, 8);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  SavedFactorization first = load_factorization(stream);
  SavedFactorization second = std::move(first);
  EXPECT_EQ(second.factor.structure, &second.structure);
  const std::vector<double> x = second.solve(std::vector<double>(64, 1.0));
  EXPECT_EQ(x.size(), 64u);
}

TEST(Serialize, RejectsGarbage) {
  std::stringstream stream;
  stream << "this is not a factorization";
  EXPECT_THROW(load_factorization(stream), Error);
}

TEST(Serialize, RejectsTruncated) {
  const SymSparse a = make_grid2d(6, 6);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  std::stringstream stream;
  save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
  const std::string full = stream.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_factorization(cut), Error);
}

// A factored solver's saved bytes, with the byte offset of each structure
// vector's data (after its length prefix, in save order: perm, first_col,
// block_of_col, sn_of_block, rowptr, rowidx, blkptr, blkrow, blkoff, blkcnt)
// and of each saved block (diagonal blocks, then off-diagonal entries).
struct SavedBytes {
  std::string bytes;
  std::vector<std::size_t> vec_at;
  std::vector<std::size_t> diag_at, off_at;

  explicit SavedBytes(const SparseCholesky& chol) {
    std::stringstream stream;
    save_factorization(stream, chol.ordering(), chol.structure(), chol.factor());
    bytes = stream.str();
    const BlockStructure& bs = chol.structure();
    std::size_t at = 2 * sizeof(std::uint32_t);  // magic, version
    const auto skip = [&](const auto& v) {
      vec_at.push_back(at + sizeof(i64));
      at += sizeof(i64) + v.size() * sizeof(v[0]);
    };
    skip(chol.ordering());
    skip(bs.part.first_col);
    skip(bs.part.block_of_col);
    skip(bs.part.sn_of_block);
    skip(bs.rowptr);
    skip(bs.rowidx);
    skip(bs.blkptr);
    skip(bs.blkrow);
    skip(bs.blkoff);
    skip(bs.blkcnt);
    for (const DenseMatrix& m : chol.factor().diag) {
      diag_at.push_back(at);
      at += 2 * sizeof(idx) + static_cast<std::size_t>(m.rows()) * m.cols() * sizeof(double);
    }
    for (const DenseMatrix& m : chol.factor().offdiag) {
      off_at.push_back(at);
      at += 2 * sizeof(idx) + static_cast<std::size_t>(m.rows()) * m.cols() * sizeof(double);
    }
  }

  // Overwrites consecutive values at byte `at`, loads, and expects a typed
  // kMalformedInput before anything is allocated from them.
  template <typename T>
  void expect_rejected(std::size_t at, std::initializer_list<T> values) const {
    std::string bad = bytes;
    for (const T v : values) {
      std::memcpy(&bad[at], &v, sizeof(T));
      at += sizeof(T);
    }
    std::stringstream stream(bad);
    try {
      (void)load_factorization(stream);
      ADD_FAILURE() << "patched factor accepted";
    } catch (const Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << e.what();
    }
  }
};

TEST(Serialize, RejectsBlockHeaderMismatch) {
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12));
  chol.factorize();
  const SavedBytes saved(chol);
  const BlockStructure& bs = chol.structure();

  idx wide = 0;  // the widest diagonal block
  for (idx j = 1; j < bs.num_block_cols(); ++j) {
    if (bs.part.width(j) > bs.part.width(wide)) wide = j;
  }
  const idx w = bs.part.width(wide);
  ASSERT_GT(w, 1);
  ASSERT_GT(bs.num_entries(), 0);
  idx col0 = 0;  // the block column of off-diagonal entry 0
  while (bs.blkptr[col0 + 1] == 0) ++col0;
  const std::size_t at = saved.diag_at[static_cast<std::size_t>(wide)];

  saved.expect_rejected<idx>(at, {1, 1});  // smaller than the block
  saved.expect_rejected<idx>(at, {idx{1} << 30, idx{1} << 30});  // huge
  saved.expect_rejected<idx>(at, {w, w + 1});
  saved.expect_rejected<idx>(saved.off_at[0], {bs.blkcnt[0] + 1, bs.part.width(col0)});
  saved.expect_rejected<idx>(saved.off_at[0], {bs.blkcnt[0], bs.part.width(col0) + 1});
  // A partition that does not end at n would fix the wrong block shapes.
  saved.expect_rejected<idx>(saved.vec_at[1] + sizeof(idx) * static_cast<std::size_t>(bs.num_block_cols()),
                             {chol.num_rows() + 1});
  // The untouched bytes still load.
  std::stringstream clean(saved.bytes);
  EXPECT_NO_THROW((void)load_factorization(clean));
}

TEST(Serialize, RejectsBlockPointersThatSkipEntries) {
  // A diagonal matrix: every block column has no off-diagonal entries, so
  // blkptr is all zeros. Shifted to all ones, every column still validates
  // (each range is empty) but claims one entry no column owns.
  const std::vector<double> diag = {2.0, 3.0, 4.0};
  SparseCholesky chol = SparseCholesky::analyze(SymSparse::from_entries(3, diag, {}, {}));
  chol.factorize();
  const SavedBytes saved(chol);
  ASSERT_EQ(chol.structure().num_entries(), 0);
  ASSERT_EQ(chol.structure().blkptr.size(), 4u);
  saved.expect_rejected<i64>(saved.vec_at[6], {1, 1, 1, 1});
}

TEST(Serialize, RejectsStructureArraysOutOfBounds) {
  // Each patch would make the structure validation or the block reads index
  // past an array; the loader must answer with a typed error first (the
  // ASan build runs this too).
  SparseCholesky chol = SparseCholesky::analyze(make_grid2d(12, 12));
  chol.factorize();
  const SavedBytes saved(chol);
  const BlockStructure& bs = chol.structure();
  const std::size_t nb = static_cast<std::size_t>(bs.num_block_cols());
  ASSERT_GT(bs.num_entries(), 0);
  ASSERT_GT(nb, 1u);
  const std::size_t rowptr_at = saved.vec_at[4], blkptr_at = saved.vec_at[6];
  // rowptr ends past rowidx, and rowptr not monotone.
  saved.expect_rejected<i64>(rowptr_at + nb * sizeof(i64),
                             {static_cast<i64>(bs.rowidx.size()) + 5});
  saved.expect_rejected<i64>(rowptr_at + sizeof(i64),
                             {static_cast<i64>(bs.rowidx.size()) + 1});
  // blkptr ends past blkrow.
  saved.expect_rejected<i64>(blkptr_at + nb * sizeof(i64), {bs.num_entries() + 1});
  // A row id outside [0, n), and a permutation entry outside it.
  saved.expect_rejected<idx>(saved.vec_at[5], {chol.num_rows()});
  saved.expect_rejected<idx>(saved.vec_at[0], {-1});
  // An entry whose row count overruns its column's rows.
  saved.expect_rejected<idx>(saved.vec_at[9], {idx{1} << 20});

  // blkcnt (vector 9) saved empty: cut its data and zero its length.
  std::string bad = saved.bytes;
  const std::size_t len_at = saved.vec_at[9] - sizeof(i64);
  const i64 zero = 0;
  bad.erase(saved.vec_at[9], bs.blkcnt.size() * sizeof(idx));
  std::memcpy(&bad[len_at], &zero, sizeof(zero));
  std::stringstream stream(bad);
  try {
    (void)load_factorization(stream);
    ADD_FAILURE() << "factor with an empty blkcnt accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.kind(), ErrorKind::kMalformedInput) << e.what();
  }
}

TEST(Serialize, FileRoundTrip) {
  const SymSparse a = make_grid2d(7, 5);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const std::string path = "/tmp/spc_test_factor.bin";
  save_factorization_file(path, chol.ordering(), chol.structure(), chol.factor());
  const SavedFactorization loaded = load_factorization_file(path);
  EXPECT_EQ(loaded.structure.num_block_cols(), chol.structure().num_block_cols());
}

TEST(CondEst, IdentityHasConditionOne) {
  // A = diag(4): lambda_max = 4, ||A^{-1}|| = 1/4, cond = 1.
  std::vector<double> diag(20, 4.0);
  const SymSparse a = SymSparse::from_entries(20, diag, {}, {});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_NEAR(estimate_norm2(chol.permuted_matrix()), 4.0, 1e-6);
  EXPECT_NEAR(estimate_inv_norm2(chol.permuted_matrix(), chol.factor()), 0.25, 1e-6);
  EXPECT_NEAR(estimate_condition(chol.permuted_matrix(), chol.factor()), 1.0, 1e-5);
}

TEST(CondEst, DiagonalMatrixExactExtremes) {
  // diag(1, 2, ..., 10): cond = 10.
  std::vector<double> diag(10);
  for (int i = 0; i < 10; ++i) diag[i] = i + 1.0;
  const SymSparse a = SymSparse::from_entries(10, diag, {}, {});
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  EXPECT_NEAR(estimate_condition(chol.permuted_matrix(), chol.factor(), 200), 10.0,
              0.2);
}

TEST(CondEst, GridLaplacianReasonableRange) {
  const SymSparse a = make_grid2d(12, 12);
  SparseCholesky chol = SparseCholesky::analyze(a);
  chol.factorize();
  const double cond = estimate_condition(chol.permuted_matrix(), chol.factor(), 60);
  // diag = degree+1 Laplacian: eigenvalues in (1, ~9); condition modest.
  EXPECT_GT(cond, 1.0);
  EXPECT_LT(cond, 50.0);
}

TEST(CondEst, RejectsBadIters) {
  const SymSparse a = make_grid2d(4, 4);
  EXPECT_THROW(estimate_norm2(a, 0), Error);
}

// --- Fingerprints (the factor registry's cache key, docs/SERVING.md) -------

namespace {
// A tiny fixed matrix built entry-by-entry so the sensitivity tests can
// perturb exactly one number at a time.
SymSparse tiny_matrix(double d0, double off01) {
  const std::vector<double> diag = {d0, 5.0, 6.0, 7.0};
  const std::vector<std::pair<idx, idx>> pos = {{1, 0}, {2, 1}, {3, 0}};
  const std::vector<double> val = {off01, -1.0, -0.5};
  return SymSparse::from_entries(4, diag, pos, val);
}
}  // namespace

TEST(Fingerprint, StableAcrossRunsAndPinned) {
  const SymSparse a = make_grid2d(5, 4);
  const Fingerprint f1 = fingerprint_matrix(a);
  const Fingerprint f2 = fingerprint_matrix(a);
  EXPECT_EQ(f1, f2);
  ASSERT_EQ(f1.to_hex().size(), 32u);
  // Pinned literal: the fingerprint is the daemon's cache key, and clients
  // may hold keys across daemon restarts, so the hash is a wire contract.
  // If this pin moves, the change invalidates every client-held key — bump
  // kVersion in server/protocol.hpp and update the pin deliberately.
  EXPECT_EQ(f1.to_hex(), "5b664edbc3aec44a1b285505b7abc324");
}

TEST(Fingerprint, OneValueChangesKey) {
  const Fingerprint base = fingerprint_matrix(tiny_matrix(4.0, -1.0));
  EXPECT_NE(base, fingerprint_matrix(tiny_matrix(4.0 + 1e-15, -1.0)));
  EXPECT_NE(base, fingerprint_matrix(tiny_matrix(4.0, -1.0 + 1e-15)));
  // Bit-pattern hashing: +0.0 and -0.0 compare equal as doubles but are
  // different matrices for caching purposes.
  EXPECT_NE(fingerprint_matrix(tiny_matrix(4.0, 0.0)),
            fingerprint_matrix(tiny_matrix(4.0, -0.0)));
}

TEST(Fingerprint, StructureChangesKey) {
  const SymSparse a = tiny_matrix(4.0, -1.0);
  // Same values, one extra structural zero entry: different sparsity
  // pattern, different key.
  const SymSparse b = SymSparse::from_entries(
      4, {4.0, 5.0, 6.0, 7.0}, {{1, 0}, {2, 1}, {3, 0}, {3, 2}},
      {-1.0, -1.0, -0.5, 0.0});
  EXPECT_NE(fingerprint_matrix(a), fingerprint_matrix(b));
  // Same entries on a larger dimension: different key.
  const SymSparse c = SymSparse::from_entries(
      5, {4.0, 5.0, 6.0, 7.0, 1.0}, {{1, 0}, {2, 1}, {3, 0}},
      {-1.0, -1.0, -0.5});
  EXPECT_NE(fingerprint_matrix(a), fingerprint_matrix(c));
}

TEST(Fingerprint, OptionsExtendTheMatrixKey) {
  const SymSparse a = tiny_matrix(4.0, -1.0);
  SolverOptions opt;
  const Fingerprint base = fingerprint_problem(a, opt);
  // The problem key is the matrix key continued with the options, so the
  // two never collide for the same matrix.
  EXPECT_NE(base, fingerprint_matrix(a));
  // Every analyze/factorize-relevant knob moves the key...
  SolverOptions o1 = opt;
  o1.block_size = opt.block_size + 1;
  EXPECT_NE(base, fingerprint_problem(a, o1));
  SolverOptions o2 = opt;
  o2.ordering = SolverOptions::Ordering::kNatural;
  EXPECT_NE(base, fingerprint_problem(a, o2));
  SolverOptions o3 = opt;
  o3.pivot_policy = PivotPolicy::kPerturb;
  EXPECT_NE(base, fingerprint_problem(a, o3));
  SolverOptions o4 = opt;
  o4.precision = SolverOptions::Precision::kFp32Refine;
  EXPECT_NE(base, fingerprint_problem(a, o4));
}

TEST(Fingerprint, GovernanceKnobsDoNotChangeKey) {
  // Budget/deadline/retry shape a request, not the cached factorization:
  // two clients with different deadlines must share one registry entry.
  const SymSparse a = tiny_matrix(4.0, -1.0);
  SolverOptions opt;
  const Fingerprint base = fingerprint_problem(a, opt);
  SolverOptions governed = opt;
  governed.mem_budget_bytes = 123456789;
  governed.deadline_s = 0.25;
  EXPECT_EQ(base, fingerprint_problem(a, governed));
}

TEST(Fingerprint, StructureKeyIgnoresValuesAndKeepsProblemKeyPinned) {
  const SymSparse a = make_grid2d(5, 4);
  SolverOptions nd;
  nd.ordering = SolverOptions::Ordering::kNd;
  // Pinned at protocol version 2 (the key is a wire contract): deriving both
  // keys from one hasher pass must move no problem key.
  EXPECT_EQ(fingerprint_problem(a, SolverOptions{}).to_hex(),
            "e3c3ce0f6653179546ad2ae8fb57b118");
  EXPECT_EQ(fingerprint_problem(a, nd).to_hex(), "a2639beed78913d3f3289ba7612ac146");

  Fingerprint problem;
  const Fingerprint structure = fingerprint_structure(a, nd, &problem);
  EXPECT_EQ(problem, fingerprint_problem(a, nd));
  EXPECT_EQ(structure, fingerprint_structure(a, nd));
  EXPECT_NE(structure, problem);
  // New values on the same pattern keep the structure key, not the problem
  // key; another pattern or another analyze option moves it.
  const SymSparse b = tiny_matrix(4.0, -1.0);
  const SymSparse b2 = tiny_matrix(4.5, -2.0);
  EXPECT_EQ(fingerprint_structure(b, nd), fingerprint_structure(b2, nd));
  EXPECT_NE(fingerprint_problem(b, nd), fingerprint_problem(b2, nd));
  EXPECT_NE(fingerprint_structure(b, nd), fingerprint_structure(b, SolverOptions{}));
  const SymSparse c = SymSparse::from_entries(
      4, {4.0, 5.0, 6.0, 7.0}, {{1, 0}, {2, 1}, {3, 0}, {3, 2}},
      {-1.0, -1.0, -0.5, 0.0});
  EXPECT_NE(fingerprint_structure(b, nd), fingerprint_structure(c, nd));
}

TEST(Fingerprint, HasherWordBoundariesMatter) {
  // ["ab","c"] vs ["a","bc"]: same bytes, different word boundaries.
  FingerprintHasher h1;
  h1.mix_bytes("ab", 2);
  h1.mix_bytes("c", 1);
  FingerprintHasher h2;
  h2.mix_bytes("a", 1);
  h2.mix_bytes("bc", 2);
  EXPECT_NE(h1.digest(), h2.digest());
}

}  // namespace
}  // namespace spc
