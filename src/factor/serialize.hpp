// Binary serialization of a completed factorization: the permutation, the
// block structure, and the factor values — everything needed to solve
// A x = b later without re-running analysis or numeric factorization
// (multiple-load-case workflows amortize one factorization across runs).
//
// Format: little-endian POD streams with a magic/version header. Not
// intended as an interchange format; files are only guaranteed to load with
// the same library version.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "blocks/block_structure.hpp"
#include "factor/numeric_factor.hpp"
#include "support/types.hpp"

namespace spc {

struct SolverOptions;  // cholesky/sparse_cholesky.hpp

// ---------------------------------------------------------------------------
// Matrix fingerprints (the factor registry's cache key, docs/SERVING.md)
// ---------------------------------------------------------------------------

// A 128-bit content hash. Stable across runs and hosts of the same
// endianness: it is a pure function of the hashed bytes (no pointers, no
// addresses), so the same matrix + options always produce the same key.
struct Fingerprint {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }

  std::string to_hex() const;  // 32 lowercase hex digits
};

// Streaming 128-bit hasher: two independent 64-bit lanes, each a
// splitmix64-style avalanche over the running state, fed word-at-a-time.
// Word boundaries are part of the hash (each mix folds in a running length
// counter), so ["ab","c"] and ["a","bc"] digest differently.
class FingerprintHasher {
 public:
  void mix(std::uint64_t v);
  void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix_double(double v);  // bit pattern, so -0.0 != +0.0 and NaNs count
  void mix_bytes(const void* data, std::size_t bytes);
  Fingerprint digest() const;

 private:
  std::uint64_t h1_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t h2_ = 0xc2b2ae3d27d4eb4fULL;
  std::uint64_t count_ = 0;
};

// Hash of the matrix alone: dimension, sparsity structure (col_ptr/row_idx),
// and the bit patterns of the values. One changed entry changes the key.
Fingerprint fingerprint_matrix(const SymSparse& a);

// The registry key: the matrix hash continued with every analyze/factorize-
// relevant option (ordering, block size, amalgamation parameters,
// pivot policy/delta, precision). Resource-governance knobs (budget,
// deadline, retry policy) do NOT contribute — they shape a request, not the
// cached factorization.
Fingerprint fingerprint_problem(const SymSparse& a, const SolverOptions& opt);

// The same options over the pattern alone (dimension, col_ptr, row_idx, no
// values): one key for every matrix with one pattern, so the registry finds
// an analysis to share. A match is a hint, never a proof; the pattern is
// compared exactly before sharing. A non-null `problem` also receives
// fingerprint_problem(a, opt), continued from the same structure prefix.
Fingerprint fingerprint_structure(const SymSparse& a, const SolverOptions& opt,
                                  Fingerprint* problem = nullptr);

// A self-contained, solvable factorization. `factor.structure` points at the
// bundled `structure` member.
struct SavedFactorization {
  std::vector<idx> perm;  // new->old ordering of the original matrix
  BlockStructure structure;
  BlockFactor factor;

  // factor.structure points at this object's `structure` member; moves must
  // re-bind it (copies are disabled — the factor can be hundreds of MB).
  SavedFactorization() = default;
  SavedFactorization(const SavedFactorization&) = delete;
  SavedFactorization& operator=(const SavedFactorization&) = delete;
  SavedFactorization(SavedFactorization&& o) noexcept
      : perm(std::move(o.perm)),
        structure(std::move(o.structure)),
        factor(std::move(o.factor)) {
    factor.structure = &structure;
  }
  SavedFactorization& operator=(SavedFactorization&& o) noexcept {
    perm = std::move(o.perm);
    structure = std::move(o.structure);
    factor = std::move(o.factor);
    factor.structure = &structure;
    return *this;
  }

  // Solves A x = b in the ORIGINAL ordering (same semantics as
  // SparseCholesky::solve).
  std::vector<double> solve(const std::vector<double>& b) const;
};

void save_factorization(std::ostream& out, const std::vector<idx>& perm,
                        const BlockStructure& bs, const BlockFactor& f);
SavedFactorization load_factorization(std::istream& in);

void save_factorization_file(const std::string& path, const std::vector<idx>& perm,
                             const BlockStructure& bs, const BlockFactor& f);
SavedFactorization load_factorization_file(const std::string& path);

}  // namespace spc
