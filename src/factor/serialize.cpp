#include "factor/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <string>

#include "cholesky/sparse_cholesky.hpp"
#include "factor/block_solve.hpp"
#include "support/error.hpp"

namespace spc {
namespace {

// splitmix64 finalizer: full-avalanche 64-bit mix.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

void FingerprintHasher::mix(std::uint64_t v) {
  ++count_;
  h1_ = mix64(h1_ ^ (v + 0x165667b19e3779f9ULL * count_));
  h2_ = mix64(h2_ + (v ^ 0x27d4eb2f165667c5ULL) + count_);
}

void FingerprintHasher::mix_double(double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  mix(bits);
}

void FingerprintHasher::mix_bytes(const void* data, std::size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  mix(static_cast<std::uint64_t>(bytes));
  while (bytes >= 8) {
    std::uint64_t word;
    std::memcpy(&word, p, 8);
    mix(word);
    p += 8;
    bytes -= 8;
  }
  if (bytes > 0) {
    std::uint64_t word = 0;
    std::memcpy(&word, p, bytes);
    mix(word);
  }
}

Fingerprint FingerprintHasher::digest() const {
  // Finalize copies so the hasher can keep streaming after a digest.
  Fingerprint f;
  f.hi = mix64(h1_ ^ mix64(h2_ ^ count_));
  f.lo = mix64(h2_ ^ mix64(h1_ + count_));
  return f;
}

std::string Fingerprint::to_hex() const {
  static const char* kDigits = "0123456789abcdef";
  std::string s(32, '0');
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const unsigned byte = static_cast<unsigned>((word >> shift) & 0xff);
    s[static_cast<std::size_t>(2 * i)] = kDigits[byte >> 4];
    s[static_cast<std::size_t>(2 * i + 1)] = kDigits[byte & 0xf];
  }
  return s;
}

namespace {

// The structure prefix of every matrix hash: dimension, col_ptr, row_idx.
void mix_structure(FingerprintHasher& h, const SymSparse& a) {
  h.mix(static_cast<std::uint64_t>(a.num_rows()));
  h.mix_bytes(a.col_ptr().data(), a.col_ptr().size() * sizeof(i64));
  h.mix_bytes(a.row_idx().data(), a.row_idx().size() * sizeof(idx));
}

}  // namespace

Fingerprint fingerprint_matrix(const SymSparse& a) {
  FingerprintHasher h;
  mix_structure(h, a);
  h.mix_bytes(a.values().data(), a.values().size() * sizeof(double));
  return h.digest();
}

Fingerprint fingerprint_problem(const SymSparse& a, const SolverOptions& opt) {
  Fingerprint problem;
  fingerprint_structure(a, opt, &problem);
  return problem;
}

Fingerprint fingerprint_structure(const SymSparse& a, const SolverOptions& opt,
                                  Fingerprint* problem) {
  FingerprintHasher structure;
  mix_structure(structure, a);
  FingerprintHasher values = structure;  // the problem key continues here
  values.mix_bytes(a.values().data(), a.values().size() * sizeof(double));
  for (FingerprintHasher* h : {&structure, &values}) {
    h->mix(static_cast<std::uint64_t>(opt.ordering));
    h->mix(static_cast<std::uint64_t>(opt.block_size));
    h->mix(opt.amalgamate ? 1 : 0);
    h->mix_double(opt.amalgamation.max_zero_fraction);
    h->mix(static_cast<std::uint64_t>(opt.amalgamation.max_width));
    h->mix(static_cast<std::uint64_t>(opt.amalgamation.always_merge_width));
    h->mix_i64(opt.amalgamation.max_small_zeros);
    h->mix(static_cast<std::uint64_t>(opt.pivot_policy));
    h->mix_double(opt.pivot_delta);
    h->mix(static_cast<std::uint64_t>(opt.precision));
  }
  if (problem != nullptr) *problem = values.digest();
  return structure.digest();
}

namespace {

constexpr std::uint32_t kMagic = 0x53504346;  // "SPCF"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  SPC_CHECK(static_cast<bool>(in), "load_factorization: truncated stream");
  return v;
}

template <typename T>
void write_vec(std::ostream& out, const std::vector<T>& v) {
  write_pod<i64>(out, static_cast<i64>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::istream& in) {
  const i64 n = read_pod<i64>(in);
  SPC_CHECK(n >= 0 && n < (1LL << 40), "load_factorization: corrupt vector length");
  std::vector<T> v(static_cast<std::size_t>(n));
  in.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(T)));
  SPC_CHECK(static_cast<bool>(in), "load_factorization: truncated stream");
  return v;
}

void write_matrix(std::ostream& out, const DenseMatrix& m) {
  write_pod<idx>(out, m.rows());
  write_pod<idx>(out, m.cols());
  out.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(static_cast<std::size_t>(m.rows()) *
                                         m.cols() * sizeof(double)));
}

// Reads one block whose shape the loaded structure fixes: the header must
// say exactly rows x cols before anything is allocated, so a hostile header
// can neither ask for a huge buffer nor leave a block smaller than the
// solve will index.
DenseMatrix read_matrix(std::istream& in, idx rows, idx cols) {
  const idx got_rows = read_pod<idx>(in);
  const idx got_cols = read_pod<idx>(in);
  if (got_rows != rows || got_cols != cols) {
    throw Error("load_factorization: block header " + std::to_string(got_rows) +
                    "x" + std::to_string(got_cols) + " does not match the " +
                    std::to_string(rows) + "x" + std::to_string(cols) +
                    " its structure fixes",
                ErrorKind::kMalformedInput);
  }
  DenseMatrix m(rows, cols);
  in.read(reinterpret_cast<char*>(m.data()),
          static_cast<std::streamsize>(static_cast<std::size_t>(rows) * cols *
                                       sizeof(double)));
  SPC_CHECK(static_cast<bool>(in), "load_factorization: truncated matrix data");
  return m;
}

}  // namespace

std::vector<double> SavedFactorization::solve(const std::vector<double>& b) const {
  SPC_CHECK(static_cast<idx>(b.size()) == structure.part.num_cols(),
            "SavedFactorization::solve: size mismatch");
  std::vector<double> pb(b.size());
  for (std::size_t k = 0; k < b.size(); ++k) {
    pb[k] = b[static_cast<std::size_t>(perm[k])];
  }
  const std::vector<double> px = block_solve(factor, pb);
  std::vector<double> x(b.size());
  for (std::size_t k = 0; k < b.size(); ++k) {
    x[static_cast<std::size_t>(perm[k])] = px[k];
  }
  return x;
}

void save_factorization(std::ostream& out, const std::vector<idx>& perm,
                        const BlockStructure& bs, const BlockFactor& f) {
  SPC_CHECK(f.structure == &bs, "save_factorization: factor/structure mismatch");
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  write_vec(out, perm);
  write_vec(out, bs.part.first_col);
  write_vec(out, bs.part.block_of_col);
  write_vec(out, bs.part.sn_of_block);
  write_vec(out, bs.rowptr);
  write_vec(out, bs.rowidx);
  write_vec(out, bs.blkptr);
  write_vec(out, bs.blkrow);
  write_vec(out, bs.blkoff);
  write_vec(out, bs.blkcnt);
  for (const DenseMatrix& m : f.diag) write_matrix(out, m);
  for (const DenseMatrix& m : f.offdiag) write_matrix(out, m);
  SPC_CHECK(static_cast<bool>(out), "save_factorization: write failed");
}

SavedFactorization load_factorization(std::istream& in) {
  SPC_CHECK(read_pod<std::uint32_t>(in) == kMagic,
            "load_factorization: not a factorization file");
  SPC_CHECK(read_pod<std::uint32_t>(in) == kVersion,
            "load_factorization: unsupported version");
  SavedFactorization out;
  out.perm = read_vec<idx>(in);
  out.structure.part.first_col = read_vec<idx>(in);
  out.structure.part.block_of_col = read_vec<idx>(in);
  out.structure.part.sn_of_block = read_vec<idx>(in);
  out.structure.rowptr = read_vec<i64>(in);
  out.structure.rowidx = read_vec<idx>(in);
  out.structure.blkptr = read_vec<i64>(in);
  out.structure.blkrow = read_vec<idx>(in);
  out.structure.blkoff = read_vec<i64>(in);
  out.structure.blkcnt = read_vec<idx>(in);
  // The block shapes below come from first_col: it must tile [0, n).
  const std::vector<idx>& first_col = out.structure.part.first_col;
  bool tiles = !first_col.empty() && first_col.front() == 0 &&
               first_col.back() == static_cast<idx>(out.perm.size());
  for (std::size_t k = 1; tiles && k < first_col.size(); ++k) {
    tiles = first_col[k] > first_col[k - 1];
  }
  if (!tiles) {
    throw Error("load_factorization: block partition does not tile the columns",
                ErrorKind::kMalformedInput);
  }
  // validate(), the block reads below and SavedFactorization::solve index
  // every array by the values of the others: bound them first, so a corrupt
  // file is a typed error instead of an out-of-bounds read.
  const BlockStructure& bs = out.structure;
  const idx n = static_cast<idx>(out.perm.size());
  const auto tiles_array = [&](const std::vector<i64>& ptr, std::size_t len) {
    if (static_cast<idx>(ptr.size()) != bs.num_block_cols() + 1 ||
        ptr.front() != 0 || ptr.back() != static_cast<i64>(len)) {
      return false;
    }
    return std::is_sorted(ptr.begin(), ptr.end());
  };
  const auto is_permutation = [n](const std::vector<idx>& perm) {
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    for (const idx p : perm) {
      if (p < 0 || p >= n || seen[static_cast<std::size_t>(p)]++ != 0) {
        return false;
      }
    }
    return true;
  };
  const bool in_range =
      is_permutation(out.perm) &&
      static_cast<idx>(bs.part.block_of_col.size()) == n &&
      tiles_array(bs.rowptr, bs.rowidx.size()) &&
      tiles_array(bs.blkptr, bs.blkrow.size()) &&
      bs.blkoff.size() == bs.blkrow.size() &&
      bs.blkcnt.size() == bs.blkrow.size() &&
      std::all_of(bs.rowidx.begin(), bs.rowidx.end(),
                  [n](idx r) { return r >= 0 && r < n; });
  if (!in_range) {
    throw Error("load_factorization: structure arrays out of bounds",
                ErrorKind::kMalformedInput);
  }
  try {
    out.structure.validate();
  } catch (const Error& e) {
    throw Error(std::string("load_factorization: ") + e.what(),
                ErrorKind::kMalformedInput);
  }
  out.factor.structure = &out.structure;
  const idx nb = out.structure.num_block_cols();
  out.factor.diag.reserve(static_cast<std::size_t>(nb));
  const BlockPartition& part = out.structure.part;
  for (idx j = 0; j < nb; ++j) {
    out.factor.diag.push_back(read_matrix(in, part.width(j), part.width(j)));
  }
  // Off-diagonal entry e of block column j is blkcnt[e] x width(j); the
  // entries are stored column by column, in the blkptr order checked above.
  const std::vector<i64>& blkptr = out.structure.blkptr;
  out.factor.offdiag.reserve(out.structure.blkcnt.size());
  for (idx j = 0; j < nb; ++j) {
    for (i64 e = blkptr[j]; e < blkptr[j + 1]; ++e) {
      out.factor.offdiag.push_back(
          read_matrix(in, out.structure.blkcnt[e], part.width(j)));
    }
  }
  return out;
}

void save_factorization_file(const std::string& path, const std::vector<idx>& perm,
                             const BlockStructure& bs, const BlockFactor& f) {
  std::ofstream out(path, std::ios::binary);
  SPC_CHECK(out.good(), "save_factorization: cannot open " + path);
  save_factorization(out, perm, bs, f);
}

SavedFactorization load_factorization_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  SPC_CHECK(in.good(), "load_factorization: cannot open " + path);
  return load_factorization(in);
}

}  // namespace spc
