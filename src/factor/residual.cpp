#include "factor/residual.hpp"

#include <algorithm>
#include <cmath>

#include "support/error.hpp"
#include "support/rng.hpp"

namespace spc {
namespace {

// y = L^T x (structure-driven, using the block factor).
std::vector<double> apply_lt(const BlockFactor& f, const std::vector<double>& x) {
  const BlockStructure& bs = *f.structure;
  const idx n = bs.part.num_cols();
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (idx k = 0; k < bs.num_block_cols(); ++k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    for (idx c = 0; c < w; ++c) {
      double s = 0.0;
      for (idx r = c; r < w; ++r) s += d(r, c) * x[static_cast<std::size_t>(first + r)];
      y[static_cast<std::size_t>(first + c)] += s;
    }
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        double s = 0.0;
        const double* lcol = l.col(c);
        for (idx r = 0; r < l.rows(); ++r) s += lcol[r] * x[static_cast<std::size_t>(rows[r])];
        y[static_cast<std::size_t>(first + c)] += s;
      }
    }
  }
  return y;
}

// y = L x.
std::vector<double> apply_l(const BlockFactor& f, const std::vector<double>& x) {
  const BlockStructure& bs = *f.structure;
  const idx n = bs.part.num_cols();
  std::vector<double> y(static_cast<std::size_t>(n), 0.0);
  for (idx k = 0; k < bs.num_block_cols(); ++k) {
    const idx first = bs.part.first_col[k];
    const idx w = bs.part.width(k);
    const DenseMatrix& d = f.diag[static_cast<std::size_t>(k)];
    for (idx c = 0; c < w; ++c) {
      const double xc = x[static_cast<std::size_t>(first + c)];
      if (xc == 0.0) continue;
      for (idx r = c; r < w; ++r) y[static_cast<std::size_t>(first + r)] += d(r, c) * xc;
    }
    for (i64 e = bs.blkptr[k]; e < bs.blkptr[k + 1]; ++e) {
      const DenseMatrix& l = f.offdiag[static_cast<std::size_t>(e)];
      const idx* rows = bs.entry_rows_begin(e);
      for (idx c = 0; c < w; ++c) {
        const double xc = x[static_cast<std::size_t>(first + c)];
        if (xc == 0.0) continue;
        const double* lcol = l.col(c);
        for (idx r = 0; r < l.rows(); ++r) y[static_cast<std::size_t>(rows[r])] += lcol[r] * xc;
      }
    }
  }
  return y;
}

double inf_norm(const std::vector<double>& v) {
  double m = 0.0;
  for (double x : v) m = std::max(m, std::abs(x));
  return m;
}

}  // namespace

double factor_residual_probe(const SymSparse& a, const BlockFactor& f,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(static_cast<std::size_t>(a.num_rows()));
  for (double& v : x) v = rng.uniform(-1.0, 1.0);
  const std::vector<double> ax = a.multiply(x);
  const std::vector<double> llx = apply_l(f, apply_lt(f, x));
  double err = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) err = std::max(err, std::abs(ax[i] - llx[i]));
  const double scale = inf_norm(ax);
  return scale > 0.0 ? err / scale : err;
}

double factor_residual_dense(const SymSparse& a, const BlockFactor& f) {
  const idx n = a.num_rows();
  SPC_CHECK(n <= 2048, "factor_residual_dense: matrix too large for dense check");
  std::vector<double> dense(static_cast<std::size_t>(n) * n, 0.0);
  const auto& ptr = a.col_ptr();
  const auto& row = a.row_idx();
  const auto& val = a.values();
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = row[static_cast<std::size_t>(k)];
      dense[static_cast<std::size_t>(r) * n + c] = val[static_cast<std::size_t>(k)];
      dense[static_cast<std::size_t>(c) * n + r] = val[static_cast<std::size_t>(k)];
    }
  }
  double a_norm = 0.0;
  for (double v : dense) a_norm += v * v;
  a_norm = std::sqrt(a_norm);

  // Subtract L L^T.
  std::vector<double> lfull(static_cast<std::size_t>(n) * n, 0.0);
  for (idx c = 0; c < n; ++c) {
    for (idx r = c; r < n; ++r) {
      lfull[static_cast<std::size_t>(r) * n + c] = f.entry(r, c);
    }
  }
  double err = 0.0;
  for (idx r = 0; r < n; ++r) {
    for (idx c = 0; c < n; ++c) {
      double s = 0.0;
      const idx kmax = std::min(r, c);
      for (idx k = 0; k <= kmax; ++k) {
        s += lfull[static_cast<std::size_t>(r) * n + k] * lfull[static_cast<std::size_t>(c) * n + k];
      }
      const double d = dense[static_cast<std::size_t>(r) * n + c] - s;
      err += d * d;
    }
  }
  return a_norm > 0.0 ? std::sqrt(err) / a_norm : std::sqrt(err);
}

double solve_residual(const SymSparse& a, const std::vector<double>& x,
                      const std::vector<double>& b) {
  const std::vector<double> ax = a.multiply(x);
  double err = 0.0;
  for (std::size_t i = 0; i < ax.size(); ++i) {
    const double r = std::abs(ax[i] - b[i]);
    if (std::isnan(r)) return r;  // std::max would drop it
    err = std::max(err, r);
  }
  const double scale = std::max(inf_norm(b), 1e-300);
  return err / scale;
}

double solve_residual_multi(const SymSparse& a, const DenseMatrix& x,
                            const DenseMatrix& b) {
  SPC_CHECK(x.rows() == a.num_rows() && b.rows() == a.num_rows() &&
                x.cols() == b.cols(),
            "solve_residual_multi: shape mismatch");
  const std::size_t n = static_cast<std::size_t>(a.num_rows());
  std::vector<double> xc(n), bc(n);
  double worst = 0.0;
  for (idx c = 0; c < x.cols(); ++c) {
    const double* xp = x.col(c);
    const double* bp = b.col(c);
    std::copy(xp, xp + n, xc.begin());
    std::copy(bp, bp + n, bc.begin());
    const double r = solve_residual(a, xc, bc);
    if (!std::isfinite(r)) return r;
    worst = std::max(worst, r);
  }
  return worst;
}

}  // namespace spc
