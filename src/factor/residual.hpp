// Factorization accuracy checks used by tests and examples.
#pragma once

#include <vector>

#include "factor/numeric_factor.hpp"
#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc {

// ||A x - L (L^T x)||_inf / ||A x||_inf for a fixed pseudo-random x.
// Cheap (O(nnz)) and works at any scale.
double factor_residual_probe(const SymSparse& a, const BlockFactor& f,
                             std::uint64_t seed = 42);

// Exact ||A - L L^T||_F / ||A||_F via dense expansion; only for small n.
double factor_residual_dense(const SymSparse& a, const BlockFactor& f);

// ||A x - b||_inf / (||A||_inf-ish scale) for a solve result. Non-finite
// (NaN or inf) when any entry of A x - b is, so no bound check passes it.
double solve_residual(const SymSparse& a, const std::vector<double>& x,
                      const std::vector<double>& b);

// Max of solve_residual over the columns of a multi-RHS solve (X, B
// column-major, same shape); non-finite if any column's residual is.
double solve_residual_multi(const SymSparse& a, const DenseMatrix& x,
                            const DenseMatrix& b);

}  // namespace spc
