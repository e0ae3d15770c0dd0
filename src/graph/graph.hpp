// Sparse symmetric structures.
//
// Two related types:
//  * Graph     — compressed adjacency of the matrix pattern (no self loops),
//                used by the ordering algorithms.
//  * SymSparse — numeric symmetric positive definite matrix stored as the
//                lower triangle in compressed-column form (diagonal entry
//                first in each column, then strictly increasing row indices).
//
// Every builder below (from_edges, from_entries, both permuted, pattern)
// runs in O(nnz + n) time with no comparison sort: counting passes bucket
// the entries by row, then stably by column.
//
// Permutation convention used EVERYWHERE in this library:
//   perm[k]    = original index of the vertex eliminated k-th  (new -> old)
//   inverse(perm)[v] = position of original vertex v in the ordering (old -> new)
#pragma once

#include <utility>
#include <vector>

#include "support/types.hpp"

namespace spc {

class Graph {
 public:
  Graph() = default;
  // Builds from an edge list over vertices [0, n). Edges are symmetrized,
  // deduplicated, and self loops are dropped.
  static Graph from_edges(idx n, const std::vector<std::pair<idx, idx>>& edges);

  idx num_vertices() const { return n_; }
  i64 num_edges() const { return static_cast<i64>(adj_.size()) / 2; }

  // Neighbors of v, sorted ascending.
  const idx* adj_begin(idx v) const { return adj_.data() + ptr_[v]; }
  const idx* adj_end(idx v) const { return adj_.data() + ptr_[v + 1]; }
  idx degree(idx v) const { return static_cast<idx>(ptr_[v + 1] - ptr_[v]); }

  const std::vector<i64>& ptr() const { return ptr_; }
  const std::vector<idx>& adj() const { return adj_; }

  // Graph with vertices renumbered so that new vertex k is old vertex perm[k].
  Graph permuted(const std::vector<idx>& perm) const;

  // Checks internal invariants (sorted, symmetric, in-range); throws on
  // violation. Used by tests and by from_edges in debug paths.
  void validate() const;

 private:
  friend class SymSparse;
  // Symmetric adjacency of a canonical lower triangle in compressed-column
  // form (rows strictly increasing per column); diagonal entries are skipped.
  static Graph from_lower(idx n, const std::vector<i64>& ptr, const std::vector<idx>& row);

  idx n_ = 0;
  std::vector<i64> ptr_;   // size n+1
  std::vector<idx> adj_;   // size 2 * #edges
};

// Connected components: returns the component id of each vertex (ids are
// dense, assigned in order of discovery); *count receives the number of
// components when non-null.
std::vector<idx> connected_components(const Graph& g, idx* count = nullptr);

class SymSparse {
 public:
  SymSparse() = default;
  // Builds from off-diagonal entries, in either triangle, plus an explicit
  // diagonal. Indices are range-checked before anything is built. Duplicate
  // entries (i, j) and (j, i) are summed left to right in input order, so the
  // result is deterministic: (1e16, 1, -1e16) sums to 0, not 1.
  static SymSparse from_entries(idx n, const std::vector<double>& diag,
                                const std::vector<std::pair<idx, idx>>& offdiag_pos,
                                const std::vector<double>& offdiag_val);

  // Adopts compressed-column arrays already in canonical form (the form
  // validate() checks) without copying or rebuilding them. The caller
  // guarantees the form: the wire decoder checks every field first.
  static SymSparse from_canonical(idx n, std::vector<i64> ptr, std::vector<idx> row,
                                  std::vector<double> val) {
    SymSparse m;
    m.n_ = n;
    m.ptr_ = std::move(ptr);
    m.row_ = std::move(row);
    m.val_ = std::move(val);
    return m;
  }

  idx num_rows() const { return n_; }
  // Nonzeros in the stored lower triangle (including the diagonal).
  i64 nnz_lower() const { return static_cast<i64>(row_.size()); }

  const std::vector<i64>& col_ptr() const { return ptr_; }
  const std::vector<idx>& row_idx() const { return row_; }
  const std::vector<double>& values() const { return val_; }

  // Pattern as an adjacency graph (off-diagonal entries only).
  Graph pattern() const;

  // Symmetric permutation: entry (i, j) moves to (new(i), new(j)); result is
  // re-canonicalized to lower-triangular column form.
  SymSparse permuted(const std::vector<idx>& perm) const;

  // y = A * x using the symmetric structure (both triangles implied).
  std::vector<double> multiply(const std::vector<double>& x) const;

  // Checks structural invariants (canonical column form, positive diagonal).
  void validate() const;

 private:
  idx n_ = 0;
  std::vector<i64> ptr_;      // size n+1
  std::vector<idx> row_;      // row indices, diagonal first per column
  std::vector<double> val_;
};

}  // namespace spc
