#include "graph/graph.hpp"

#include <algorithm>

#include "graph/permutation.hpp"
#include "support/error.hpp"

namespace spc {

namespace {

// The one builder behind from_entries, from_edges and both permutes: fills
// the compressed-column lower triangle `ptr`/`row`/`val` (rows strictly
// increasing per column, so a diagonal entry comes first). `each(emit)`
// calls emit(r, c, v) once per entry, with r >= c, in input order; it is
// called twice and must emit the same entries both times. Two stable
// counting passes (by row, then by column, rows visited in increasing
// order) sort the entries in O(nnz + n); equal (r, c) keys end up adjacent
// in input order and are merged left to right (values summed).
template <bool kValues, class Each>
void bucket_lower(idx n, const Each& each, std::vector<i64>& ptr, std::vector<idx>& row,
                  std::vector<double>& val) {
  const std::size_t un = static_cast<std::size_t>(n);
  std::vector<i64> rptr(un + 1, 0);
  ptr.assign(un + 1, 0);
  each([&](idx r, idx c, double) {
    ++rptr[static_cast<std::size_t>(r) + 1];
    ++ptr[static_cast<std::size_t>(c) + 1];
  });
  for (std::size_t v = 0; v < un; ++v) {
    rptr[v + 1] += rptr[v];
    ptr[v + 1] += ptr[v];
  }
  std::vector<idx> rcol(static_cast<std::size_t>(rptr[un]));
  std::vector<double> rval(kValues ? rcol.size() : 0);
  std::vector<i64> next(rptr.begin(), rptr.end() - 1);
  each([&](idx r, idx c, double v) {
    const auto k = static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++);
    rcol[k] = c;
    if constexpr (kValues) rval[k] = v;
  });
  row.resize(static_cast<std::size_t>(ptr[un]));
  if constexpr (kValues) val.resize(row.size());
  next.assign(ptr.begin(), ptr.end() - 1);
  for (idx r = 0; r < n; ++r) {
    for (i64 e = rptr[static_cast<std::size_t>(r)]; e < rptr[static_cast<std::size_t>(r) + 1]; ++e) {
      const idx c = rcol[static_cast<std::size_t>(e)];
      const auto k = static_cast<std::size_t>(next[static_cast<std::size_t>(c)]++);
      row[k] = r;
      if constexpr (kValues) val[k] = rval[static_cast<std::size_t>(e)];
    }
  }
  // Merge duplicates, now adjacent, compacting in place.
  std::size_t w = 0;
  for (std::size_t c = 0; c < un; ++c) {
    const auto begin = static_cast<std::size_t>(ptr[c]);
    const auto end = static_cast<std::size_t>(ptr[c + 1]);
    ptr[c] = static_cast<i64>(w);
    for (std::size_t k = begin; k < end; ++k) {
      if (w > static_cast<std::size_t>(ptr[c]) && row[w - 1] == row[k]) {
        if constexpr (kValues) val[w - 1] += val[k];
        continue;
      }
      row[w] = row[k];
      if constexpr (kValues) val[w] = val[k];
      ++w;
    }
  }
  ptr[un] = static_cast<i64>(w);
  row.resize(w);
  if constexpr (kValues) val.resize(w);
}

}  // namespace

Graph Graph::from_edges(idx n, const std::vector<std::pair<idx, idx>>& edges) {
  SPC_CHECK(n >= 0, "Graph::from_edges: negative vertex count");
  for (auto [u, v] : edges) {
    SPC_CHECK(u >= 0 && u < n && v >= 0 && v < n,
              "Graph::from_edges: edge endpoint out of range");
  }
  std::vector<i64> ptr;
  std::vector<idx> row;
  std::vector<double> unused;
  bucket_lower<false>(n, [&](auto&& emit) {
    for (auto [u, v] : edges) {
      if (u != v) emit(std::max(u, v), std::min(u, v), 0.0);
    }
  }, ptr, row, unused);
  return from_lower(n, ptr, row);
}

Graph Graph::from_lower(idx n, const std::vector<i64>& ptr, const std::vector<idx>& row) {
  Graph g;
  g.n_ = n;
  g.ptr_.assign(static_cast<std::size_t>(n) + 1, 0);
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = row[static_cast<std::size_t>(k)];
      if (r == c) continue;
      ++g.ptr_[static_cast<std::size_t>(r) + 1];
      ++g.ptr_[static_cast<std::size_t>(c) + 1];
    }
  }
  for (idx v = 0; v < n; ++v) g.ptr_[v + 1] += g.ptr_[v];
  g.adj_.resize(static_cast<std::size_t>(g.ptr_[static_cast<std::size_t>(n)]));
  // Columns in increasing order: v first receives its neighbors c < v (from
  // earlier columns), then its own column's rows, all > v. Sorted, no sort.
  std::vector<i64> next(g.ptr_.begin(), g.ptr_.end() - 1);
  for (idx c = 0; c < n; ++c) {
    for (i64 k = ptr[static_cast<std::size_t>(c)]; k < ptr[static_cast<std::size_t>(c) + 1]; ++k) {
      const idx r = row[static_cast<std::size_t>(k)];
      if (r == c) continue;
      g.adj_[static_cast<std::size_t>(next[static_cast<std::size_t>(r)]++)] = c;
      g.adj_[static_cast<std::size_t>(next[static_cast<std::size_t>(c)]++)] = r;
    }
  }
  return g;
}

Graph Graph::permuted(const std::vector<idx>& perm) const {
  SPC_CHECK(static_cast<idx>(perm.size()) == n_, "Graph::permuted: size mismatch");
  const std::vector<idx> inv = inverse_permutation(perm);
  std::vector<std::pair<idx, idx>> edges;
  edges.reserve(adj_.size() / 2);
  for (idx v = 0; v < n_; ++v) {
    for (const idx* p = adj_begin(v); p != adj_end(v); ++p) {
      if (v < *p) edges.emplace_back(inv[v], inv[*p]);
    }
  }
  return from_edges(n_, edges);
}

void Graph::validate() const {
  SPC_CHECK(static_cast<idx>(ptr_.size()) == n_ + 1, "Graph: bad ptr size");
  SPC_CHECK(ptr_[0] == 0 && ptr_[n_] == static_cast<i64>(adj_.size()),
            "Graph: bad ptr bounds");
  for (idx v = 0; v < n_; ++v) {
    SPC_CHECK(ptr_[v] <= ptr_[v + 1], "Graph: ptr not monotone");
    for (i64 k = ptr_[v]; k < ptr_[v + 1]; ++k) {
      const idx u = adj_[static_cast<std::size_t>(k)];
      SPC_CHECK(u >= 0 && u < n_ && u != v, "Graph: neighbor out of range");
      if (k > ptr_[v]) {
        SPC_CHECK(adj_[static_cast<std::size_t>(k - 1)] < u,
                  "Graph: neighbors not strictly sorted");
      }
      // Symmetry: v must appear in u's list.
      SPC_CHECK(std::binary_search(adj_begin(u), adj_end(u), v),
                "Graph: adjacency not symmetric");
    }
  }
}

std::vector<idx> connected_components(const Graph& g, idx* count) {
  const idx n = g.num_vertices();
  std::vector<idx> comp(static_cast<std::size_t>(n), kNone);
  idx next = 0;
  std::vector<idx> stack;
  for (idx v = 0; v < n; ++v) {
    if (comp[static_cast<std::size_t>(v)] != kNone) continue;
    comp[static_cast<std::size_t>(v)] = next;
    stack.push_back(v);
    while (!stack.empty()) {
      const idx u = stack.back();
      stack.pop_back();
      for (const idx* p = g.adj_begin(u); p != g.adj_end(u); ++p) {
        if (comp[static_cast<std::size_t>(*p)] == kNone) {
          comp[static_cast<std::size_t>(*p)] = next;
          stack.push_back(*p);
        }
      }
    }
    ++next;
  }
  if (count != nullptr) *count = next;
  return comp;
}

SymSparse SymSparse::from_entries(idx n, const std::vector<double>& diag,
                                  const std::vector<std::pair<idx, idx>>& offdiag_pos,
                                  const std::vector<double>& offdiag_val) {
  SPC_CHECK(static_cast<idx>(diag.size()) == n, "SymSparse: diag size mismatch");
  SPC_CHECK(offdiag_pos.size() == offdiag_val.size(),
            "SymSparse: entry/value size mismatch");
  for (auto [a, b] : offdiag_pos) {
    SPC_CHECK(a >= 0 && a < n && b >= 0 && b < n, "SymSparse: index out of range");
    SPC_CHECK(a != b, "SymSparse: off-diagonal entry on the diagonal");
  }
  SymSparse m;
  m.n_ = n;
  bucket_lower<true>(n, [&](auto&& emit) {
    for (idx c = 0; c < n; ++c) emit(c, c, diag[static_cast<std::size_t>(c)]);
    for (std::size_t k = 0; k < offdiag_pos.size(); ++k) {
      auto [a, b] = offdiag_pos[k];
      emit(std::max(a, b), std::min(a, b), offdiag_val[k]);
    }
  }, m.ptr_, m.row_, m.val_);
  return m;
}

Graph SymSparse::pattern() const { return Graph::from_lower(n_, ptr_, row_); }

SymSparse SymSparse::permuted(const std::vector<idx>& perm) const {
  SPC_CHECK(static_cast<idx>(perm.size()) == n_, "SymSparse::permuted: size mismatch");
  const std::vector<idx> inv = inverse_permutation(perm);
  SymSparse m;
  m.n_ = n_;
  bucket_lower<true>(n_, [&](auto&& emit) {
    for (idx c = 0; c < n_; ++c) {
      const idx j = inv[static_cast<std::size_t>(c)];
      for (i64 k = ptr_[static_cast<std::size_t>(c)]; k < ptr_[static_cast<std::size_t>(c) + 1]; ++k) {
        const idx i = inv[static_cast<std::size_t>(row_[static_cast<std::size_t>(k)])];
        emit(std::max(i, j), std::min(i, j), val_[static_cast<std::size_t>(k)]);
      }
    }
  }, m.ptr_, m.row_, m.val_);
  return m;
}

std::vector<double> SymSparse::multiply(const std::vector<double>& x) const {
  SPC_CHECK(static_cast<idx>(x.size()) == n_, "SymSparse::multiply: size mismatch");
  std::vector<double> y(static_cast<std::size_t>(n_), 0.0);
  for (idx c = 0; c < n_; ++c) {
    for (i64 k = ptr_[c]; k < ptr_[c + 1]; ++k) {
      const idx r = row_[static_cast<std::size_t>(k)];
      const double v = val_[static_cast<std::size_t>(k)];
      y[static_cast<std::size_t>(r)] += v * x[static_cast<std::size_t>(c)];
      if (r != c) y[static_cast<std::size_t>(c)] += v * x[static_cast<std::size_t>(r)];
    }
  }
  return y;
}

void SymSparse::validate() const {
  SPC_CHECK(static_cast<idx>(ptr_.size()) == n_ + 1, "SymSparse: bad ptr size");
  SPC_CHECK(ptr_[0] == 0 && ptr_[n_] == static_cast<i64>(row_.size()),
            "SymSparse: bad ptr bounds");
  SPC_CHECK(row_.size() == val_.size(), "SymSparse: row/val size mismatch");
  for (idx c = 0; c < n_; ++c) {
    SPC_CHECK(ptr_[c] < ptr_[c + 1], "SymSparse: empty column (missing diagonal)");
    SPC_CHECK(row_[static_cast<std::size_t>(ptr_[c])] == c,
              "SymSparse: first entry of column must be the diagonal");
    SPC_CHECK(val_[static_cast<std::size_t>(ptr_[c])] > 0.0,
              "SymSparse: diagonal must be positive");
    for (i64 k = ptr_[c] + 1; k < ptr_[c + 1]; ++k) {
      SPC_CHECK(row_[static_cast<std::size_t>(k)] > row_[static_cast<std::size_t>(k - 1)],
                "SymSparse: rows not strictly increasing");
      SPC_CHECK(row_[static_cast<std::size_t>(k)] < n_, "SymSparse: row out of range");
    }
  }
}

}  // namespace spc
