#include "symbolic/etree.hpp"

#include <algorithm>

#include "graph/permutation.hpp"
#include "support/error.hpp"

namespace spc {

void lower_row_structure(const SymSparse& a, std::vector<i64>& rptr,
                         std::vector<idx>& rcol, const std::vector<idx>* inv) {
  const idx n = a.num_rows();
  const auto& ptr = a.col_ptr();
  const auto& row = a.row_idx();
  const auto at = [inv](idx v) {
    return inv != nullptr ? (*inv)[static_cast<std::size_t>(v)] : v;
  };
  rptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (idx c = 0; c < n; ++c) {
    const idx j = at(c);
    for (i64 e = ptr[static_cast<std::size_t>(c)] + 1; e < ptr[static_cast<std::size_t>(c) + 1]; ++e) {
      ++rptr[static_cast<std::size_t>(std::max(at(row[static_cast<std::size_t>(e)]), j)) + 1];
    }
  }
  for (idx i = 0; i < n; ++i) rptr[static_cast<std::size_t>(i) + 1] += rptr[static_cast<std::size_t>(i)];
  rcol.resize(static_cast<std::size_t>(rptr[static_cast<std::size_t>(n)]));
  std::vector<i64> cursor(rptr.begin(), rptr.end() - 1);
  for (idx c = 0; c < n; ++c) {
    const idx j = at(c);
    for (i64 e = ptr[static_cast<std::size_t>(c)] + 1; e < ptr[static_cast<std::size_t>(c) + 1]; ++e) {
      const idx i = at(row[static_cast<std::size_t>(e)]);
      rcol[static_cast<std::size_t>(cursor[static_cast<std::size_t>(std::max(i, j))]++)] = std::min(i, j);
    }
  }
}

std::vector<idx> elimination_tree(const SymSparse& a) {
  return elimination_tree(a, identity_permutation(a.num_rows()));
}

std::vector<idx> elimination_tree(const SymSparse& a, const std::vector<idx>& perm) {
  SPC_CHECK(static_cast<idx>(perm.size()) == a.num_rows(),
            "elimination_tree: permutation size mismatch");
  const idx n = a.num_rows();
  std::vector<idx> parent(static_cast<std::size_t>(n), kNone);
  std::vector<idx> ancestor(static_cast<std::size_t>(n), kNone);
  // Liu's algorithm with path compression, consuming rows of the lower
  // triangle of A(perm, perm) in increasing row order (any order within a row).
  const std::vector<idx> inv = inverse_permutation(perm);
  std::vector<i64> rptr;
  std::vector<idx> rcol;
  lower_row_structure(a, rptr, rcol, &inv);

  for (idx i = 0; i < n; ++i) {
    for (i64 e = rptr[static_cast<std::size_t>(i)]; e < rptr[static_cast<std::size_t>(i) + 1]; ++e) {
      idx j = rcol[static_cast<std::size_t>(e)];
      while (ancestor[static_cast<std::size_t>(j)] != kNone &&
             ancestor[static_cast<std::size_t>(j)] != i) {
        const idx next = ancestor[static_cast<std::size_t>(j)];
        ancestor[static_cast<std::size_t>(j)] = i;
        j = next;
      }
      if (ancestor[static_cast<std::size_t>(j)] == kNone) {
        ancestor[static_cast<std::size_t>(j)] = i;
        parent[static_cast<std::size_t>(j)] = i;
      }
    }
  }
  return parent;
}

std::vector<idx> etree_postorder(const std::vector<idx>& parent) {
  const idx n = static_cast<idx>(parent.size());
  // Children lists, preserving ascending child order for determinism.
  std::vector<idx> head(static_cast<std::size_t>(n), kNone);
  std::vector<idx> next(static_cast<std::size_t>(n), kNone);
  std::vector<idx> roots;
  for (idx v = n - 1; v >= 0; --v) {
    const idx p = parent[static_cast<std::size_t>(v)];
    if (p == kNone) {
      roots.push_back(v);
    } else {
      SPC_CHECK(p > v, "etree_postorder: parent must be greater than child");
      next[static_cast<std::size_t>(v)] = head[static_cast<std::size_t>(p)];
      head[static_cast<std::size_t>(p)] = v;
    }
  }
  std::reverse(roots.begin(), roots.end());

  std::vector<idx> post;
  post.reserve(static_cast<std::size_t>(n));
  std::vector<std::pair<idx, idx>> stack;  // (vertex, next child to visit)
  for (idx r : roots) {
    stack.emplace_back(r, head[static_cast<std::size_t>(r)]);
    while (!stack.empty()) {
      auto& [v, child] = stack.back();
      if (child == kNone) {
        post.push_back(v);
        stack.pop_back();
      } else {
        const idx c = child;
        child = next[static_cast<std::size_t>(c)];
        stack.emplace_back(c, head[static_cast<std::size_t>(c)]);
      }
    }
  }
  SPC_CHECK(static_cast<idx>(post.size()) == n, "etree_postorder: forest has a cycle");
  return post;
}

std::vector<idx> etree_depth(const std::vector<idx>& parent) {
  const idx n = static_cast<idx>(parent.size());
  std::vector<idx> depth(static_cast<std::size_t>(n), kNone);
  for (idx v = n - 1; v >= 0; --v) {
    const idx p = parent[static_cast<std::size_t>(v)];
    if (p == kNone) {
      depth[static_cast<std::size_t>(v)] = 0;
    } else {
      SPC_CHECK(depth[static_cast<std::size_t>(p)] != kNone,
                "etree_depth: parent must be greater than child");
      depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(p)] + 1;
    }
  }
  return depth;
}

std::vector<i64> etree_subtree_sizes(const std::vector<idx>& parent) {
  const idx n = static_cast<idx>(parent.size());
  std::vector<i64> size(static_cast<std::size_t>(n), 1);
  for (idx v = 0; v < n; ++v) {
    const idx p = parent[static_cast<std::size_t>(v)];
    if (p != kNone) size[static_cast<std::size_t>(p)] += size[static_cast<std::size_t>(v)];
  }
  return size;
}

std::vector<idx> relabel_parent(const std::vector<idx>& parent,
                                const std::vector<idx>& perm) {
  const std::vector<idx> inv = inverse_permutation(perm);
  std::vector<idx> out(parent.size());
  for (std::size_t k = 0; k < parent.size(); ++k) {
    const idx old_v = perm[k];
    const idx old_p = parent[static_cast<std::size_t>(old_v)];
    out[k] = old_p == kNone ? kNone : inv[static_cast<std::size_t>(old_p)];
  }
  return out;
}

}  // namespace spc
