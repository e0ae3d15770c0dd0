// Elimination tree computation and manipulation (Liu 1990, the paper's [10]).
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc {

// Parent array of the elimination tree of A (lower-triangular SPD pattern).
// parent[j] = kNone for roots (the etree is a forest if A is reducible).
std::vector<idx> elimination_tree(const SymSparse& a);

// Elimination tree of A(perm, perm), computed from A without forming the
// permuted matrix: one counting pass buckets each entry by its new row.
std::vector<idx> elimination_tree(const SymSparse& a, const std::vector<idx>& perm);

// Row-major view of the strictly-lower triangle of A: for each row i, the
// column indices k < i with A(i,k) != 0, in increasing order. Shared by the
// etree and column-count algorithms, which consume A by rows. With `inv`
// (an old->new map), it is the view of A(perm, perm) for perm = inverse(inv),
// and the columns within a row come in no particular order.
void lower_row_structure(const SymSparse& a, std::vector<i64>& rptr,
                         std::vector<idx>& rcol, const std::vector<idx>* inv = nullptr);

// A postorder of the forest: post[k] = the vertex visited k-th. Children are
// visited before parents; each subtree's vertices are contiguous in post.
// This is a permutation in the library's new->old convention; analyze
// composes it after the fill ordering (compose_permutations) and permutes A
// once by the result.
std::vector<idx> etree_postorder(const std::vector<idx>& parent);

// Depth of each vertex: roots have depth 0, children depth(parent)+1.
std::vector<idx> etree_depth(const std::vector<idx>& parent);

// Number of vertices in the subtree rooted at each vertex (inclusive).
std::vector<i64> etree_subtree_sizes(const std::vector<idx>& parent);

// Relabels a parent array under a permutation of the vertices:
// new_parent[inv[v]] = inv[parent[v]]. Used after postordering.
std::vector<idx> relabel_parent(const std::vector<idx>& parent,
                                const std::vector<idx>& perm);

}  // namespace spc
