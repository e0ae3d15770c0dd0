// Multiple Minimum Degree ordering (Liu 1985), the fill-reducing ordering the
// paper applies to its irregular (Harwell-Boeing) matrices.
//
// Implementation: quotient-graph exact-external-degree minimum degree with
//   * multiple elimination  — all independent minimum-degree supervariables
//     are eliminated in one step before degrees are recomputed;
//   * mass elimination      — variables whose adjacency collapses to the new
//     element are ordered immediately after the pivot;
//   * element absorption    — elements reachable from the pivot are merged
//     into the newly formed element;
//   * lazy exact degrees    — after a step each affected variable gets a
//     provable lower bound on its degree and waits in separate "dirty" lists;
//     its exact degree is computed only once that bound falls inside the
//     selection window (min degree + delta), i.e. when it could be selected;
//   * supervariable merging — indistinguishable variables are found by an
//     order-independent hash of their adjacency, with an exact (sort and
//     compare) check only for variables whose hashes collide.
// It is still Liu's MMD: every pivot has the exact minimum external degree,
// and buckets keep the tie order of eager degree updates (most recently
// updated first), so the output matches an eager implementation up to the
// order in which a step emits its mass-eliminated and merged variables.
#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "support/types.hpp"

namespace spc {

struct MmdOptions {
  // Eliminate all pivots with degree <= min_degree + delta per step
  // (delta = 0 is Liu's standard multiple elimination).
  idx delta = 0;
  // Use the Amestoy-Davis-Duff approximate external degree instead of the
  // exact one: cheaper updates (each element's external contribution is a
  // one-pass bound rather than a dedup scan) at slightly lower ordering
  // quality. With this flag the algorithm is AMD, single elimination.
  bool approximate_degree = false;
};

// Returns the elimination order: perm[k] = vertex eliminated k-th (new->old).
std::vector<idx> mmd_order(const Graph& g, const MmdOptions& opt = {});

// Approximate minimum degree: mmd_order with approximate_degree = true.
std::vector<idx> amd_order(const Graph& g);

}  // namespace spc
