// Structural invariant validators.
//
// Every phase of the pipeline — input matrix, elimination tree, supernodes,
// symbolic factor, block structure, task graph, Cartesian-product mapping,
// balance statistics — has deep invariants that the factorization silently
// relies on. The validators here re-derive each invariant from first
// principles and report violations as Findings instead of throwing, so a
// caller can collect everything that is wrong with a structure in one pass.
//
// Consumers:
//  * tools/spc_check — CLI that runs the full catalog over a matrix /
//    ordering / mapping / schedule and exits nonzero on findings;
//  * SparseCholesky — with SPC_CHECK_INVARIANTS=1 in the environment, the
//    driver runs the relevant validators at each pipeline phase boundary
//    and throws on the first report with errors;
//  * tests/test_check.cpp — seeds deliberate corruptions and asserts each
//    validator pinpoints exactly the seeded rule.
//
// Validators are defensive by construction: checks are staged (sizes →
// ranges → ordering → cross-derivations) with early returns between stages,
// so a corrupt structure never causes an out-of-range access inside the
// checker itself, and a single corruption does not cascade into a wall of
// secondary findings.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "blocks/block_structure.hpp"
#include "blocks/domains.hpp"
#include "blocks/task_graph.hpp"
#include "graph/graph.hpp"
#include "mapping/balance.hpp"
#include "mapping/block_map.hpp"
#include "mapping/subcube.hpp"
#include "support/types.hpp"
#include "symbolic/symbolic_factor.hpp"

namespace spc::check {

enum class Severity { kWarning, kError };

struct Finding {
  std::string rule;    // stable dotted id, e.g. "etree.parent-order"
  std::string detail;  // human-readable specifics with indices/values
  Severity severity = Severity::kError;
};

class Report {
 public:
  void error(std::string rule, std::string detail);
  void warn(std::string rule, std::string detail);
  void merge(Report other);

  // True when the report has no errors (warnings are allowed).
  bool ok() const { return errors_ == 0; }
  int errors() const { return errors_; }
  int warnings() const { return static_cast<int>(findings_.size()) - errors_; }
  const std::vector<Finding>& findings() const { return findings_; }

  // Any finding (error or warning) with exactly this rule id.
  bool has(std::string_view rule) const;

  // One line per finding: "error <rule>: <detail>".
  void print(std::ostream& os) const;

  // Throws spc::Error listing every finding when !ok(). `phase` names the
  // pipeline stage for the message ("analyze", "plan", ...).
  void require_ok(const std::string& phase) const;

 private:
  std::vector<Finding> findings_;
  int errors_ = 0;
};

// --- Input structures (check_graph.cpp) ------------------------------------

// SymSparse canonical form: ptr monotone over n+1 entries, diagonal entry
// first in each column, strictly increasing in-range rows after it,
// positive diagonal values. The *_csr variant validates raw arrays so
// callers (and tests) can check data that SymSparse's constructors would
// refuse to build.
Report check_matrix(const SymSparse& a);
Report check_matrix_csr(idx n, const std::vector<i64>& ptr,
                        const std::vector<idx>& row,
                        const std::vector<double>& val);

// Graph adjacency: monotone ptr, sorted unique in-range neighbors, no self
// loops, symmetric edges.
Report check_graph(const Graph& g);
Report check_graph_csr(idx n, const std::vector<i64>& ptr,
                       const std::vector<idx>& adj);

// --- Symbolic phase (check_symbolic.cpp) -----------------------------------

// Parent array shape: size n, every entry kNone or strictly greater than its
// child (which is exactly acyclicity for an elimination ordering).
Report check_parent_array(idx n, const std::vector<idx>& parent);

// Parent-array structure plus a from-scratch recomputation of the
// elimination tree of `a`, entry-by-entry.
Report check_etree(const SymSparse& a, const std::vector<idx>& parent);

// `post` must be a permutation visiting children before parents with every
// subtree contiguous. Pass the identity to assert a matrix is already
// postordered.
Report check_postorder(const std::vector<idx>& parent,
                       const std::vector<idx>& post);

// Off-diagonal factor column counts: in [0, n-1-j], the column nesting
// count[parent] >= count[child] - 1, and equal to a from-scratch
// recomputation.
Report check_colcounts(const SymSparse& a, const std::vector<idx>& parent,
                       const std::vector<i64>& counts);

// Supernode partition: covers [0, n) with non-overlapping non-empty
// contiguous column ranges; sn_of_col is its inverse.
Report check_supernodes(const SupernodePartition& sn, idx n);

// Symbolic factor rows: sorted, in range, strictly below the supernode;
// supernodal etree consistent with the column etree; every off-diagonal
// entry of A contained in the symbolic structure.
Report check_symbolic(const SymSparse& a, const std::vector<idx>& parent,
                      const SymbolicFactor& sf);

// Block partition/structure: blocks aligned to supernode boundaries and
// covering all columns; block rows ascending; row ids ascending, tiled
// exactly by the block entries, and each row inside its block row's column
// range.
Report check_block_structure(const SymbolicFactor& sf, const BlockStructure& bs);

// --- Block partition (check_blocks.cpp) ------------------------------------

// Invariants of a block partition, whichever builder produced it
// (make_block_partition or make_block_partition_variable): the boundaries
// cover [0, n) with strictly increasing cuts (blocks.cover), every supernode
// is tiled exactly by a consecutive run of blocks that never crosses its
// boundary (blocks.nesting), and no block is wider than `width_cap`
// (blocks.width-cap). The analysis passes its block_size, the global B.
Report check_blocking(const SymbolicFactor& sf, const BlockPartition& part,
                      idx width_cap);

// --- Task graph & schedule (check_schedule.cpp) ----------------------------

// Task graph consistency against the block structure: per-block fields,
// mod grouping by source column, source/destination block relationships,
// mods_into counts, and exact flop counts per BFAC/BDIV/BMOD.
Report check_task_graph(const BlockStructure& bs, const TaskGraph& tg);

// Executes the dependency DAG symbolically (the executors' counter
// protocol): every block must become ready exactly once and every mod fire
// exactly once, and the run must drain completely — detecting cycles,
// double-scheduled blocks, and inconsistent dependency counts.
Report check_schedule(const BlockStructure& bs, const TaskGraph& tg);

// --- Mapping & balance (check_mapping.cpp) ---------------------------------

// mapI/mapJ are functions into the Pr x Pc grid sized to the block count;
// warns when they are not onto despite enough blocks.
Report check_mapping(const BlockMap& map);

// Domain-processor assignments sized to the block columns and in range.
Report check_domains(const DomainDecomposition& dom, idx num_procs,
                     idx num_block_cols);

// Full plan: mapping + domains + a from-scratch recomputation of the
// flops + 1000*ops work model and the row/column/diagonal/overall balance
// statistics, compared against `reported`.
Report check_plan(const BlockStructure& bs, const TaskGraph& tg,
                  const DomainDecomposition& dom, const BlockMap& map,
                  const BalanceStats& reported);

// --- Subtree-affinity partition (check_affinity.cpp) -----------------------
//
// Validates a subtree_affinity_partition result (mapping/subcube.hpp)
// against the structure it was built for: array shapes and owner ranges
// (sched.affinity.shape / .owner-range), per-column work re-derived from
// the task graph (sched.affinity.col-work), subtree closure — a pinned
// column's children in the block elimination tree are pinned to the SAME
// worker, i.e. no below-frontier column is ever split across workers, and
// ownership never resumes below a shared column (sched.affinity.closure) —
// the reported per-worker totals (sched.affinity.worker-work), and the LPT
// balance bound max_w worker_work[w] <= pinned_work/P + max_pinned_subtree
// (sched.affinity.balance).
Report check_affinity_partition(const BlockStructure& bs, const TaskGraph& tg,
                                const AffinityPartition& part);

// Builds the partition for `num_workers` and validates it.
Report check_affinity(const BlockStructure& bs, const TaskGraph& tg,
                      int num_workers);

}  // namespace spc::check
