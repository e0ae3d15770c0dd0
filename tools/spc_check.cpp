// spc_check — structural invariant checker for the sparsechol pipeline.
//
//   spc_check <matrix> [--ordering mmd|amd|nd|natural] [--block B]
//             [--procs P] [--rows CY|DW|IN|DN|ID] [--cols ...] [--no-domains]
//             [--quiet]
//
// Runs the full analysis pipeline on <matrix> (a MatrixMarket / Harwell-
// Boeing file or a generated benchmark name), then validates every phase:
// the permuted matrix's canonical form, the elimination tree and its
// postorder, column counts, the supernode partition, the symbolic factor,
// the block structure, the task graph, a symbolic execution of the
// schedule, the subtree-affinity partitions for 2/4/8 workers, and — when
// --procs is given — the Cartesian-product mapping,
// domains, and a from-scratch recomputation of the work model and balance
// statistics.
//
// Exit status: 0 when no errors were found, 1 when any validator reported
// an error, 2 on usage or internal failures, and the library's documented
// error exit codes (docs/ROBUSTNESS.md) otherwise — notably 3 for malformed
// matrix files and 4 for not-positive-definite input. Warnings print but do
// not change the exit status.
#include <cstdio>
#include <iostream>
#include <string>

#include "check/check.hpp"
#include "cli_common.hpp"

namespace {

using namespace spc;

int run(int argc, char** argv) {
  const cli::Args args = cli::parse_args(
      argc, argv, "usage: spc_check <matrix> [--procs P] ...", false);
  const cli::Loaded m = cli::load_matrix(args);
  const SparseCholesky chol = cli::analyze_from_args(args, m);

  check::Report report = chol.check_analysis();
  // Subtree-affinity partitions for the worker counts the shared-memory
  // executor typically runs with: built and validated from scratch.
  for (const int workers : {2, 4, 8}) {
    report.merge(
        check::check_affinity(chol.structure(), chol.task_graph(), workers));
  }
  std::string scope = "analysis[" + cli::blocking_summary(chol.options()) + "]";
  if (args.has("procs")) {
    const idx procs = static_cast<idx>(std::stoi(args.get("procs", "64")));
    const ParallelPlan plan = chol.plan_parallel(
        procs, cli::heuristic_from(args.get("rows", "ID")),
        cli::heuristic_from(args.get("cols", "CY")), !args.has("no-domains"));
    report.merge(chol.check_plan(plan));
    scope += " + plan(P=" + std::to_string(procs) + ")";
  }

  if (!args.has("quiet")) report.print(std::cout);
  std::printf("%s: %s %s: %d error%s, %d warning%s\n", m.bench.name.c_str(), scope.c_str(),
              report.ok() ? "OK" : "FAILED", report.errors(),
              report.errors() == 1 ? "" : "s", report.warnings(),
              report.warnings() == 1 ? "" : "s");
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const spc::Error& e) {
    std::fprintf(stderr, "error [%s]: %s\n", spc::error_kind_name(e.kind()),
                 e.what());
    // Usage and internal failures keep the historical exit code 2; structured
    // kinds map to the documented contract (3 = malformed input, ...).
    return e.kind() == spc::ErrorKind::kInternal ? 2
                                                 : spc::exit_code_for(e.kind());
  }
}
