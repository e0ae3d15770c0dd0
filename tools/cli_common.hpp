// Shared command-line plumbing for the spc tools: argument parsing, matrix
// loading (files or generated benchmark matrices), and the standard
// --ordering/--block/--rows/--cols option handling.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "cholesky/sparse_cholesky.hpp"
#include "gen/benchmark_suite.hpp"
#include "graph/harwell_boeing.hpp"
#include "graph/matrix_market.hpp"
#include "mapping/heuristics.hpp"
#include "support/error.hpp"

namespace spc::cli {

struct Args {
  std::string command;
  std::string matrix;
  std::map<std::string, std::string> options;
  bool has(const std::string& k) const { return options.count(k) > 0; }
  std::string get(const std::string& k, const std::string& dflt) const {
    auto it = options.find(k);
    return it == options.end() ? dflt : it->second;
  }
};

// argv[1] is the command unless `with_command` is false (single-purpose
// tools take the matrix first); the first non-option argument after it is
// the matrix; everything else is --key [value] pairs (value defaults to 1).
inline Args parse_args(int argc, char** argv, const std::string& usage,
                       bool with_command = true) {
  Args a;
  int i = 1;
  if (with_command) {
    SPC_CHECK(argc >= 2, usage);
    a.command = argv[i++];
  }
  if (i < argc && argv[i][0] != '-') a.matrix = argv[i++];
  for (; i < argc; ++i) {
    const std::string raw = argv[i];
    SPC_CHECK(raw.rfind("--", 0) == 0, "unexpected argument: " + raw);
    const std::string key = raw.substr(2);
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      a.options.emplace(key, argv[++i]);
    } else {
      a.options.emplace(key, "1");
    }
  }
  return a;
}

// Parses "4" or "1,2,4,8" (any non-digit separates); used by flags that
// accept either a single value or a sweep list, e.g. --threads N[,N...].
inline std::vector<int> parse_int_list(const std::string& s) {
  std::vector<int> out;
  int v = 0;
  bool in_num = false;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i < s.size() && s[i] >= '0' && s[i] <= '9') {
      v = v * 10 + (s[i] - '0');
      in_num = true;
    } else {
      if (in_num) out.push_back(v);
      v = 0;
      in_num = false;
    }
  }
  SPC_CHECK(!out.empty(), "expected an integer list, got: " + s);
  return out;
}

inline bool ends_with(const std::string& s, const std::string& suf) {
  return s.size() >= suf.size() &&
         s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

// A file or generated benchmark matrix. `bench` holds the name and matrix
// of either; a generated one also carries its paper ordering kind and grid
// dims, and that ordering is computed only when analyze_from_args uses it.
struct Loaded {
  BenchMatrix bench;
  bool generated = false;
};

inline Loaded load_matrix(const Args& args) {
  SPC_CHECK(!args.matrix.empty(),
            "spc " + args.command + ": missing matrix argument");
  Loaded out;
  out.bench.name = args.matrix;
  // --raw disables the SPD-izing diagonal boost for file input, so genuinely
  // indefinite files reach the factorization's pivot handling (exit code 4
  // under --pivot-policy strict).
  const bool spdize = !args.has("raw");
  if (ends_with(args.matrix, ".mtx")) {
    out.bench.matrix = read_matrix_market_file(args.matrix, nullptr, spdize);
  } else if (ends_with(args.matrix, ".rsa") || ends_with(args.matrix, ".rb") ||
             ends_with(args.matrix, ".psa")) {
    out.bench.matrix = read_harwell_boeing_file(args.matrix, nullptr, spdize);
  } else {
    const SuiteScale scale =
        args.get("scale", "env") == "env"
            ? suite_scale_from_env()
            : (args.get("scale", "") == "full"
                   ? SuiteScale::kFull
                   : (args.get("scale", "") == "small" ? SuiteScale::kSmall
                                                       : SuiteScale::kMedium));
    out.bench = make_bench_matrix(args.matrix, scale);
    out.generated = true;
  }
  return out;
}

inline SparseCholesky analyze_from_args(const Args& args, const Loaded& m) {
  SolverOptions opt;
  opt.block_size = static_cast<idx>(std::stoi(args.get("block", "48")));
  const std::string policy = args.get("pivot-policy", "strict");
  if (policy == "perturb") {
    opt.pivot_policy = PivotPolicy::kPerturb;
  } else {
    SPC_CHECK(policy == "strict",
              "unknown --pivot-policy: " + policy + " (use strict|perturb)");
  }
  if (args.has("pivot-delta")) {
    opt.pivot_delta = std::stod(args.get("pivot-delta", ""));
  }
  const std::string precision = args.get("precision", "fp64");
  if (precision == "fp32-refine") {
    opt.precision = SolverOptions::Precision::kFp32Refine;
  } else {
    SPC_CHECK(precision == "fp64",
              "unknown --precision: " + precision + " (use fp64|fp32-refine)");
  }
  // Resource governance (docs/ROBUSTNESS.md §7): --mem-budget-mb caps the
  // governed allocations, --deadline-ms arms a per-request wall-clock limit
  // (0 = already expired, deterministic), --retries bounds the ladder's
  // extra attempts, --no-degrade restricts it to same-configuration retries.
  if (args.has("mem-budget-mb")) {
    opt.mem_budget_bytes = static_cast<i64>(
        std::stod(args.get("mem-budget-mb", "0")) * 1024.0 * 1024.0);
  }
  if (args.has("deadline-ms")) {
    opt.deadline_s = std::stod(args.get("deadline-ms", "0")) / 1000.0;
  }
  if (args.has("retries")) {
    opt.retry.max_attempts = 1 + std::stoi(args.get("retries", "0"));
  }
  if (args.has("no-degrade")) opt.retry.allow_degrade = false;
  const std::string ord = args.get("ordering", m.generated ? "paper" : "mmd");
  if (ord == "paper" && m.generated) {
    SolverOptions o2 = opt;
    o2.ordering = SolverOptions::Ordering::kNatural;
    return SparseCholesky::analyze_ordered(m.bench.matrix,
                                           order_bench_matrix(m.bench), o2);
  }
  if (ord == "mmd") {
    opt.ordering = SolverOptions::Ordering::kMmd;
  } else if (ord == "amd") {
    opt.ordering = SolverOptions::Ordering::kAmd;
  } else if (ord == "nd") {
    opt.ordering = SolverOptions::Ordering::kNd;
  } else if (ord == "natural") {
    opt.ordering = SolverOptions::Ordering::kNatural;
  } else {
    SPC_CHECK(false, "unknown ordering: " + ord);
  }
  return SparseCholesky::analyze(m.bench.matrix, opt);
}

// One-line blocking description for the CLI plan summaries, e.g. "B=48".
inline std::string blocking_summary(const SolverOptions& opt) {
  return "B=" + std::to_string(opt.block_size);
}

inline RemapHeuristic heuristic_from(const std::string& s) {
  if (s == "CY" || s == "cy") return RemapHeuristic::kCyclic;
  if (s == "DW" || s == "dw") return RemapHeuristic::kDecreasingWork;
  if (s == "IN" || s == "in") return RemapHeuristic::kIncreasingNumber;
  if (s == "DN" || s == "dn") return RemapHeuristic::kDecreasingNumber;
  if (s == "ID" || s == "id") return RemapHeuristic::kIncreasingDepth;
  SPC_CHECK(false, "unknown heuristic: " + s + " (use CY|DW|IN|DN|ID)");
}

}  // namespace spc::cli
