// Perf-regression gate: compare two benchmark artifacts — either two
// pclust run reports (BENCH_pipeline.json) or two kernel-rate documents
// (BENCH_kernels.json) — metric by metric against a relative tolerance.
//
// Directions are per metric: phase seconds, ns/cell, memory peaks, and
// attempted-work ratio regress UPWARD; pairs/sec regresses DOWNWARD. A
// candidate outside tolerance in the bad direction is a regression;
// improvements are reported but never fail the gate. Score-only kernels
// additionally carry an absolute gate: `speedup_vs_full` (and
// `speedup_vs_full_matrix`) must be >= 1.0 in the candidate — a score-only
// fast path slower than the full-traceback kernel it replaces is a bug
// regardless of what the baseline said.
//
// Kernel rows match the baseline by name and, for rows that carry a
// `threads` field (one row per pool size), by thread count as well; such
// rows report as `kernel.<name>.t<threads>.<metric>`.
#pragma once

#include <string>
#include <vector>

#include "pclust/util/json.hpp"

namespace pclust::pipeline {

struct PerfDiffOptions {
  /// Allowed relative slowdown before a metric counts as a regression
  /// (0.15 == +-15 %).
  double tolerance = 0.15;
  /// Phases/kernels faster than this many seconds in the BASELINE are
  /// compared but never fail the gate (timer noise dominates).
  double min_seconds = 0.05;
};

struct PerfFinding {
  std::string metric;       ///< e.g. "phase.rr.seconds"
  double baseline = 0.0;
  double candidate = 0.0;
  /// candidate/baseline for higher-is-worse metrics, baseline/candidate
  /// for lower-is-worse — so ratio > 1 always means "worse".
  double ratio = 0.0;
  bool regression = false;
  std::string note;         ///< set on regressions and absolute-gate failures
};

struct PerfDiffResult {
  std::vector<PerfFinding> findings;

  [[nodiscard]] bool has_regression() const {
    for (const PerfFinding& f : findings) {
      if (f.regression) return true;
    }
    return false;
  }
};

/// Diff two parsed artifacts of the SAME kind (both run reports or both
/// kernel documents; the kind is auto-detected). Throws
/// std::invalid_argument when the kinds differ or neither is recognized.
[[nodiscard]] PerfDiffResult perf_diff(const util::JsonValue& baseline,
                                       const util::JsonValue& candidate,
                                       const PerfDiffOptions& options = {});

/// Render the findings table `pclust perf-diff` prints.
[[nodiscard]] std::string render_perf_diff(const PerfDiffResult& result);

}  // namespace pclust::pipeline
