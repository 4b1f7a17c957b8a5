#include "pclust/pipeline/perfdiff.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "pclust/util/json.hpp"

namespace pclust::pipeline {
namespace {

util::JsonValue kernels_doc(double score_ns, double speedup) {
  return util::parse_json(R"({"kernels": [
    {"name": "local_align_full", "ns_per_cell": 10.0, "pairs_per_sec": 2000.0},
    {"name": "local_align_score_only", "ns_per_cell": )" +
                          std::to_string(score_ns) +
                          R"(, "pairs_per_sec": 4000.0,
     "speedup_vs_full": )" +
                          std::to_string(speedup) + R"(}
  ]})");
}

util::JsonValue report_doc(double rr_seconds, double skip_ratio,
                           double rss_peak) {
  return util::parse_json(R"({
    "schema": "pclust-run-report",
    "phases": [
      {"name": "rr", "seconds": )" +
                          std::to_string(rr_seconds) + R"(},
      {"name": "blip", "seconds": 0.001}
    ],
    "alignment": {"skip_ratio": )" +
                          std::to_string(skip_ratio) + R"(},
    "memory": {
      "rss_peak_bytes": )" +
                          std::to_string(rss_peak) + R"(,
      "structures": {
        "suffix_index": {"peak_total_bytes": 1000000}
      }
    }
  })");
}

bool metric_regressed(const PerfDiffResult& r, const std::string& metric) {
  for (const PerfFinding& f : r.findings) {
    if (f.metric == metric) return f.regression;
  }
  ADD_FAILURE() << "metric not found: " << metric;
  return false;
}

TEST(PerfDiff, SelfComparisonPasses) {
  const util::JsonValue doc = kernels_doc(5.0, 2.0);
  const PerfDiffResult r = perf_diff(doc, doc);
  EXPECT_FALSE(r.has_regression());
  EXPECT_FALSE(r.findings.empty());

  const util::JsonValue rep = report_doc(10.0, 0.999, 1e9);
  EXPECT_FALSE(perf_diff(rep, rep).has_regression());
}

TEST(PerfDiff, TwoXKernelSlowdownFails) {
  const PerfDiffResult r =
      perf_diff(kernels_doc(5.0, 2.0), kernels_doc(10.0, 2.0));
  EXPECT_TRUE(r.has_regression());
  EXPECT_TRUE(
      metric_regressed(r, "kernel.local_align_score_only.ns_per_cell"));
}

TEST(PerfDiff, WithinToleranceIsNotARegression) {
  PerfDiffOptions opts;
  opts.tolerance = 0.15;
  EXPECT_FALSE(perf_diff(kernels_doc(5.0, 2.0), kernels_doc(5.5, 2.0), opts)
                   .has_regression());
  // The same +10 % trips a tighter gate.
  opts.tolerance = 0.05;
  EXPECT_TRUE(perf_diff(kernels_doc(5.0, 2.0), kernels_doc(5.5, 2.0), opts)
                  .has_regression());
}

TEST(PerfDiff, KernelRowsMatchOnThreadCount) {
  // bench_kernels writes one pooled row per thread count; a row is diffed
  // only against the baseline row of the same thread count.
  const util::JsonValue base = util::parse_json(R"({"kernels": [
    {"name": "ccd_bruteforce_pooled", "threads": 2, "seconds": 2.0,
     "pairs_per_sec": 10000.0}
  ]})");
  const util::JsonValue cand = util::parse_json(R"({"kernels": [
    {"name": "ccd_bruteforce_pooled", "threads": 2, "seconds": 2.0,
     "pairs_per_sec": 10000.0},
    {"name": "ccd_bruteforce_pooled", "threads": 4, "seconds": 5.0,
     "pairs_per_sec": 4000.0}
  ]})");
  const PerfDiffResult r = perf_diff(base, cand);
  EXPECT_FALSE(r.has_regression());
  EXPECT_FALSE(metric_regressed(r, "kernel.ccd_bruteforce_pooled.t2.seconds"));
  for (const PerfFinding& f : r.findings) {
    EXPECT_EQ(f.metric.find(".t4."), std::string::npos) << f.metric;
  }
}

TEST(PerfDiff, ScoreOnlyKernelMustBeatFullMatrixAbsolutely) {
  // Even when the BASELINE itself recorded the anomaly, a candidate with
  // speedup_vs_full < 1.0 must fail: the absolute gate is candidate-side.
  const PerfDiffResult r =
      perf_diff(kernels_doc(20.0, 0.89), kernels_doc(20.0, 0.89));
  EXPECT_TRUE(r.has_regression());
  EXPECT_TRUE(metric_regressed(
      r, "kernel.local_align_score_only.speedup_vs_full"));
  // At or above 1.0 the gate is satisfied.
  EXPECT_FALSE(perf_diff(kernels_doc(9.0, 1.0), kernels_doc(9.0, 1.0))
                   .has_regression());
}

TEST(PerfDiff, ReportPhaseSlowdownAndMemoryGrowthFail) {
  const util::JsonValue base = report_doc(10.0, 0.999, 1e9);
  EXPECT_TRUE(metric_regressed(
      perf_diff(base, report_doc(20.0, 0.999, 1e9)), "phase.rr.seconds"));
  EXPECT_TRUE(metric_regressed(perf_diff(base, report_doc(10.0, 0.999, 3e9)),
                               "memory.rss_peak_bytes"));
  // Skip ratio falling from 99.9 % to 99 % means 10x the aligned work.
  EXPECT_TRUE(
      metric_regressed(perf_diff(base, report_doc(10.0, 0.99, 1e9)),
                       "alignment.attempted_work_ratio"));
}

TEST(PerfDiff, SubThresholdPhasesNeverGate) {
  // "blip" is 1 ms in the baseline: a 100x swing is timer noise, reported
  // but not a regression.
  const util::JsonValue base = report_doc(10.0, 0.999, 1e9);
  const util::JsonValue noisy = util::parse_json(R"({
    "schema": "pclust-run-report",
    "phases": [
      {"name": "rr", "seconds": 10.0},
      {"name": "blip", "seconds": 0.1}
    ],
    "alignment": {"skip_ratio": 0.999},
    "memory": {"rss_peak_bytes": 1e9,
               "structures": {"suffix_index": {"peak_total_bytes": 1000000}}}
  })");
  const PerfDiffResult r = perf_diff(base, noisy);
  EXPECT_FALSE(metric_regressed(r, "phase.blip.seconds"));
  EXPECT_FALSE(r.has_regression());
}

TEST(PerfDiff, MismatchedDocumentKindsThrow) {
  const util::JsonValue kernels = kernels_doc(5.0, 2.0);
  const util::JsonValue report = report_doc(10.0, 0.999, 1e9);
  EXPECT_THROW(perf_diff(kernels, report), std::invalid_argument);
  EXPECT_THROW(perf_diff(report, kernels), std::invalid_argument);
  const util::JsonValue junk = util::parse_json(R"({"hello": 1})");
  EXPECT_THROW(perf_diff(junk, junk), std::invalid_argument);
}

TEST(PerfDiff, RatioNormalizationMakesWorseAlwaysAboveOne) {
  // pairs_per_sec is lower-is-worse: halving it must produce ratio 2.
  const util::JsonValue base = util::parse_json(
      R"({"kernels": [{"name": "k", "pairs_per_sec": 4000.0}]})");
  const util::JsonValue cand = util::parse_json(
      R"({"kernels": [{"name": "k", "pairs_per_sec": 2000.0}]})");
  const PerfDiffResult r = perf_diff(base, cand);
  ASSERT_EQ(r.findings.size(), 1u);
  EXPECT_DOUBLE_EQ(r.findings[0].ratio, 2.0);
  EXPECT_TRUE(r.findings[0].regression);
}

util::JsonValue hierarchy_doc(double flat_seconds, double tree_seconds,
                              bool tree_saturated) {
  const double speedup = flat_seconds / tree_seconds;
  return util::parse_json(R"({
    "schema": "pclust-hierarchy-bench",
    "rows": [
      {"p": 1024, "masters": 1, "ccd_virtual_seconds": )" +
                          std::to_string(flat_seconds) +
                          R"(, "speedup_vs_flat": 1.0, "saturated": true},
      {"p": 1024, "masters": 4, "ccd_virtual_seconds": )" +
                          std::to_string(tree_seconds) +
                          R"(, "speedup_vs_flat": )" +
                          std::to_string(speedup) + R"(,
       "saturated": )" + (tree_saturated ? "true" : "false") + R"(}
    ]})");
}

TEST(PerfDiff, HierarchySelfComparisonPasses) {
  const util::JsonValue doc = hierarchy_doc(2.4, 1.1, false);
  const PerfDiffResult r = perf_diff(doc, doc);
  EXPECT_FALSE(r.has_regression());
}

TEST(PerfDiff, HierarchySpeedupRegressionFails) {
  // The tree's virtual makespan doubling (speedup 2.2x -> 1.0x) must gate.
  const PerfDiffResult r =
      perf_diff(hierarchy_doc(2.4, 1.1, false), hierarchy_doc(2.4, 2.3, false));
  EXPECT_TRUE(r.has_regression());
  EXPECT_TRUE(metric_regressed(r, "hierarchy.p1024.m4.ccd_virtual_seconds"));
  EXPECT_TRUE(metric_regressed(r, "hierarchy.p1024.m4.speedup_vs_flat"));
}

TEST(PerfDiff, HierarchyTreeSlowerThanFlatFailsAbsolutely) {
  // speedup_vs_flat < 1 is rejected even with no matching baseline row:
  // the sub-master tier must be a pure optimization.
  const util::JsonValue cand = hierarchy_doc(2.4, 2.6, false);
  const PerfDiffResult r = perf_diff(hierarchy_doc(9.9, 9.8, false), cand);
  EXPECT_TRUE(metric_regressed(r, "hierarchy.p1024.m4.speedup_vs_flat_floor"));
}

TEST(PerfDiff, HierarchySaturatedWideTreeFails) {
  const PerfDiffResult r =
      perf_diff(hierarchy_doc(2.4, 1.1, false), hierarchy_doc(2.4, 1.1, true));
  EXPECT_TRUE(metric_regressed(r, "hierarchy.p1024.m4.saturation_clear"));
}

TEST(PerfDiff, HierarchyAndReportDocsDoNotMix) {
  EXPECT_THROW(
      perf_diff(hierarchy_doc(2.4, 1.1, false), report_doc(10.0, 0.999, 1e9)),
      std::invalid_argument);
}

TEST(PerfDiff, RenderListsEveryFinding) {
  const PerfDiffResult r =
      perf_diff(kernels_doc(5.0, 2.0), kernels_doc(10.0, 2.0));
  const std::string text = render_perf_diff(r);
  EXPECT_NE(text.find("kernel.local_align_score_only.ns_per_cell"),
            std::string::npos);
  EXPECT_NE(text.find("REGRESSION"), std::string::npos);
}

}  // namespace
}  // namespace pclust::pipeline
