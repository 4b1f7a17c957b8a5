#include "pclust/pipeline/perfdiff.hpp"

#include <cstdio>
#include <stdexcept>

namespace pclust::pipeline {

namespace {

enum class Direction { kHigherIsWorse, kLowerIsWorse };

struct DiffContext {
  const PerfDiffOptions& options;
  PerfDiffResult result;

  /// Compare one metric present in both documents. @p gated false means
  /// "report but never fail" (noise-dominated metrics).
  void compare(const std::string& metric, double base, double cand,
               Direction dir, bool gated = true) {
    PerfFinding f;
    f.metric = metric;
    f.baseline = base;
    f.candidate = cand;
    if (dir == Direction::kHigherIsWorse) {
      f.ratio = base > 0.0 ? cand / base : (cand > 0.0 ? 1e9 : 1.0);
    } else {
      f.ratio = cand > 0.0 ? base / cand : (base > 0.0 ? 1e9 : 1.0);
    }
    if (gated && f.ratio > 1.0 + options.tolerance) {
      f.regression = true;
      char buf[96];
      std::snprintf(buf, sizeof buf, "%.1f%% worse (tolerance %.0f%%)",
                    100.0 * (f.ratio - 1.0), 100.0 * options.tolerance);
      f.note = buf;
    }
    result.findings.push_back(std::move(f));
  }

  /// Absolute candidate-side gate: @p value must be >= @p floor.
  void require_at_least(const std::string& metric, double value,
                        double floor, const char* why) {
    PerfFinding f;
    f.metric = metric;
    f.baseline = floor;
    f.candidate = value;
    f.ratio = value > 0.0 ? floor / value : 1e9;
    if (value < floor) {
      f.regression = true;
      f.note = why;
    }
    result.findings.push_back(std::move(f));
  }
};

double num_or(const util::JsonValue& obj, const char* key, double fallback) {
  const util::JsonValue* v = obj.find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

/// The baseline row for a candidate row: same name and, when the row
/// carries a thread count (one row per pool size), the same thread count.
const util::JsonValue* find_kernel(const util::JsonValue& doc,
                                   const std::string& name,
                                   const util::JsonValue* threads) {
  for (const util::JsonValue& k : doc.at("kernels").array) {
    const util::JsonValue* n = k.find("name");
    if (!n || !n->is_string() || n->as_string() != name) continue;
    const util::JsonValue* t = k.find("threads");
    if (!threads || (t && t->as_number() == threads->as_number())) return &k;
  }
  return nullptr;
}

bool is_kernel_doc(const util::JsonValue& doc) {
  const util::JsonValue* kernels = doc.find("kernels");
  return kernels != nullptr && kernels->is_array();
}

bool is_run_report(const util::JsonValue& doc) {
  const util::JsonValue* schema = doc.find("schema");
  return schema != nullptr && schema->is_string() &&
         schema->as_string() == "pclust-run-report";
}

bool is_hierarchy_doc(const util::JsonValue& doc) {
  const util::JsonValue* schema = doc.find("schema");
  return schema != nullptr && schema->is_string() &&
         schema->as_string() == "pclust-hierarchy-bench";
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

void diff_kernels(const util::JsonValue& baseline,
                  const util::JsonValue& candidate, DiffContext& ctx) {
  for (const util::JsonValue& cand : candidate.at("kernels").array) {
    const std::string& name = cand.at("name").as_string();
    const util::JsonValue* threads = cand.find("threads");
    std::string prefix = "kernel." + name + ".";
    if (threads) {
      prefix += "t" + std::to_string(static_cast<int>(threads->as_number())) +
                ".";
    }

    // Absolute gates first: a score-only variant slower than the full
    // kernel is broken whatever the baseline recorded.
    if (ends_with(name, "_score_only")) {
      for (const char* key : {"speedup_vs_full", "speedup_vs_full_matrix",
                              "speedup_vs_banded_full"}) {
        if (const util::JsonValue* v = cand.find(key); v && v->is_number()) {
          ctx.require_at_least(
              prefix + key, v->as_number(), 1.0,
              "score-only fast path must beat the full-traceback kernel");
        }
      }
    }
    // Likewise a SIMD lane batch slower than feeding the scalar engine one
    // pair at a time: the batch path would then be pure overhead and the
    // dispatcher should have stayed scalar.
    if (name.rfind("batch_align_", 0) == 0 && !ends_with(name, "_scalar")) {
      if (const util::JsonValue* v = cand.find("speedup_vs_scalar_single");
          v && v->is_number()) {
        ctx.require_at_least(
            prefix + "speedup_vs_scalar_single", v->as_number(), 1.0,
            "batched SIMD lanes must beat the single-pair scalar engine");
      }
    }

    const util::JsonValue* base = find_kernel(baseline, name, threads);
    if (!base) continue;  // new kernel: gates above still apply
    const bool gate_time =
        num_or(*base, "seconds",
               ctx.options.min_seconds) >= ctx.options.min_seconds;
    if (const util::JsonValue* v = cand.find("ns_per_cell");
        v && base->find("ns_per_cell")) {
      ctx.compare(prefix + "ns_per_cell", base->at("ns_per_cell").as_number(),
                  v->as_number(), Direction::kHigherIsWorse);
    }
    if (const util::JsonValue* v = cand.find("pairs_per_sec");
        v && base->find("pairs_per_sec")) {
      ctx.compare(prefix + "pairs_per_sec",
                  base->at("pairs_per_sec").as_number(), v->as_number(),
                  Direction::kLowerIsWorse);
    }
    if (const util::JsonValue* v = cand.find("seconds");
        v && base->find("seconds")) {
      ctx.compare(prefix + "seconds", base->at("seconds").as_number(),
                  v->as_number(), Direction::kHigherIsWorse, gate_time);
    }
  }
}

void diff_reports(const util::JsonValue& baseline,
                  const util::JsonValue& candidate, DiffContext& ctx) {
  // Phase wall times.
  for (const util::JsonValue& base_phase : baseline.at("phases").array) {
    const std::string& name = base_phase.at("name").as_string();
    const util::JsonValue* cand_phase = nullptr;
    for (const util::JsonValue& p : candidate.at("phases").array) {
      if (p.at("name").as_string() == name) {
        cand_phase = &p;
        break;
      }
    }
    if (!cand_phase) continue;
    const double base_s = base_phase.at("seconds").as_number();
    const double cand_s = cand_phase->at("seconds").as_number();
    // Sub-threshold phases are timer noise: report, never gate.
    ctx.compare("phase." + name + ".seconds", base_s, cand_s,
                Direction::kHigherIsWorse, base_s >= ctx.options.min_seconds);
  }

  // Alignment-work ratio: the cluster filter's effectiveness. Gate on the
  // fraction of candidate pairs actually aligned (1 - skip_ratio) growing,
  // which is the direction that destroys the paper's >99.9 % claim.
  const double base_work =
      1.0 - baseline.at("alignment").at("skip_ratio").as_number();
  const double cand_work =
      1.0 - candidate.at("alignment").at("skip_ratio").as_number();
  ctx.compare("alignment.attempted_work_ratio", base_work, cand_work,
              Direction::kHigherIsWorse);

  // Memory peaks (absent in pre-memory-section reports: skip silently).
  const util::JsonValue* base_mem = baseline.find("memory");
  const util::JsonValue* cand_mem = candidate.find("memory");
  if (base_mem && cand_mem) {
    const double base_rss = num_or(*base_mem, "rss_peak_bytes", 0.0);
    const double cand_rss = num_or(*cand_mem, "rss_peak_bytes", 0.0);
    if (base_rss > 0.0 && cand_rss > 0.0) {
      ctx.compare("memory.rss_peak_bytes", base_rss, cand_rss,
                  Direction::kHigherIsWorse);
    }
    const util::JsonValue* base_st = base_mem->find("structures");
    const util::JsonValue* cand_st = cand_mem->find("structures");
    if (base_st && cand_st && base_st->is_object() && cand_st->is_object()) {
      for (const auto& [name, st] : base_st->object) {
        const util::JsonValue* cand = cand_st->find(name);
        if (!cand) continue;
        ctx.compare("memory." + name + ".peak_total_bytes",
                    st.at("peak_total_bytes").as_number(),
                    cand->at("peak_total_bytes").as_number(),
                    Direction::kHigherIsWorse);
      }
    }
  }
}

const util::JsonValue* find_hierarchy_row(const util::JsonValue& doc, int p,
                                          int masters) {
  for (const util::JsonValue& row : doc.at("rows").array) {
    if (static_cast<int>(row.at("p").as_number()) == p &&
        static_cast<int>(row.at("masters").as_number()) == masters) {
      return &row;
    }
  }
  return nullptr;
}

void diff_hierarchy(const util::JsonValue& baseline,
                    const util::JsonValue& candidate, DiffContext& ctx) {
  // Hierarchy-bench rows carry VIRTUAL seconds — pure functions of workload
  // and machine model, bit-stable across hosts — so unlike wall-clock rows
  // every comparison here is meaningfully gated.
  for (const util::JsonValue& cand : candidate.at("rows").array) {
    const int p = static_cast<int>(cand.at("p").as_number());
    const int masters = static_cast<int>(cand.at("masters").as_number());
    char label[64];
    std::snprintf(label, sizeof label, "hierarchy.p%d.m%d.", p, masters);
    const std::string prefix = label;

    // Absolute gates: the master tree must never be slower than the flat
    // protocol it replaces, and a wide-enough tree must clear the
    // analyzer's master-saturation verdict (the whole point of the tier).
    if (masters > 1) {
      ctx.require_at_least(
          prefix + "speedup_vs_flat_floor",
          cand.at("speedup_vs_flat").as_number(), 1.0,
          "the sub-master tree must not run slower than the flat master");
    }
    if (masters >= 4) {
      ctx.require_at_least(
          prefix + "saturation_clear",
          cand.at("saturated").bool_value ? 0.0 : 1.0, 1.0,
          "masters >= 4 must clear the master-saturation verdict");
    }

    const util::JsonValue* base = find_hierarchy_row(baseline, p, masters);
    if (!base) continue;  // new configuration: absolute gates still apply
    ctx.compare(prefix + "ccd_virtual_seconds",
                base->at("ccd_virtual_seconds").as_number(),
                cand.at("ccd_virtual_seconds").as_number(),
                Direction::kHigherIsWorse);
    if (masters > 1) {
      ctx.compare(prefix + "speedup_vs_flat",
                  base->at("speedup_vs_flat").as_number(),
                  cand.at("speedup_vs_flat").as_number(),
                  Direction::kLowerIsWorse);
    }
  }
}

}  // namespace

PerfDiffResult perf_diff(const util::JsonValue& baseline,
                         const util::JsonValue& candidate,
                         const PerfDiffOptions& options) {
  DiffContext ctx{options, {}};
  if (is_run_report(baseline) && is_run_report(candidate)) {
    diff_reports(baseline, candidate, ctx);
  } else if (is_hierarchy_doc(baseline) && is_hierarchy_doc(candidate)) {
    diff_hierarchy(baseline, candidate, ctx);
  } else if (is_kernel_doc(baseline) && is_kernel_doc(candidate)) {
    diff_kernels(baseline, candidate, ctx);
  } else {
    throw std::invalid_argument(
        "perf-diff: baseline and candidate must both be run reports "
        "(pclust-run-report), both hierarchy benches "
        "(pclust-hierarchy-bench), or both kernel documents (kernels "
        "array)");
  }
  return ctx.result;
}

std::string render_perf_diff(const PerfDiffResult& result) {
  std::string out;
  char line[256];
  std::snprintf(line, sizeof line, "%-44s %14s %14s %8s\n", "metric",
                "baseline", "candidate", "ratio");
  out += line;
  for (const PerfFinding& f : result.findings) {
    std::snprintf(line, sizeof line, "%-44s %14.6g %14.6g %7.2fx%s%s\n",
                  f.metric.c_str(), f.baseline, f.candidate, f.ratio,
                  f.regression ? "  REGRESSION: " : "",
                  f.regression ? f.note.c_str() : "");
    out += line;
  }
  std::size_t regressions = 0;
  for (const PerfFinding& f : result.findings) {
    if (f.regression) ++regressions;
  }
  out += result.has_regression()
             ? "perf-diff: " + std::to_string(regressions) + " of " +
                   std::to_string(result.findings.size()) +
                   " metrics regressed\n"
             : "perf-diff: " + std::to_string(result.findings.size()) +
                   " metrics within tolerance\n";
  return out;
}

}  // namespace pclust::pipeline
