// End-to-end pipeline benchmark: run the full four-phase pipeline on the
// scaled 160K analog and emit the structured run report as
// BENCH_pipeline.json. The report path is the same one `pclust families
// --report-out` uses, so the perf trajectory records real phase times
// (timing.*), the alignment-work identity, and the full metrics-registry
// snapshot per PR. The pipeline runs three times and the report is the
// fastest run's: outputs and deterministic counters are identical across
// runs, and the minimum is the steadiest wall time on a shared host.
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "common.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/telemetry.hpp"

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  const synth::Dataset data = synth::generate(synth::paper_160k(kScale));
  pipeline::PipelineConfig config;
  config.pace = bench_pace_params();
  config.shingle = bench_shingle_params();
  config.min_component = config.shingle.min_size;

  // PCLUST_TELEMETRY_OUT streams telemetry during the bench — the overhead
  // gate in check.sh diffs this run's wall time against a plain run.
  const char* telemetry_out = std::getenv("PCLUST_TELEMETRY_OUT");
  if (telemetry_out && *telemetry_out) {
    util::telemetry::TelemetryConfig telemetry;
    telemetry.path = telemetry_out;
    telemetry.command = "bench_pipeline";
    if (const char* iv = std::getenv("PCLUST_TELEMETRY_INTERVAL");
        iv && *iv) {
      telemetry.interval = std::atof(iv);
    } else {
      telemetry.interval = 0.5;
    }
    util::telemetry::enable(telemetry);
  }

  constexpr int kRuns = 3;
  pipeline::PipelineResult result;
  double fastest = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRuns; ++i) {
    util::metrics().reset();
    pipeline::PipelineResult run = pipeline::run(data.sequences, config);
    const double seconds =
        run.rr_seconds + run.ccd_seconds + run.bgg_dsd_seconds;
    if (seconds >= fastest) continue;
    // The report snapshots the metrics registry, so write it before the
    // next run resets it.
    fastest = seconds;
    pipeline::write_report("BENCH_pipeline.json", run, config,
                           {"bench_pipeline", "synth:paper_160k-analog"});
    result = std::move(run);
  }
  if (telemetry_out && *telemetry_out) util::telemetry::disable();
  std::fprintf(stderr, "wrote BENCH_pipeline.json\n");
  std::printf(
      "pipeline bench: n=%zu  RR %.3fs  CCD %.3fs  BGG+DSD %.3fs  "
      "(%zu families, skip ratio see BENCH_pipeline.json)\n",
      result.input_sequences, result.rr_seconds, result.ccd_seconds,
      result.bgg_dsd_seconds, result.families.size());
  return 0;
}
