// Shared pieces of the perfbench program: the workload options passed in
// by run.py, the pipeline configuration they select, and the family
// checks every solve must pass.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pclust/pipeline/pipeline.hpp"
#include "spans.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  /// The run's inputs (FASTA and ground-truth families, pairwise); solves
  /// cycle through them.
  std::vector<std::string> fastas;
  std::vector<std::string> truths;
  std::string work_dir;  // scratch space the benchmark owns
  unsigned threads = 1;  // 0 = every hardware thread
  /// Provenance capture, phase checkpoints, run report and ledger files.
  bool artifacts = false;
  /// Families of a threads=1 solve of each input (files written by
  /// `perfbench reference`, pairwise with fastas); every solve must match
  /// them byte for byte. Empty: no such check.
  std::vector<std::string> references;
  double seconds = 10.0;
  bool trace = false;
  double min_precision = 0.0;
  double min_sensitivity = 0.0;
  /// Test hook: perturb the family output before it is checked, as a
  /// program defect would; every solve must then count as failed.
  bool corrupt_families = false;
};

/// The workload's pipeline configuration (the library defaults plus the
/// thread count and, for artifact workloads, provenance and checkpoints
/// under @p checkpoint_dir).
[[nodiscard]] pclust::pipeline::PipelineConfig make_config(
    const Options& options, const std::string& checkpoint_dir);

/// Canonical text of a family list: members, mean degree and density as
/// exact hexadecimal floats, one family per line. Two family outputs are
/// byte-identical iff these strings are equal.
[[nodiscard]] std::string render_families(
    const std::vector<pclust::pipeline::Family>& families);

/// Move one member of the largest family into the second largest: the
/// defect the corrupt_families hook injects.
void corrupt(std::vector<pclust::pipeline::Family>& families);

/// Checks that hold for any correct family output of @p result: families
/// are disjoint, sorted, made of valid non-redundant ids, each inside one
/// CCD component, no smaller than @p min_size, listed by descending size,
/// and carry density == mean_degree / (size - 1). Appends one message per
/// violated rule to @p failures.
void check_families(const pclust::pipeline::PipelineResult& result,
                    std::size_t sequences, std::uint32_t min_size,
                    std::vector<std::string>& failures);

/// attempted + skipped == candidates for one phase's engine counters
/// (candidates = promising pairs minus duplicates).
void check_work_identity(const char* phase,
                         const pclust::pace::EngineCounters& counters,
                         std::vector<std::string>& failures);

/// What the traced rebuild measured that the untraced run cannot see.
struct TracedSolve {
  pclust::pipeline::PipelineResult result;
  // Suffix layer, RR and CCD summed.
  std::uint64_t pairs_emitted = 0;
  std::uint64_t nodes_visited = 0;
  std::uint64_t index_bytes = 0;  // larger of the two phases' indexes
  // Unique canonical pairs per phase (the alignment-work base).
  std::uint64_t rr_candidates = 0;
  std::uint64_t ccd_candidates = 0;
  std::uint64_t rr_promising = 0;
  std::uint64_t ccd_promising = 0;
  /// The suffix-layer rebuild yields the canonical pair stream exactly.
  bool enumeration_matches = true;
  // Alignment work on a sample of RR candidate jobs (the "align.scalar"
  // and "align.batch" spans time the two paths on it).
  std::uint64_t alignment_cells_sampled = 0;
  std::uint64_t lane_fallback_pairs = 0;
  bool batch_matches_scalar = true;
  // B_d construction work.
  std::uint64_t bgg_aligned_pairs = 0;
  std::uint64_t bgg_cells = 0;
  std::uint64_t bgg_edges = 0;
};

/// Rebuild pipeline::run on @p fasta from the public calls it makes, in
/// its order, with a span around each call. Spans go to @p recorder under
/// @p solve_id. Throws on any library error.
[[nodiscard]] TracedSolve traced_solve(const Options& options,
                                       const std::string& fasta,
                                       Recorder& recorder,
                                       std::uint64_t solve_id);

}  // namespace perfbench
