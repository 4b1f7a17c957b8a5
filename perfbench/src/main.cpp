// perfbench: the pclust time-to-families benchmark program.
//
//   perfbench generate --preset orf|domain --n N --seed S --fasta F --truth T
//       Writes the synthetic workload input (FASTA) and its ground-truth
//       families. Runs in its own process so that generation memory never
//       counts toward the measured peak RSS.
//
//   perfbench reference --fasta F --out R
//       Solves F at threads=1 with the default configuration and writes
//       its families (render_families) to R: the serial reference that a
//       parallel workload's families must equal.
//
//   perfbench run --workload W --fasta F1,F2,.. --truth T1,T2,.. --work-dir D
//                 --threads T --artifacts 0|1 [--reference R1,R2,..]
//                 --seconds S --trace 0|1 --min-precision P
//                 --min-sensitivity Q [--corrupt-families 1]
//       Solves the inputs in turn for S seconds (untraced: at least once
//       each, after one untimed warm-up solve) and prints, as the last
//       line of stdout, {"correct", "attempted", "failed", "metrics"}: the
//       end-to-end metrics with --trace 0, the per-layer metrics with
//       --trace 1. Every solve is checked; a solve that throws or fails a
//       check counts in "failed".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/quality/cluster_io.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/synth/presets.hpp"
#include "pclust/util/json.hpp"
#include "pclust/util/log.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/timer.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace fs = std::filesystem;
using namespace pclust;

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must list exactly the metrics named in BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},          {"solve_s", "s"},
    {"seqs_per_s", "1/s"},     {"peak_rss_mb", "MiB"},
    {"precision", "ratio"},    {"pass_ratio", "ratio"},
};

constexpr MetricDef kPerLayer[] = {
    {"pipeline.rr_s", "s"},
    {"pipeline.ccd_s", "s"},
    {"pipeline.bgg_dsd_s", "s"},
    {"pipeline.other_s", "s"},
    {"suffix.index_s", "s"},
    {"suffix.enumerate_s", "s"},
    {"suffix.pairs_emitted", "count"},
    {"suffix.nodes_visited", "count"},
    {"suffix.index_bytes", "bytes"},
    {"rr.phase_s", "s"},
    {"rr.candidates_s", "s"},
    {"rr.promising_pairs", "count"},
    {"rr.candidate_pairs", "count"},
    {"rr.attempted", "count"},
    {"rr.skip_ratio", "ratio"},
    {"rr.removal_yield", "ratio"},
    {"ccd.phase_s", "s"},
    {"ccd.candidates_s", "s"},
    {"ccd.promising_pairs", "count"},
    {"ccd.candidate_pairs", "count"},
    {"ccd.attempted", "count"},
    {"ccd.skip_ratio", "ratio"},
    {"ccd.merge_yield", "ratio"},
    {"align.attempted_pairs", "count"},
    {"align.batches", "count"},
    {"align.batch_fill_mean", "lanes"},
    {"align.lane_fallback_pairs", "count"},
    {"align.scalar_ns_per_cell", "ns/cell"},
    {"align.batch_ns_per_cell", "ns/cell"},
    {"bigraph.build_s", "s"},
    {"bigraph.max_component_s", "s"},
    {"bigraph.aligned_pairs", "count"},
    {"bigraph.cells", "count"},
    {"bigraph.edges", "count"},
    {"shingle.pass_s", "s"},
    {"shingle.max_graph_s", "s"},
    {"shingle.tuples", "count"},
    {"shingle.first_level", "count"},
    {"shingle.second_level", "count"},
    {"mem.rr_suffix_index_bytes", "bytes"},
    {"mem.ccd_suffix_index_bytes", "bytes"},
    {"mem.ccd_union_find_bytes", "bytes"},
    {"mem.bgg_graph_bytes", "bytes"},
    {"mem.dsd_shingle_bytes", "bytes"},
    {"prov.derive_s", "s"},
    {"prov.edges", "count"},
    {"prov.ccd_replay_alignments", "count"},
    {"io.bytes_committed", "bytes"},
    {"checkpoint.bytes_written", "bytes"},
    {"exec.parallel_jobs", "count"},
    {"quality.sensitivity", "ratio"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

/// Registry gauges behind the mem.* metrics (peak of each structure).
const std::map<std::string, std::string> kMemGauges = {
    {"mem.rr_suffix_index_bytes", "mem.rr.suffix_index.total"},
    {"mem.ccd_suffix_index_bytes", "mem.ccd.suffix_index.total"},
    {"mem.ccd_union_find_bytes", "mem.ccd.union_find.total"},
    {"mem.bgg_graph_bytes", "mem.bgg.bigraph.total"},
    {"mem.dsd_shingle_bytes", "mem.dsd.shingle.total"},
};

/// FASTA loads per solve; setup_s is the median over all of a run's loads
/// (one load takes about a millisecond, too short to time alone).
constexpr int kSetupRepeats = 20;

/// Spans that group layer calls rather than time a layer themselves.
const char* const kGroupingSpans[] = {"solve", "rr", "ccd", "bgg_dsd"};

using Sample = std::map<std::string, double>;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Per-key median over samples (a key missing from a sample is skipped).
Sample median_of(const std::vector<Sample>& samples) {
  std::map<std::string, std::vector<double>> by_key;
  for (const Sample& s : samples) {
    for (const auto& [k, v] : s) by_key[k].push_back(v);
  }
  Sample out;
  for (auto& [k, v] : by_key) out[k] = median(std::move(v));
  return out;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void write_host(util::JsonWriter& w) {
  w.begin_object()
      .key("cpu_model").value(cpu_model())
      .key("simd_isa").value(align::isa_name(align::current_isa()))
      .key("nproc").value(std::thread::hardware_concurrency())
      .key("build_type").value(PERFBENCH_BUILD_TYPE)
      .key("compiler").value(compiler())
      .end_object();
}

/// One of the run's inputs and what its checks compare against.
struct Input {
  std::string fasta;
  std::size_t sequences = 0;
  quality::Clustering truth;
  std::string reference;  // threads=1 families, when the workload asks
  std::uint64_t peak_rss_bytes = 0;  // largest over this input's solves
  std::vector<double> solve_s;       // every passed untraced solve
};

/// One untimed-checked, timed solve through pipeline::run.
struct Solve {
  std::vector<double> setup_s;  // one entry per FASTA load
  double solve_s = 0.0;
  std::uint64_t peak_rss_bytes = 0;  // during setup and solve
  pipeline::PipelineResult result;
  util::MetricsSnapshot snapshot;
  quality::Metrics quality;
};

class Runner {
 public:
  explicit Runner(const Options& options)
      : options_(options), dir_(options.work_dir) {
    fs::create_directories(dir_);
    if (options_.fastas.empty() ||
        options_.fastas.size() != options_.truths.size() ||
        (!options_.references.empty() &&
         options_.references.size() != options_.fastas.size())) {
      throw std::invalid_argument("--fasta, --truth and --reference need "
                                  "one path each per input");
    }
    for (std::size_t i = 0; i < options_.fastas.size(); ++i) {
      Input input;
      input.fasta = options_.fastas[i];
      seq::SequenceSet set;
      seq::read_fasta_file(input.fasta, set);
      input.sequences = set.size();
      input.truth = quality::read_clustering_file(options_.truths[i], set);
      if (!options_.references.empty()) {
        input.reference = read_file(options_.references[i]);
      }
      inputs_.push_back(std::move(input));
    }
  }

  /// Solve for the configured window; returns the result document.
  std::string run() {
    std::vector<Sample> samples;
    std::vector<double> setups;
    util::Timer window;
    std::uint64_t solve_id = 0;
    if (!options_.trace) warm_up();
    do {
      Input& input = inputs_[solve_id % inputs_.size()];
      ++solve_id;
      Solve solve;
      const bool solved = attempt([&](std::vector<std::string>& failures) {
        solve = solve_once(input, failures);
      });
      if (!solved) continue;
      setups.insert(setups.end(), solve.setup_s.begin(), solve.setup_s.end());
      solve_times_.push_back(solve.solve_s);
      input.solve_s.push_back(solve.solve_s);
      input.peak_rss_bytes =
          std::max(input.peak_rss_bytes, solve.peak_rss_bytes);
      if (!options_.trace) {
        samples.push_back({{"precision", solve.quality.precision}});
        continue;
      }
      attempt([&](std::vector<std::string>& failures) {
        const TracedSolve traced =
            traced_solve(options_, input.fasta, recorder_, solve_id);
        check_traced(solve, traced, failures);
        samples.push_back(per_layer(solve, traced, solve_id));
      });
      // An untraced run solves every input at least once, so that its
      // figures always cover the same mix of inputs.
    } while (window.elapsed_seconds() < options_.seconds ||
             (!options_.trace && solve_id < inputs_.size()));

    Sample metrics = median_of(samples);
    if (!options_.trace) {
      // solve_s is the mean over the inputs of each input's median solve:
      // the median absorbs one-off host stalls, the mean over several
      // inputs the cost differences between one seed's inputs and another's.
      double sequences = 0.0;
      double seconds = 0.0;
      double peak_bytes = 0.0;
      std::size_t solved = 0;
      for (const Input& input : inputs_) {
        if (input.solve_s.empty()) continue;
        sequences += static_cast<double>(input.sequences);
        seconds += median(input.solve_s);
        ++solved;
        peak_bytes += static_cast<double>(input.peak_rss_bytes);
      }
      metrics["solve_s"] = ratio(seconds, static_cast<double>(solved));
      metrics["setup_s"] = median(setups);
      metrics["seqs_per_s"] = ratio(sequences, seconds);
      metrics["peak_rss_mb"] =
          ratio(peak_bytes, static_cast<double>(solved)) / (1024.0 * 1024.0);
      metrics["pass_ratio"] =
          ratio(static_cast<double>(attempted_ - failed_),
                static_cast<double>(attempted_));
    } else {
      std::ofstream(dir_ / (options_.workload + ".trace.json"))
          << recorder_.chrome_json();
    }
    return result_json(metrics);
  }

  /// The result plus host fingerprint, failures and per-layer self times,
  /// written next to the spans.
  void write_record(const std::string& result) const {
    util::JsonWriter w;
    w.begin_object().key("workload").value(options_.workload);
    w.key("host");
    write_host(w);
    w.key("result").raw(result);
    w.key("solve_s_each").begin_array();
    for (const double t : solve_times_) w.value(t);
    w.end_array();
    w.key("failures").begin_array();
    for (const std::string& f : failures_) w.value(f);
    w.end_array();
    w.key("self_seconds").begin_object();
    const std::vector<Span>& spans = recorder_.spans();
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      self[spans[i].name] += recorder_.self_seconds(static_cast<int>(i));
    }
    for (const auto& [name, seconds] : self) w.key(name).value(seconds);
    w.end_object().end_object();
    std::ofstream(dir_ / (options_.workload + (options_.trace ? ".trace1"
                                                               : ".trace0") +
                          ".result.json"))
        << w.str() << '\n';
  }

 private:
  /// One untimed, uncounted solve, so that the first timed solve does not
  /// also pay for faulting in the allocator's arenas and the code. Its
  /// failures (if any) show again in the timed solves.
  void warm_up() {
    std::vector<std::string> ignored;
    try {
      (void)solve_once(inputs_.front(), ignored);
    } catch (const std::exception&) {
    }
  }

  /// Run one solve; a throw or any failed check marks it failed.
  template <typename F>
  bool attempt(F&& body) {
    ++attempted_;
    std::vector<std::string> failures;
    try {
      body(failures);
    } catch (const std::exception& err) {
      failures.push_back(std::string("threw: ") + err.what());
    }
    if (failures.empty()) return true;
    ++failed_;
    for (const std::string& f : failures) {
      std::fprintf(stderr, "perfbench: %s: solve %llu: %s\n",
                   options_.workload.c_str(),
                   static_cast<unsigned long long>(attempted_), f.c_str());
      if (failures_.size() < 64) failures_.push_back(f);
    }
    return false;
  }

  Solve solve_once(const Input& input, std::vector<std::string>& failures) {
    Solve s;
    // Restart the kernel's peak-RSS mark so that peak_rss_mb covers setup
    // and solve only, not input generation or the checks below.
    std::ofstream("/proc/self/clear_refs") << "5";
    seq::SequenceSet set;
    for (int r = 0; r < kSetupRepeats; ++r) {
      util::Timer timer;
      seq::SequenceSet loaded;
      seq::read_fasta_file(input.fasta, loaded);
      s.setup_s.push_back(timer.elapsed_seconds());
      set = std::move(loaded);
    }

    const fs::path ckpt = dir_ / "checkpoints";
    const fs::path report_path = dir_ / "report.json";
    const fs::path ledger_path = dir_ / "provenance.jsonl";
    fs::remove_all(ckpt);
    const pipeline::PipelineConfig config =
        make_config(options_, ckpt.string());
    const pipeline::ReportInfo info{"perfbench", input.fasta,
                                    options_.artifacts ? ledger_path.string()
                                                       : ""};
    util::metrics().reset();
    util::Timer timer;
    s.result = pipeline::run(set, config);
    if (options_.artifacts) {
      prov::write_ledger(ledger_path.string(), s.result.provenance);
      pipeline::write_report(report_path, s.result, config, info);
    }
    s.solve_s = timer.elapsed_seconds();
    s.peak_rss_bytes = util::peak_rss_bytes();
    s.snapshot = util::metrics().snapshot();

    // Everything below is untimed checking.
    if (options_.corrupt_families) corrupt(s.result.families);
    check_families(s.result, set.size(), config.shingle.min_size, failures);
    check_work_identity("rr", s.result.rr.counters, failures);
    check_work_identity("ccd", s.result.ccd.counters, failures);
    std::string report_text;
    if (options_.artifacts) {
      report_text = read_file(report_path);
      if (!s.result.provenance.counts.identity_holds()) {
        failures.push_back("provenance ledger: complete=no");
      }
    } else {
      report_text = pipeline::render_report(s.result, config, info);
    }
    std::string why;
    if (!pipeline::validate_report(util::parse_json(report_text), &why)) {
      failures.push_back("validate_report: " + why);
    }
    if (!options_.references.empty() &&
        render_families(s.result.families) != input.reference) {
      failures.push_back("families differ from the threads=1 solve");
    }
    s.quality = quality::compare_clusterings(s.result.family_clustering(),
                                             input.truth);
    if (s.quality.precision < options_.min_precision) {
      failures.push_back("precision below floor");
    }
    if (s.quality.sensitivity < options_.min_sensitivity) {
      failures.push_back("sensitivity below floor");
    }
    return s;
  }

  void check_traced(const Solve& s, const TracedSolve& t,
                    std::vector<std::string>& failures) const {
    if (render_families(t.result.families) !=
        render_families(s.result.families)) {
      failures.push_back("traced families differ from pipeline::run");
    }
    if (options_.artifacts &&
        prov::render_ledger(t.result.provenance) !=
            prov::render_ledger(s.result.provenance)) {
      failures.push_back("traced provenance differs from pipeline::run");
    }
    if (!t.enumeration_matches) {
      failures.push_back("suffix enumeration differs from canonical_pairs");
    }
    if (!t.batch_matches_scalar) {
      failures.push_back("batched alignment differs from scalar");
    }
    const auto identity = [&](const char* phase,
                              const pace::EngineCounters& c,
                              std::uint64_t promising,
                              std::uint64_t candidates) {
      if (c.promising_pairs != promising ||
          c.aligned_pairs + c.filtered_pairs != candidates) {
        failures.push_back(std::string(phase) +
                           ": attempted + skipped != unique canonical pairs");
      }
    };
    identity("rr", s.result.rr.counters, t.rr_promising, t.rr_candidates);
    identity("ccd", s.result.ccd.counters, t.ccd_promising, t.ccd_candidates);
  }

  Sample per_layer(const Solve& s, const TracedSolve& t,
                   std::uint64_t solve_id) const {
    const std::map<std::string, LayerTotals> layers =
        layer_totals(recorder_, solve_id);
    const auto span = [&layers](const char* name) -> const LayerTotals& {
      static const LayerTotals kNone;
      const auto it = layers.find(name);
      return it == layers.end() ? kNone : it->second;
    };
    const auto counter = [&s](const char* name) {
      return static_cast<double>(s.snapshot.counter(name));
    };
    const pipeline::PipelineResult& r = s.result;
    Sample m;
    m["pipeline.rr_s"] = r.rr_seconds;
    m["pipeline.ccd_s"] = r.ccd_seconds;
    m["pipeline.bgg_dsd_s"] = r.bgg_dsd_seconds;
    m["pipeline.other_s"] =
        s.solve_s - r.rr_seconds - r.ccd_seconds - r.bgg_dsd_seconds;

    m["suffix.index_s"] = span("suffix.index").seconds;
    m["suffix.enumerate_s"] = span("suffix.enumerate").seconds;
    m["suffix.pairs_emitted"] = static_cast<double>(t.pairs_emitted);
    m["suffix.nodes_visited"] = static_cast<double>(t.nodes_visited);
    m["suffix.index_bytes"] = static_cast<double>(t.index_bytes);

    const auto phase = [&](const std::string& p,
                           const pace::EngineCounters& c,
                           const char* yield_name, double useful) {
      const double candidates =
          static_cast<double>(c.promising_pairs - c.duplicate_pairs);
      const double attempted = static_cast<double>(c.aligned_pairs);
      m[p + ".promising_pairs"] = static_cast<double>(c.promising_pairs);
      m[p + ".candidate_pairs"] = candidates;
      m[p + ".attempted"] = attempted;
      m[p + ".skip_ratio"] =
          ratio(static_cast<double>(c.filtered_pairs), candidates);
      m[p + yield_name] = ratio(useful, attempted);
    };
    m["rr.phase_s"] = span("rr.remove_redundant_serial").seconds;
    m["rr.candidates_s"] = span("rr.canonical_pairs").seconds;
    phase("rr", r.rr.counters, ".removal_yield",
          static_cast<double>(r.rr.removed_count()));
    m["ccd.phase_s"] = span("ccd.detect_components_serial").seconds;
    m["ccd.candidates_s"] = span("ccd.canonical_pairs").seconds;
    phase("ccd", r.ccd.counters, ".merge_yield", counter("ccd.uf_merges"));

    m["align.attempted_pairs"] = counter("pace.alignments_attempted");
    m["align.batches"] = counter("align.batches");
    const auto fill = s.snapshot.histograms.find("align.batch_fill");
    m["align.batch_fill_mean"] =
        fill == s.snapshot.histograms.end() ? 0.0 : fill->second.mean();
    m["align.lane_fallback_pairs"] =
        static_cast<double>(t.lane_fallback_pairs);
    const double cells = static_cast<double>(t.alignment_cells_sampled);
    m["align.scalar_ns_per_cell"] =
        ratio(span("align.scalar").seconds * 1e9, cells);
    m["align.batch_ns_per_cell"] =
        ratio(span("align.batch").seconds * 1e9, cells);

    m["bigraph.build_s"] = span("bigraph.build_bd").seconds;
    m["bigraph.max_component_s"] = span("bigraph.build_bd").max_seconds;
    m["bigraph.aligned_pairs"] = static_cast<double>(t.bgg_aligned_pairs);
    m["bigraph.cells"] = static_cast<double>(t.bgg_cells);
    m["bigraph.edges"] = static_cast<double>(t.bgg_edges);

    m["shingle.pass_s"] = span("shingle.report_families").seconds;
    m["shingle.max_graph_s"] = span("shingle.report_families").max_seconds;
    m["shingle.tuples"] = counter("shingle.tuples");
    m["shingle.first_level"] = counter("shingle.first_level_shingles");
    m["shingle.second_level"] = counter("shingle.second_level_shingles");

    for (const auto& [metric, gauge] : kMemGauges) {
      const auto it = s.snapshot.gauges.find(gauge);
      m[metric] = it == s.snapshot.gauges.end()
                      ? 0.0
                      : static_cast<double>(it->second.max);
    }

    m["prov.derive_s"] = span("prov.derive_rr").seconds;
    m["prov.edges"] = static_cast<double>(r.provenance.edges.size());
    m["prov.ccd_replay_alignments"] = counter("prov.ccd_replay_alignments");
    m["io.bytes_committed"] = counter("io.bytes_committed");
    m["checkpoint.bytes_written"] = counter("checkpoint.bytes_written");
    m["exec.parallel_jobs"] = counter("exec.parallel_jobs");
    m["quality.sensitivity"] = s.quality.sensitivity;

    const double wall = span("solve").seconds;
    double grouping_self = 0.0;
    for (const char* name : kGroupingSpans) {
      grouping_self += span(name).self_seconds;
    }
    m["trace.overhead"] = ratio(wall, s.solve_s) - 1.0;
    m["trace.coverage"] = 1.0 - ratio(grouping_self, wall);
    return m;
  }

  std::string result_json(const Sample& metrics) const {
    util::JsonWriter w;
    w.begin_object()
        .key("correct").value(failed_ == 0)
        .key("attempted").value(attempted_)
        .key("failed").value(failed_)
        .key("metrics").begin_object();
    const std::span<const MetricDef> defs =
        options_.trace ? std::span<const MetricDef>(kPerLayer)
                       : std::span<const MetricDef>(kEndToEnd);
    for (const MetricDef& def : defs) {
      const auto it = metrics.find(def.name);
      w.key(def.name).begin_object()
          .key("value").value(it == metrics.end() ? 0.0 : it->second)
          .key("unit").value(def.unit)
          .end_object();
    }
    w.end_object().end_object();
    return w.str();
  }

 private:
  Options options_;
  fs::path dir_;
  std::vector<Input> inputs_;
  Recorder recorder_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
  std::vector<double> solve_times_;
};

using Args = std::map<std::string, std::string>;

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 2; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected --key value, got " + key);
    }
    args[key.substr(2)] = argv[i + 1];
  }
  return args;
}

const std::string& need(const Args& args, const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::invalid_argument("missing --" + key);
  return it->second;
}

std::string get(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

/// "a,b,c" -> {"a", "b", "c"}.
std::vector<std::string> split(const std::string& list) {
  std::vector<std::string> out;
  std::stringstream in(list);
  for (std::string item; std::getline(in, item, ',');) out.push_back(item);
  return out;
}

int generate(const Args& args) {
  const std::string preset = need(args, "preset");
  const double n = std::stod(need(args, "n"));
  const auto seed = static_cast<std::uint64_t>(std::stoull(need(args, "seed")));
  synth::DatasetSpec spec;
  if (preset == "orf") {
    spec = synth::paper_160k(n / 160'000.0, seed);
  } else if (preset == "domain") {
    spec = synth::paper_22k(n / 22'186.0, seed);
  } else {
    throw std::invalid_argument("unknown --preset " + preset);
  }
  // Equal ancestor lengths: with the presets' +-30% jitter the largest
  // family's length alone moves solve time by up to 3.4x between seeds
  // (alignment cost grows with length squared). Member lengths still vary
  // through truncation, indels and redundant spans.
  spec.length_jitter = 0.0;
  const synth::Dataset data = synth::generate(spec);
  seq::write_fasta_file(need(args, "fasta"), data.sequences);
  quality::write_clustering_file(need(args, "truth"),
                                 data.truth.benchmark_clusters(5),
                                 data.sequences);
  return 0;
}

int reference(const Args& args) {
  seq::SequenceSet set;
  seq::read_fasta_file(need(args, "fasta"), set);
  Options serial;
  serial.threads = 1;
  util::set_log_level(util::LogLevel::kWarn);
  const std::string families =
      render_families(pipeline::run(set, make_config(serial, "")).families);
  std::ofstream out(need(args, "out"), std::ios::binary);
  out << families;
  if (!out.flush()) throw std::runtime_error("cannot write --out");
  return 0;
}

int run(const Args& args) {
  Options o;
  o.workload = need(args, "workload");
  o.fastas = split(need(args, "fasta"));
  o.truths = split(need(args, "truth"));
  o.work_dir = need(args, "work-dir");
  o.threads = static_cast<unsigned>(std::stoul(get(args, "threads", "1")));
  o.artifacts = get(args, "artifacts", "0") == "1";
  const std::string references = get(args, "reference", "");
  if (!references.empty()) o.references = split(references);
  o.seconds = std::stod(get(args, "seconds", "10"));
  o.trace = get(args, "trace", "0") == "1";
  o.min_precision = std::stod(get(args, "min-precision", "0"));
  o.min_sensitivity = std::stod(get(args, "min-sensitivity", "0"));
  o.corrupt_families = get(args, "corrupt-families", "0") == "1";

  util::set_log_level(util::LogLevel::kWarn);
  Runner runner(o);
  const std::string result = runner.run();
  runner.write_record(result);
  util::JsonWriter host;
  write_host(host);
  std::printf("host %s\n%s\n", host.str().c_str(), result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    const perfbench::Args args = perfbench::parse_args(argc, argv);
    if (mode == "generate") return perfbench::generate(args);
    if (mode == "reference") return perfbench::reference(args);
    if (mode == "run") return perfbench::run(args);
    std::fprintf(stderr,
                 "usage: perfbench generate|reference|run --key value ...\n");
    return 2;
  } catch (const std::exception& err) {
    std::fprintf(stderr, "perfbench: %s\n", err.what());
    return 1;
  }
}
