#include "pclust/pipeline/pipeline.hpp"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <unordered_map>

#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/masterworker.hpp"
#include "pclust/pace/provenance.hpp"
#include "pclust/pipeline/dsd.hpp"
#include "pclust/util/checkpoint.hpp"
#include "pclust/util/log.hpp"
#include "pclust/util/memgov.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/telemetry.hpp"
#include "pclust/util/timer.hpp"
#include "pclust/util/trace.hpp"

namespace pclust::pipeline {

namespace {

// Checkpoint phase tags (util/checkpoint.hpp header field).
constexpr std::uint32_t kTagRr = 1;
constexpr std::uint32_t kTagCcdPartial = 2;
constexpr std::uint32_t kTagCcd = 3;
constexpr std::uint32_t kTagFamilies = 4;
// Payload V3 = fingerprint u64, phase duration f64 (seconds the phase cost
// when it was computed; running total for partial checkpoints), protocol
// master count u32 (provenance: how many masters the writing run used —
// informational only, results are bit-identical across master counts so it
// is deliberately NOT part of the fingerprint), then the phase data. V1
// lacked the duration, V2 the master count; older versions are treated as
// absent so the phase recomputes rather than resuming with unknown
// provenance.
constexpr std::uint32_t kPayloadV3 = 3;

/// Fingerprint of the input set plus every configuration field that can
/// change phase RESULTS (simulation/threading knobs are excluded — they
/// are output invariant by design). Stored in every checkpoint payload;
/// resume refuses a checkpoint whose fingerprint differs.
std::uint64_t fingerprint(const seq::SequenceSet& set,
                          const PipelineConfig& cfg) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a over 64-bit words
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mix_f = [&](double v) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(set.size());
  for (seq::SeqId id = 0; id < set.size(); ++id) {
    const auto residues = set.residues(id);
    mix(residues.size());
    mix(util::crc32(residues.data(), residues.size()));
  }
  mix(cfg.pace.psi);
  mix(cfg.pace.bucket_prefix);
  mix(cfg.pace.max_node_occurrences);
  mix(cfg.pace.band);
  mix(cfg.rr_band);
  mix_f(cfg.pace.containment.min_similarity);
  mix_f(cfg.pace.containment.min_coverage);
  mix(0);  // retired containment-mode word; keeps existing checkpoints valid
  mix_f(cfg.pace.overlap.min_similarity);
  mix_f(cfg.pace.overlap.min_long_coverage);
  mix(static_cast<std::uint64_t>(cfg.reduction));
  mix(cfg.bm.w);
  mix(cfg.bm.max_sequences_per_word);
  mix(cfg.shingle.s1);
  mix(cfg.shingle.c1);
  mix(cfg.shingle.s2);
  mix(cfg.shingle.c2);
  mix(cfg.shingle.seed);
  mix(cfg.shingle.min_size);
  mix_f(cfg.shingle.tau);
  mix(cfg.min_component);
  mix(cfg.mask_low_complexity ? 1 : 0);
  mix(cfg.complexity.window);
  mix_f(cfg.complexity.min_entropy);
  return h;
}

/// Per-run handle over the checkpoint directory; no-op when disabled.
class Checkpoints {
 public:
  Checkpoints(const PipelineConfig& cfg, std::uint64_t fp)
      : dir_(cfg.checkpoint_dir),
        resume_(cfg.resume),
        fp_(fp),
        masters_(static_cast<std::uint32_t>(std::max(1, cfg.pace.masters))) {
    if (!dir_.empty()) std::filesystem::create_directories(dir_);
  }

  [[nodiscard]] bool enabled() const { return !dir_.empty(); }
  [[nodiscard]] bool resuming() const { return enabled() && resume_; }
  [[nodiscard]] std::filesystem::path path(const std::string& name) const {
    return std::filesystem::path(dir_) / name;
  }

  /// Writes rotate the previous generation to "<name>.1" first, so a crash
  /// mid-write (or later corruption of the primary) still leaves a
  /// last-good file to roll back to.
  void write(const std::string& name, std::uint32_t tag,
             const util::CheckpointWriter& payload) const {
    if (enabled()) {
      write_checkpoint(path(name), tag, kPayloadV3, payload,
                       /*keep_previous=*/true);
    }
  }

  /// Remove both generations of @p name (a superseded checkpoint).
  void discard(const std::string& name) const {
    if (!enabled()) return;
    std::error_code ec;
    std::filesystem::remove(path(name), ec);
    std::filesystem::remove(util::checkpoint_backup_path(path(name)), ec);
  }

  /// Open @p name for resume. Returns nullopt if resume is off or no usable
  /// generation exists — a damaged primary is quarantined to "<name>.bad"
  /// and the last-good backup tried in its place; only when both are gone
  /// does the phase recompute. Never throws for damaged files; throws
  /// CheckpointError on a fingerprint mismatch (an intact checkpoint from a
  /// different input/configuration — silently recomputing would mask
  /// operator error). On success @p seconds_out (if given) receives the
  /// stored phase duration and @p from_backup whether the backup
  /// generation was used.
  [[nodiscard]] std::optional<util::CheckpointReader> open(
      const std::string& name, std::uint32_t tag,
      double* seconds_out = nullptr, bool* from_backup = nullptr) {
    if (!resuming()) return std::nullopt;
    util::CheckpointRecovery rec =
        util::recover_checkpoint(path(name), tag, kPayloadV3);
    for (const std::string& event : rec.events) {
      PCLUST_WARN << "pipeline: " << name << ": " << event;
      recovery_log_.push_back(name + ": " + event);
    }
    if (!rec.reader || rec.payload_version != kPayloadV3) return std::nullopt;
    if (rec.reader->u64() != fp_) {
      throw util::CheckpointError(
          "checkpoint fingerprint mismatch (input or configuration "
          "changed since the checkpoint was written): " +
          path(name).string());
    }
    const double seconds = rec.reader->f64();
    // Provenance: the master-tree width of the run that wrote this
    // checkpoint. Results are bit-identical across master counts, so a
    // mismatch with the current run is fine — surface it for operators.
    const std::uint32_t written_by = rec.reader->u32();
    if (written_by != masters_) {
      PCLUST_WARN << "pipeline: " << name << ": checkpoint written by a run "
                  << "with masters=" << written_by << " (this run uses "
                  << masters_ << "); results are bit-identical, resuming";
      recovery_log_.push_back(name + ": provenance masters=" +
                              std::to_string(written_by));
    }
    if (seconds_out) *seconds_out = seconds;
    if (from_backup) *from_backup = rec.from_backup;
    return std::move(rec.reader);
  }

  [[nodiscard]] const std::vector<std::string>& recovery_log() const {
    return recovery_log_;
  }

  /// Payload prefix: fingerprint, the phase duration being recorded, and
  /// the writing run's protocol master count (provenance).
  [[nodiscard]] util::CheckpointWriter payload(double seconds) const {
    util::CheckpointWriter w;
    w.u64(fp_);
    w.f64(seconds);
    w.u32(masters_);
    return w;
  }

 private:
  std::string dir_;
  bool resume_;
  std::uint64_t fp_;
  std::uint32_t masters_ = 1;
  std::vector<std::string> recovery_log_;
};

/// Record the process RSS at a phase boundary as a `mem.rss.<phase>`
/// gauge; the run report's memory section reads the high-water marks. A
/// no-op (gauge stays 0) where /proc is unavailable.
void sample_phase_rss(const char* phase) {
  util::metrics()
      .gauge(std::string("mem.rss.") + phase)
      .set(util::current_rss_bytes());
}

/// Open a trace timeline for a simulated phase and label its rank lanes;
/// engine code then emits onto it via trace::current_pid(). No-op when
/// tracing is off. With masters >= 2 the lanes carry the hierarchy levels
/// (root / sub-master-N / worker-N) instead of the flat master/worker pair.
void trace_sim_phase(const char* name, int ranks, int masters = 1) {
  if (!util::trace::enabled()) return;
  const int pid = util::trace::begin_process(name);
  const mpsim::MwTopology topo{ranks, std::max(1, masters)};
  for (int r = 0; r < ranks; ++r) {
    std::string label{topo.level_of(r)};
    if (r != 0) label += "-" + std::to_string(r);
    util::trace::name_thread(pid, r, label);
  }
}

/// After a simulated phase: one virtual-time span per rank (its lifetime on
/// the simulated machine), then route later events back to the wall-clock
/// pipeline timeline.
void trace_sim_result(const mpsim::RunResult& run) {
  if (!util::trace::enabled()) return;
  const int pid = util::trace::current_pid();
  for (std::size_t r = 0; r < run.rank_times.size(); ++r) {
    const bool crashed =
        std::find(run.crashed_ranks.begin(), run.crashed_ranks.end(),
                  static_cast<int>(r)) != run.crashed_ranks.end();
    util::trace::complete(pid, static_cast<int>(r),
                          crashed ? "rank(crashed)" : "rank", "sim", 0.0,
                          run.rank_times[r] * 1e6);
  }
  util::trace::set_current_pid(0);
}

/// One phase's merge evidence: its ledger edges and the merge count they
/// must cover.
struct Evidence {
  std::vector<prov::Edge> edges;
  std::uint64_t merges = 0;
};

/// The optional trailing section of a phase checkpoint payload: u64 merges,
/// u64 n, then n render_edge lines (the ledger's edge format). Result and
/// evidence share one CRC-checked, atomically committed file, so they can
/// never disagree and roll back to the backup generation together.
void encode_evidence(util::CheckpointWriter& payload,
                     const Evidence& evidence) {
  payload.u64(evidence.merges);
  payload.u64(evidence.edges.size());
  for (const prov::Edge& e : evidence.edges) {
    payload.str(prov::render_edge(e));
  }
}

/// Read the evidence section after a phase's data. False when the payload
/// ends there: the checkpoint was written without provenance (or by a
/// build that predates the section), and the phase derives instead.
bool decode_evidence(util::CheckpointReader& reader, Evidence& evidence) {
  if (reader.exhausted()) return false;
  evidence.merges = reader.u64();
  const std::uint64_t count = reader.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    evidence.edges.push_back(prov::parse_edge(reader.str()));
  }
  return true;
}

/// How a phase's compute step ran: its recorded duration (virtual makespan
/// for simulated phases), the phase-log word, and whether compute already
/// captured the phase's evidence at decision time.
struct PhaseRun {
  double seconds = 0.0;
  const char* how = "computed";
  bool captured = false;
};

/// What one pipeline phase supplies to the boundary scaffold in run(); the
/// scaffold owns every other step (see DESIGN.md §9.4 for the order).
struct Phase {
  const char* name;      // governor, telemetry, trace and RSS-gauge label
  const char* ckpt;      // "<ckpt>.ckpt" and the phase-log entry
  std::uint32_t tag;     // checkpoint phase tag
  // Telemetry phase record: virtual-time (simulated) phase, ranks, masters.
  bool simulated = false;
  int ranks = 1;
  int masters = 1;
  bool budget_check = true;  // check the memory budget at the boundary
  double* seconds;     // the phase's recorded duration
  Evidence* evidence;  // where the phase's evidence lands
  std::function<void(util::CheckpointReader&)> decode;
  std::function<PhaseRun(const util::Timer&)> compute;
  std::function<void(util::CheckpointWriter&)> encode;
  // Fill *evidence for the phase result when compute did not capture it
  // and the checkpoint carried none.
  std::function<void()> derive;
};

/// Table-I aggregates over result.families (sorted whether the family
/// phase was computed or resumed).
PipelineResult finalize(PipelineResult result) {
  result.dense_subgraph_count = result.families.size();
  double degree_weighted = 0.0;
  double density_sum = 0.0;
  static util::SizeHistogram& sizes =
      util::metrics().histogram("families.family_size");
  for (const Family& f : result.families) {
    sizes.add(f.members.size());
    result.sequences_in_subgraphs += f.members.size();
    result.largest_subgraph =
        std::max(result.largest_subgraph, f.members.size());
    degree_weighted += f.mean_degree * static_cast<double>(f.members.size());
    density_sum += f.density;
  }
  if (result.sequences_in_subgraphs > 0) {
    result.mean_degree =
        degree_weighted / static_cast<double>(result.sequences_in_subgraphs);
  }
  if (!result.families.empty()) {
    result.mean_density =
        density_sum / static_cast<double>(result.families.size());
  }
  PCLUST_INFO << "pipeline: " << result.dense_subgraph_count
              << " dense subgraphs covering "
              << result.sequences_in_subgraphs << " sequences ("
              << util::format_duration(result.bgg_dsd_seconds) << ")";
  return result;
}

}  // namespace

std::vector<std::vector<seq::SeqId>> PipelineResult::family_clustering()
    const {
  std::vector<std::vector<seq::SeqId>> out;
  out.reserve(families.size());
  for (const Family& f : families) out.push_back(f.members);
  return out;
}

PipelineResult run(const seq::SequenceSet& input,
                   const PipelineConfig& config) {
  PipelineResult result;
  result.input_sequences = input.size();
  const bool parallel = config.processors >= 2;

  // Install the memory budget (0 = unlimited) and reset the capacity
  // ledger; accounting runs either way so an unconstrained run's
  // high_water() can calibrate a later budgeted one.
  util::governor().configure(config.mem_budget_bytes);

  // One pool for the whole run; every phase borrows it. threads == 1 never
  // spawns a thread and is the exact serial path.
  exec::Pool pool(config.threads);
  exec::Pool* pool_arg = pool.size() > 1 ? &pool : nullptr;
  if (pool.size() > 1) {
    PCLUST_INFO << "pipeline: execution pool with " << pool.size()
                << " threads";
  }

  // Optional SEG-style masking; all phases then see the masked residues.
  seq::SequenceSet masked;
  if (config.mask_low_complexity) {
    masked = seq::mask_low_complexity(input, config.complexity);
    PCLUST_INFO << "pipeline: masked "
                << seq::masked_fraction(input, config.complexity) * 100.0
                << "% of residues as low-complexity";
  }
  const seq::SequenceSet& set = config.mask_low_complexity ? masked : input;

  const std::uint64_t fp =
      config.checkpoint_dir.empty() ? 0 : fingerprint(set, config);
  Checkpoints ckpt(config, fp);
  const mpsim::FaultPlan* rr_plan =
      config.rr_fault_plan ? config.rr_fault_plan : config.fault_plan;
  const mpsim::FaultPlan* ccd_plan =
      config.ccd_fault_plan ? config.ccd_fault_plan : config.fault_plan;
  const auto log_phase = [&](const char* phase, const char* how) {
    if (!ckpt.enabled()) return;
    result.phase_log.push_back(std::string(phase) + ":" + how);
    PCLUST_INFO << "pipeline: phase " << phase << " " << how;
  };

  // Merge-provenance capture state, one Evidence per phase, assembled into
  // result.provenance at the single exit. The ledger is a canonical
  // derivation (see pace/provenance.hpp), so the edges end up bit-identical
  // however each phase actually executed.
  const bool want_prov = config.provenance;
  Evidence rr_evidence;
  Evidence ccd_evidence;
  Evidence dsd_evidence;

  // The phase-boundary scaffold (DESIGN.md §9.4): resume or compute (with
  // the phase's evidence riding in its checkpoint), phase log, and boundary
  // accounting, in this order for every phase.
  const auto run_phase = [&](const Phase& phase) {
    util::governor().set_phase(phase.name);
    const std::string file = std::string(phase.ckpt) + ".ckpt";
    bool from_backup = false;
    if (auto reader = ckpt.open(file, phase.tag, phase.seconds, &from_backup)) {
      phase.decode(*reader);
      if (want_prov && !decode_evidence(*reader, *phase.evidence)) {
        phase.derive();
      }
      log_phase(phase.ckpt, from_backup ? "resumed-backup" : "resumed");
    } else {
      const util::trace::WallSpan span(phase.name);
      util::telemetry::phase_begin(phase.name, phase.simulated, phase.ranks,
                                   phase.masters);
      const util::Timer timer;
      const PhaseRun ran = phase.compute(timer);
      *phase.seconds = ran.seconds;
      util::telemetry::phase_end(phase.name, ran.seconds);
      if (want_prov && !ran.captured) phase.derive();
      if (ckpt.enabled()) {
        util::CheckpointWriter payload = ckpt.payload(ran.seconds);
        phase.encode(payload);
        if (want_prov) encode_evidence(payload, *phase.evidence);
        ckpt.write(file, phase.tag, payload);
      }
      log_phase(phase.ckpt, ran.how);
    }
    sample_phase_rss(phase.name);
    // Past this point the phase checkpoint (if any) is flushed: a hopelessly
    // over-budget run exits structured and resumable here, not OOM-killed.
    if (phase.budget_check) {
      util::governor().check_phase_boundary(phase.name, ckpt.enabled());
    }
    util::telemetry::poll_deadline();
  };

  // ---- Phase 1: redundancy removal --------------------------------------
  pace::PaceParams rr_params = config.pace;
  rr_params.band = config.rr_band;
  rr_params.phase_label = "rr";
  // RR applies containment verdicts order-dependently (removed/container
  // bookkeeping is not confluent), so it always runs flat regardless of
  // the configured master count; only CCD and DSD go hierarchical.
  rr_params.masters = 1;
  run_phase({
      .name = "rr",
      .ckpt = "rr",
      .tag = kTagRr,
      .simulated = parallel,
      .ranks = parallel ? config.processors : 1,
      .seconds = &result.rr_seconds,
      .evidence = &rr_evidence,
      .decode =
          [&](util::CheckpointReader& reader) {
            result.rr.removed = reader.u8_vec();
            result.rr.container = reader.u32_vec();
            if (result.rr.removed.size() != set.size() ||
                result.rr.container.size() != set.size()) {
              throw util::CheckpointError(
                  "rr.ckpt does not cover the current input set");
            }
          },
      .compute =
          [&](const util::Timer& timer) -> PhaseRun {
            if (!parallel) {
              result.rr = pace::remove_redundant_serial(set, rr_params,
                                                        pool_arg);
              return {timer.elapsed_seconds()};
            }
            trace_sim_phase("sim:rr", config.processors);
            result.rr =
                pace::remove_redundant(set, config.processors, config.model,
                                       rr_params, pool_arg, rr_plan);
            trace_sim_result(result.rr.run);
            return {result.rr.run.makespan};
          },
      .encode =
          [&](util::CheckpointWriter& payload) {
            payload.u8_vec(result.rr.removed);
            payload.u32_vec(result.rr.container);
          },
      .derive =
          [&] {
            // Full-DP containment stats, canonical ascending order.
            rr_evidence.edges =
                pace::derive_rr_provenance(set, result.rr, config.pace);
            rr_evidence.merges = result.rr.removed_count();
          },
  });
  const std::vector<seq::SeqId> survivors = result.rr.survivors();
  result.non_redundant_sequences = survivors.size();
  PCLUST_INFO << "pipeline: RR kept " << survivors.size() << " of "
              << set.size() << " (" << util::format_duration(result.rr_seconds)
              << ")";

  // ---- Phase 2: connected components -------------------------------------
  pace::PaceParams ccd_params = config.pace;
  ccd_params.phase_label = "ccd";
  const int ccd_masters = parallel ? std::max(1, ccd_params.masters) : 1;
  const auto ccd_merges = [&]() -> std::uint64_t {
    return survivors.size() - result.ccd.components.size();
  };
  run_phase({
      .name = "ccd",
      .ckpt = "ccd",
      .tag = kTagCcd,
      .simulated = parallel,
      .ranks = parallel ? config.processors : 1,
      .masters = ccd_masters,
      .seconds = &result.ccd_seconds,
      .evidence = &ccd_evidence,
      .decode =
          [&](util::CheckpointReader& reader) {
            const std::uint64_t count = reader.u64();
            result.ccd.components.reserve(static_cast<std::size_t>(count));
            for (std::uint64_t i = 0; i < count; ++i) {
              result.ccd.components.push_back(reader.u32_vec());
            }
          },
      .compute =
          [&](const util::Timer& timer) -> PhaseRun {
            if (parallel) {
              trace_sim_phase("sim:ccd", config.processors, ccd_masters);
              result.ccd = pace::detect_components(
                  set, survivors, config.processors, config.model,
                  ccd_params, pool_arg, ccd_plan);
              trace_sim_result(result.ccd.run);
              return {result.ccd.run.makespan};
            }
            // Mid-stream progress snapshots (serial path only: the pair
            // stream index is only a meaningful watermark there).
            // `prior_seconds` carries the time the interrupted run(s)
            // already spent, so the recorded phase duration spans every
            // contributing run.
            pace::CcdProgress partial;
            bool have_partial = false;
            double prior_seconds = 0.0;
            if (auto part = ckpt.open("ccd_partial.ckpt", kTagCcdPartial,
                                      &prior_seconds)) {
              partial.parents = part->u32_vec();
              partial.next_pair = part->u64();
              have_partial = partial.parents.size() == survivors.size();
              if (!have_partial) prior_seconds = 0.0;
            }
            const auto on_checkpoint = [&](const pace::CcdProgress& progress) {
              util::CheckpointWriter payload =
                  ckpt.payload(prior_seconds + timer.elapsed_seconds());
              payload.u32_vec(progress.parents);
              payload.u64(progress.next_pair);
              ckpt.write("ccd_partial.ckpt", kTagCcdPartial, payload);
            };
            const std::uint64_t stride =
                ckpt.enabled() ? config.ccd_checkpoint_stride : 0;
            // A from-scratch run captures its evidence at the point of
            // decision for free (the recorder fires on every successful
            // union-find merge); the parallel and partially-resumed paths
            // re-derive by canonical replay, provably yielding the same
            // edges (a partial resume's pre-watermark merges happened in
            // an earlier process).
            const bool capture = want_prov && !have_partial;
            std::function<void(const pace::Verdict&)> on_merge;
            if (capture) {
              on_merge = [&](const pace::Verdict& v) {
                ccd_evidence.edges.push_back(pace::ccd_edge_from_verdict(v));
              };
            }
            result.ccd = pace::detect_components_serial(
                set, survivors, ccd_params, pool_arg,
                have_partial ? &partial : nullptr, stride,
                stride > 0 ? on_checkpoint
                           : std::function<void(const pace::CcdProgress&)>(),
                on_merge);
            ccd_evidence.merges = ccd_merges();
            return {prior_seconds + timer.elapsed_seconds(),
                    have_partial ? "resumed-partial" : "computed", capture};
          },
      .encode =
          [&](util::CheckpointWriter& payload) {
            payload.u64(result.ccd.components.size());
            for (const auto& component : result.ccd.components) {
              payload.u32_vec(component);
            }
          },
      .derive =
          [&] {
            ccd_evidence.edges = pace::derive_ccd_provenance(
                set, survivors, ccd_params, result.ccd.components, pool_arg);
            ccd_evidence.merges = ccd_merges();
          },
  });
  // The finished CCD checkpoint supersedes any mid-stream partial.
  ckpt.discard("ccd_partial.ckpt");
  {
    static util::SizeHistogram& sizes =
        util::metrics().histogram("ccd.component_size");
    for (const auto& component : result.ccd.components) {
      sizes.add(component.size());
    }
  }
  result.components_min_size =
      result.ccd.count_with_min_size(config.min_component);
  PCLUST_INFO << "pipeline: CCD found " << result.components_min_size
              << " components of size >= " << config.min_component << " ("
              << util::format_duration(result.ccd_seconds) << ")";

  // ---- Phases 3 + 4: bipartite graphs + dense subgraphs -------------------
  std::size_t qualifying = 0;
  for (const auto& component : result.ccd.components) {
    if (component.size() >= config.min_component) ++qualifying;
  }
  const bool dsd_parallel = config.dsd_processors >= 2 && qualifying > 0;
  // DSD may run on a different rank count than CCD; when it is too narrow
  // to host the configured master tree (needs >= masters + 2 ranks), the
  // DSD stage runs flat rather than failing the whole run — results are
  // bit-identical either way.
  int dsd_masters = 1;
  if (dsd_parallel) {
    dsd_masters = std::max(1, config.pace.masters);
    if (dsd_masters > 1 && config.dsd_processors < dsd_masters + 2) {
      dsd_masters = 1;
    }
  }

  const auto build_graph =
      [&](const std::vector<seq::SeqId>& component) -> bigraph::ComponentGraph {
    if (config.reduction == bigraph::Reduction::kDuplicate) {
      return bigraph::build_bd(set, component, {config.pace}, pool_arg);
    }
    return bigraph::build_bm(set, component, config.bm);
  };
  const auto graph_bytes = [](const bigraph::ComponentGraph& g) {
    return g.graph.memory_usage().total() + util::vector_bytes(g.members) +
           util::vector_bytes(g.words);
  };
  // Density report (duplicate reduction only: left index == right index).
  // Folding a family needs only ITS component graph, which is what lets
  // the serial path below drop each graph as soon as it is processed.
  const auto fold_family = [&](const bigraph::ComponentGraph& graph,
                               std::vector<seq::SeqId> members) {
    Family family;
    family.members = std::move(members);
    if (config.reduction == bigraph::Reduction::kDuplicate) {
      std::unordered_map<seq::SeqId, std::uint32_t> dense;
      dense.reserve(graph.members.size());
      for (std::uint32_t i = 0; i < graph.members.size(); ++i) {
        dense[graph.members[i]] = i;
      }
      std::vector<std::uint32_t> nodes;
      nodes.reserve(family.members.size());
      for (seq::SeqId id : family.members) nodes.push_back(dense.at(id));
      family.mean_degree = bigraph::mean_subgraph_degree(graph.graph, nodes);
      family.density = bigraph::subgraph_density(graph.graph, nodes);
    }
    result.families.push_back(std::move(family));
  };

  // DSD merge evidence: the Shingle Pass II merges in component order, and
  // the expected merge count (S1 nodes minus raw components, per graph).
  const prov::Rule dsd_rule = config.reduction == bigraph::Reduction::kDuplicate
                                  ? prov::Rule::kBd
                                  : prov::Rule::kBm;
  const auto add_dsd_evidence =
      [&](std::uint64_t s1, std::uint64_t raw,
          const std::vector<shingle::ShingleMerge>& merges) {
        dsd_evidence.merges += s1 - raw;
        for (const shingle::ShingleMerge& m : merges) {
          prov::Edge e;
          e.a = m.a;
          e.b = m.b;
          e.phase = prov::Phase::kDsd;
          e.rule = dsd_rule;
          e.score = static_cast<std::int32_t>(m.matches);
          e.matches = m.matches;
          e.columns = m.columns;
          dsd_evidence.edges.push_back(e);
        }
      };
  // One component graph through Shingle (the serial path's step).
  const auto shingle_graph = [&](const bigraph::ComponentGraph& graph) {
    shingle::DsdStats stats;
    std::vector<shingle::ShingleMerge> merges;
    auto families = shingle::report_families(
        graph, config.shingle, want_prov ? &stats : nullptr, pool_arg,
        want_prov ? &merges : nullptr);
    if (want_prov) {
      add_dsd_evidence(stats.first_level_shingles, stats.raw_components,
                       merges);
    }
    return families;
  };
  run_phase({
      .name = "bgg+dsd",
      .ckpt = "families",
      .tag = kTagFamilies,
      .simulated = dsd_parallel,
      .ranks = dsd_parallel ? config.dsd_processors : 1,
      .masters = dsd_masters,
      // The final phase has nothing left to spill into; a budget check
      // here could only turn a finished run into exit 5.
      .budget_check = false,
      .seconds = &result.bgg_dsd_seconds,
      .evidence = &dsd_evidence,
      .decode =
          [&](util::CheckpointReader& reader) {
            const std::uint64_t count = reader.u64();
            result.families.reserve(static_cast<std::size_t>(count));
            for (std::uint64_t i = 0; i < count; ++i) {
              Family family;
              family.members = reader.u32_vec();
              family.mean_degree = reader.f64();
              family.density = reader.f64();
              result.families.push_back(std::move(family));
            }
          },
      .compute =
          [&](const util::Timer& timer) -> PhaseRun {
            if (dsd_parallel) {
              // LPT distribution needs every graph's cost estimate up
              // front, so the protocol path always materializes; the memory
              // charge still makes the footprint visible to the governor
              // and the budget-exceeded exit.
              std::vector<bigraph::ComponentGraph> graphs;
              util::MemoryCharge graphs_charge;
              for (const auto& component : result.ccd.components) {
                if (component.size() < config.min_component) continue;
                graphs.push_back(build_graph(component));
                graphs_charge.add("bgg.graphs", graph_bytes(graphs.back()));
              }
              // The paper's batched distribution (LPT on the estimated
              // shingle cost, ~ edges x c1 hash-and-select operations) on
              // the resilient master-worker protocol: a rank death
              // mid-phase requeues its graphs and replays its generation
              // stream on a survivor, and the graph-keyed verdict slots
              // keep the family output bit-identical to the serial path
              // under any fault plan. See pipeline/dsd.hpp.
              pace::PaceParams dsd_engine = config.pace;
              if (dsd_engine.masters > dsd_masters) {
                PCLUST_WARN << "pipeline: dsd: " << config.dsd_processors
                            << " ranks cannot host masters="
                            << dsd_engine.masters
                            << " (need >= masters + 2); running the DSD "
                               "stage flat";
                dsd_engine.masters = dsd_masters;
              }
              trace_sim_phase("sim:dsd", config.dsd_processors, dsd_masters);
              DsdParallelResult dsd = run_dsd_parallel(
                  graphs, config.shingle, config.dsd_processors,
                  config.dsd_model, dsd_engine, pool_arg,
                  config.dsd_fault_plan, want_prov);
              result.dsd_simulated_seconds = dsd.run.makespan;
              trace_sim_result(dsd.run);
              result.dsd_run = std::move(dsd.run);
              // Graph order == component order, so families and evidence
              // are bit-identical to the serial path's regardless of which
              // rank evaluated which graph.
              for (std::size_t g = 0; g < graphs.size(); ++g) {
                for (auto& members : dsd.families_per_graph[g]) {
                  fold_family(graphs[g], std::move(members));
                }
                if (want_prov) {
                  add_dsd_evidence(dsd.s1_nodes_per_graph[g],
                                   dsd.raw_components_per_graph[g],
                                   dsd.merges_per_graph[g]);
                }
              }
            } else {
              // Serial DSD: build, shingle, fold and free one component
              // graph at a time, strictly in component order, so at most
              // one graph is resident. One progress unit per graph, the
              // granularity the protocol path reports via its verdicts.
              util::telemetry::progress_enqueued(qualifying);
              for (const auto& component : result.ccd.components) {
                if (component.size() < config.min_component) continue;
                const bigraph::ComponentGraph graph = build_graph(component);
                const util::MemoryCharge charge("bgg.graphs",
                                                graph_bytes(graph));
                for (auto& members : shingle_graph(graph)) {
                  fold_family(graph, std::move(members));
                }
                util::telemetry::progress_done(1);
                util::telemetry::poll_deadline();
              }
            }
            const double seconds = timer.elapsed_seconds();
            std::sort(result.families.begin(), result.families.end(),
                      [](const Family& a, const Family& b) {
                        if (a.members.size() != b.members.size()) {
                          return a.members.size() > b.members.size();
                        }
                        return a.members.front() < b.members.front();
                      });
            return {seconds, "computed", want_prov};
          },
      .encode =
          [&](util::CheckpointWriter& payload) {
            payload.u64(result.families.size());
            for (const Family& f : result.families) {
              payload.u32_vec(f.members);
              payload.f64(f.mean_degree);
              payload.f64(f.density);
            }
          },
      .derive =
          [&] {
            // Families were resumed from a checkpoint without evidence, so
            // Shingle re-runs per qualifying component for its merge
            // evidence only; the re-run's families are discarded.
            for (const auto& component : result.ccd.components) {
              if (component.size() < config.min_component) continue;
              (void)shingle_graph(build_graph(component));
            }
          },
  });

  if (want_prov) {
    // Assemble the final ledger (phase order rr, ccd, dsd; RR and CCD
    // counts from the phase results, NOT from the edge lists — that is what
    // makes the summary's `complete` flag a real coverage check).
    prov::Ledger& ledger = result.provenance;
    ledger.sequences = set.size();
    ledger.edges.reserve(rr_evidence.edges.size() + ccd_evidence.edges.size() +
                         dsd_evidence.edges.size());
    for (const Evidence* evidence :
         {&rr_evidence, &ccd_evidence, &dsd_evidence}) {
      ledger.edges.insert(ledger.edges.end(), evidence->edges.begin(),
                          evidence->edges.end());
    }
    ledger.recount();
    ledger.counts.rr_merges = result.rr.removed_count();
    ledger.counts.ccd_merges = ccd_merges();
    ledger.counts.dsd_merges = dsd_evidence.merges;
    if (!ledger.counts.identity_holds()) {
      PCLUST_WARN << "pipeline: provenance merge identity violated (edges "
                  << ledger.counts.total_edges() << ", expected merges "
                  << (ledger.counts.rr_merges + ledger.counts.ccd_merges +
                      ledger.counts.dsd_merges)
                  << ") — the ledger's summary records complete=false";
    }
  }
  result.recovery_log = ckpt.recovery_log();
  return finalize(std::move(result));
}

std::string table1_row(const PipelineResult& r) {
  return util::format(
      "%s | %s | %s | %s | %s | %.0f | %.0f%% | %s",
      util::with_commas(static_cast<long long>(r.input_sequences)).c_str(),
      util::with_commas(static_cast<long long>(r.non_redundant_sequences))
          .c_str(),
      util::with_commas(static_cast<long long>(r.components_min_size)).c_str(),
      util::with_commas(static_cast<long long>(r.dense_subgraph_count))
          .c_str(),
      util::with_commas(static_cast<long long>(r.sequences_in_subgraphs))
          .c_str(),
      r.mean_degree, r.mean_density * 100.0,
      util::with_commas(static_cast<long long>(r.largest_subgraph)).c_str());
}

}  // namespace pclust::pipeline
