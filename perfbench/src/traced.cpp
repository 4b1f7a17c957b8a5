// The traced rebuild of pipeline::run (serial RR/CCD paths, B_d graphs,
// serial Shingle stage — the configuration every workload uses). Each
// public call pipeline::run makes gets a span; the suffix index and the
// pair enumeration behind pace::canonical_pairs are rebuilt once more with
// the suffix layer's own calls so their time and work show separately.
// Phase checkpoints are private to pipeline::run and are not rebuilt here.
#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "bench.hpp"
#include "pclust/align/batch.hpp"
#include "pclust/align/simd.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/provenance.hpp"
#include "pclust/pipeline/report.hpp"
#include "pclust/seq/fasta.hpp"
#include "pclust/suffix/concat_text.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/memsize.hpp"

namespace perfbench {

namespace {

using namespace pclust;

/// RR candidate jobs aligned per rate measurement: enough for a steady
/// ns/cell figure, few enough to keep the traced run's overhead small.
constexpr std::size_t kAlignSample = 4096;
/// Longest sequence a 16-bit SIMD lane takes (align/batch).
constexpr std::size_t kLaneMaxLen = 2047;

/// Build the suffix index over @p ids and enumerate its maximal-match
/// pairs exactly as the PaCE engine's shared index does, as two spans.
/// Returns the promising-pair stream (decreasing match length).
std::vector<pace::PairTask> index_and_enumerate(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const pace::PaceParams& params, exec::Pool* pool, Recorder& recorder,
    TracedSolve& out) {
  suffix::MaximalMatchParams mp;
  mp.min_length = params.psi;
  mp.max_node_occurrences = params.max_node_occurrences;

  std::unique_ptr<suffix::ConcatText> text;
  std::vector<std::int32_t> sa;
  std::vector<std::int32_t> lcp;
  std::vector<suffix::MaximalMatchEnumerator::Bucket> buckets;
  {
    const Scope span(recorder, "suffix.index");
    text = std::make_unique<suffix::ConcatText>(set, ids);
    if (pool) {
      sa = suffix::build_suffix_array_parallel(*text, *pool);
      lcp = suffix::build_lcp_parallel(*text, sa, *pool);
      buckets = suffix::MaximalMatchEnumerator(*text, sa, lcp, mp)
                    .prefix_buckets(params.bucket_prefix, *pool);
    } else {
      sa = suffix::build_suffix_array(text->text(), seq::kIndexAlphabetSize);
      lcp = suffix::build_lcp(*text, sa);
      buckets = suffix::MaximalMatchEnumerator(*text, sa, lcp, mp)
                    .prefix_buckets(params.bucket_prefix);
    }
  }
  out.index_bytes = std::max(
      out.index_bytes, text->memory_usage().total() + util::vector_bytes(sa) +
                           util::vector_bytes(lcp) +
                           util::vector_bytes(buckets));

  const Scope span(recorder, "suffix.enumerate");
  const suffix::MaximalMatchEnumerator enumerator(*text, sa, lcp, mp);
  struct BucketPairs {
    std::vector<pace::PairTask> pairs;
    suffix::EnumerationStats stats;
  };
  const auto enumerate = [&](std::size_t b) {
    BucketPairs bp;
    bp.stats = enumerator.enumerate(
        buckets[b].lb, buckets[b].rb, [&bp](const suffix::MaximalMatch& m) {
          bp.pairs.push_back(
              pace::PairTask{m.a, m.b, m.a_pos, m.b_pos, m.length});
          return true;
        });
    return bp;
  };
  std::vector<BucketPairs> per_bucket;
  if (pool && buckets.size() > 1) {
    per_bucket = exec::parallel_map<BucketPairs>(*pool, buckets.size(), 1,
                                                 enumerate);
  } else {
    for (std::size_t b = 0; b < buckets.size(); ++b) {
      per_bucket.push_back(enumerate(b));
    }
  }
  std::vector<pace::PairTask> pairs;
  for (const BucketPairs& bp : per_bucket) {
    pairs.insert(pairs.end(), bp.pairs.begin(), bp.pairs.end());
    out.pairs_emitted += bp.stats.pairs_emitted;
    out.nodes_visited += bp.stats.nodes_visited;
  }
  std::stable_sort(pairs.begin(), pairs.end(),
                   [](const pace::PairTask& x, const pace::PairTask& y) {
                     return x.length > y.length;
                   });
  return pairs;
}

bool same_pairs(const std::vector<pace::PairTask>& x,
                const std::vector<pace::PairTask>& y) {
  return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                    [](const pace::PairTask& p, const pace::PairTask& q) {
                      return p.a == q.a && p.b == q.b && p.a_pos == q.a_pos &&
                             p.b_pos == q.b_pos && p.length == q.length;
                    });
}

std::uint64_t unique_pairs(const std::vector<pace::PairTask>& pairs) {
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(pairs.size());
  for (const pace::PairTask& p : pairs) seen.insert(p.pair_key());
  return seen.size();
}

/// Time the scalar and the batched alignment paths on a stride sample of
/// the RR phase's own containment jobs (built the way the RR worker
/// builds them: unique pairs, both directions that pass the length gate).
void measure_alignment(const seq::SequenceSet& set,
                       const std::vector<pace::PairTask>& pairs,
                       const pace::PaceParams& params, Recorder& recorder,
                       TracedSolve& out) {
  const std::int64_t band =
      params.band > 0 ? static_cast<std::int64_t>(params.band) : -1;
  const auto gate = [&](std::string_view inner, std::string_view outer) {
    return static_cast<double>(inner.size()) *
               params.containment.min_coverage <=
           static_cast<double>(outer.size());
  };
  std::unordered_set<std::uint64_t> seen;
  std::vector<align::PairJob> jobs;
  for (const pace::PairTask& task : pairs) {
    if (!seen.insert(task.pair_key()).second) continue;
    const auto a = set.residues(task.a);
    const auto b = set.residues(task.b);
    if (gate(a, b)) jobs.push_back({a, b, task.diagonal(), band});
    if (gate(b, a)) jobs.push_back({b, a, -task.diagonal(), band});
  }
  out.lane_fallback_pairs = static_cast<std::uint64_t>(
      std::count_if(jobs.begin(), jobs.end(), [](const align::PairJob& j) {
        return j.a.size() > kLaneMaxLen || j.b.size() > kLaneMaxLen;
      }));
  if (jobs.empty()) return;

  std::vector<align::PairJob> sample;
  const std::size_t stride = std::max<std::size_t>(1, jobs.size() / kAlignSample);
  for (std::size_t i = 0; i < jobs.size() && sample.size() < kAlignSample;
       i += stride) {
    sample.push_back(jobs[i]);
  }
  const align::Isa dispatched = align::current_isa();
  std::vector<align::AlignmentResult> scalar(sample.size());
  std::vector<align::AlignmentResult> batched(sample.size());
  const auto timed = [&](const char* name, align::Isa isa,
                         std::vector<align::AlignmentResult>& results) {
    align::set_isa(isa);
    const Scope span(recorder, name);
    align::align_score_batch(sample.data(), sample.size(), params.scheme(),
                             results.data());
  };
  timed("align.scalar", align::Isa::kScalar, scalar);
  timed("align.batch", dispatched, batched);
  align::set_isa(dispatched);

  std::uint64_t cells = 0;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    cells += scalar[k].cells;
    const align::AlignmentResult& s = scalar[k];
    const align::AlignmentResult& b = batched[k];
    if (s.score != b.score || s.a_begin != b.a_begin || s.a_end != b.a_end ||
        s.b_begin != b.b_begin || s.b_end != b.b_end ||
        s.columns != b.columns || s.matches != b.matches ||
        s.positives != b.positives || s.cells != b.cells) {
      out.batch_matches_scalar = false;
    }
  }
  out.alignment_cells_sampled = cells;
}

}  // namespace

TracedSolve traced_solve(const Options& options, const std::string& fasta,
                         Recorder& recorder, std::uint64_t solve_id) {
  recorder.begin_solve(solve_id);
  TracedSolve out;
  seq::SequenceSet set;
  {
    const Scope span(recorder, "seq.read_fasta");
    seq::read_fasta_file(fasta, set);
  }
  const pipeline::PipelineConfig config = make_config(options, "");
  const bool want_prov = config.provenance;
  pipeline::PipelineResult& result = out.result;
  result.input_sequences = set.size();

  const Scope root(recorder, "solve");
  exec::Pool pool(config.threads);
  exec::Pool* pool_arg = pool.size() > 1 ? &pool : nullptr;

  // ---- RR ------------------------------------------------------------------
  std::vector<seq::SeqId> all(set.size());
  std::iota(all.begin(), all.end(), seq::SeqId{0});
  pace::PaceParams rr_params = config.pace;
  rr_params.band = config.rr_band;
  rr_params.phase_label = "rr";
  rr_params.masters = 1;
  std::vector<prov::Edge> rr_edges;
  int rr_span = -1;
  {
    const Scope phase(recorder, "rr");
    const std::vector<pace::PairTask> enumerated =
        index_and_enumerate(set, all, rr_params, pool_arg, recorder, out);
    std::vector<pace::PairTask> pairs;
    {
      const Scope span(recorder, "rr.canonical_pairs");
      pairs = pace::canonical_pairs(set, all, rr_params, pool_arg);
    }
    out.enumeration_matches = same_pairs(enumerated, pairs);
    out.rr_promising = pairs.size();
    out.rr_candidates = unique_pairs(pairs);
    {
      const Scope span(recorder, "rr.remove_redundant_serial");
      rr_span = span.index();
      result.rr = pace::remove_redundant_serial(set, rr_params, pool_arg);
    }
    measure_alignment(set, pairs, rr_params, recorder, out);
  }
  if (want_prov) {
    const Scope span(recorder, "prov.derive_rr");
    rr_edges = pace::derive_rr_provenance(set, result.rr, config.pace);
  }
  const std::vector<seq::SeqId> survivors = result.rr.survivors();
  result.non_redundant_sequences = survivors.size();

  // ---- CCD -----------------------------------------------------------------
  pace::PaceParams ccd_params = config.pace;
  ccd_params.phase_label = "ccd";
  std::vector<prov::Edge> ccd_edges;
  int ccd_span = -1;
  {
    const Scope phase(recorder, "ccd");
    const std::vector<pace::PairTask> enumerated = index_and_enumerate(
        set, survivors, ccd_params, pool_arg, recorder, out);
    std::vector<pace::PairTask> pairs;
    {
      const Scope span(recorder, "ccd.canonical_pairs");
      pairs = pace::canonical_pairs(set, survivors, ccd_params, pool_arg);
    }
    out.enumeration_matches =
        out.enumeration_matches && same_pairs(enumerated, pairs);
    out.ccd_promising = pairs.size();
    out.ccd_candidates = unique_pairs(pairs);
    // From-scratch serial CCD records provenance at decision time, as
    // pipeline::run does; derive_ccd_provenance is its replay fallback
    // for parallel or resumed runs, which no workload uses.
    std::function<void(const pace::Verdict&)> on_merge;
    if (want_prov) {
      on_merge = [&ccd_edges](const pace::Verdict& v) {
        ccd_edges.push_back(pace::ccd_edge_from_verdict(v));
      };
    }
    const Scope span(recorder, "ccd.detect_components_serial");
    ccd_span = span.index();
    result.ccd = pace::detect_components_serial(set, survivors, ccd_params,
                                                pool_arg, nullptr, 0, nullptr,
                                                on_merge);
  }
  result.components_min_size =
      result.ccd.count_with_min_size(config.min_component);

  // ---- BGG + DSD -----------------------------------------------------------
  std::vector<prov::Edge> dsd_edges;
  std::uint64_t dsd_merges = 0;
  int bgg_dsd_span = -1;
  {
    const Scope phase(recorder, "bgg_dsd");
    bgg_dsd_span = phase.index();
    bigraph::BdParams bd;
    bd.pace = config.pace;
    for (const auto& component : result.ccd.components) {
      if (component.size() < config.min_component) continue;
      bigraph::ComponentGraph graph;
      {
        const Scope span(recorder, "bigraph.build_bd");
        graph = bigraph::build_bd(set, component, bd);
      }
      out.bgg_aligned_pairs += graph.aligned_pairs;
      out.bgg_cells += graph.alignment_cells;
      out.bgg_edges += graph.graph.edge_count();
      shingle::DsdStats stats;
      std::vector<shingle::ShingleMerge> merges;
      std::vector<std::vector<seq::SeqId>> families;
      {
        const Scope span(recorder, "shingle.report_families");
        families = shingle::report_families(
            graph, config.shingle, want_prov ? &stats : nullptr, pool_arg,
            want_prov ? &merges : nullptr);
      }
      std::unordered_map<seq::SeqId, std::uint32_t> dense;
      for (std::uint32_t i = 0; i < graph.members.size(); ++i) {
        dense[graph.members[i]] = i;
      }
      for (auto& members : families) {
        pipeline::Family family;
        family.members = std::move(members);
        std::vector<std::uint32_t> nodes;
        for (const seq::SeqId id : family.members) nodes.push_back(dense.at(id));
        family.mean_degree = bigraph::mean_subgraph_degree(graph.graph, nodes);
        family.density = bigraph::subgraph_density(graph.graph, nodes);
        result.families.push_back(std::move(family));
      }
      if (want_prov) {
        dsd_merges += stats.first_level_shingles - stats.raw_components;
        for (const shingle::ShingleMerge& m : merges) {
          prov::Edge e;
          e.a = m.a;
          e.b = m.b;
          e.phase = prov::Phase::kDsd;
          e.rule = prov::Rule::kBd;
          e.score = static_cast<std::int32_t>(m.matches);
          e.matches = m.matches;
          e.columns = m.columns;
          dsd_edges.push_back(e);
        }
      }
    }
    std::sort(result.families.begin(), result.families.end(),
              [](const pipeline::Family& a, const pipeline::Family& b) {
                if (a.members.size() != b.members.size()) {
                  return a.members.size() > b.members.size();
                }
                return a.members.front() < b.members.front();
              });
  }

  if (want_prov) {
    prov::Ledger& ledger = result.provenance;
    ledger.sequences = set.size();
    ledger.edges = std::move(rr_edges);
    ledger.edges.insert(ledger.edges.end(), ccd_edges.begin(), ccd_edges.end());
    ledger.edges.insert(ledger.edges.end(), dsd_edges.begin(), dsd_edges.end());
    ledger.recount();
    ledger.counts.rr_merges = result.rr.removed_count();
    ledger.counts.ccd_merges = survivors.size() - result.ccd.components.size();
    ledger.counts.dsd_merges = dsd_merges;
  }
  const auto span_seconds = [&recorder](int index) {
    return recorder.spans()[static_cast<std::size_t>(index)].seconds();
  };
  result.rr_seconds = span_seconds(rr_span);
  result.ccd_seconds = span_seconds(ccd_span);
  result.bgg_dsd_seconds = span_seconds(bgg_dsd_span);
  if (options.artifacts) {
    const std::filesystem::path dir(options.work_dir);
    {
      const Scope span(recorder, "prov.write_ledger");
      prov::write_ledger((dir / "traced.prov.jsonl").string(),
                         result.provenance);
    }
    const Scope span(recorder, "pipeline.write_report");
    pipeline::write_report(dir / "traced.report.json", result, config,
                           {"perfbench", fasta, ""});
  }
  return out;
}

}  // namespace perfbench
