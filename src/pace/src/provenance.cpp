#include "pclust/pace/provenance.hpp"

#include <memory>

#include "pclust/align/batch.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {

prov::Edge ccd_edge_from_verdict(const Verdict& v) {
  prov::Edge e;
  e.a = v.a;
  e.b = v.b;
  e.phase = prov::Phase::kCcd;
  e.rule = prov::Rule::kOverlap;
  e.score = v.score;
  e.matches = v.matches;
  e.columns = v.columns;
  e.a_span = v.a_span;
  e.b_span = v.b_span;
  return e;
}

std::vector<prov::Edge> derive_rr_provenance(const seq::SequenceSet& set,
                                             const RedundancyResult& rr,
                                             const PaceParams& params) {
  // One edge and one unbanded (removed, container) job per removal, in
  // ascending removed-id order; all jobs are scored in a single batch.
  std::vector<prov::Edge> edges;
  std::vector<align::PairJob> jobs;
  edges.reserve(rr.removed_count());
  jobs.reserve(rr.removed_count());
  for (seq::SeqId id = 0; id < rr.removed.size(); ++id) {
    if (!rr.removed[id]) continue;
    prov::Edge e;
    e.a = id;
    e.b = rr.container[id];
    e.phase = prov::Phase::kRr;
    e.rule = prov::Rule::kContainment;
    edges.push_back(e);
    jobs.push_back({set.residues(e.a), set.residues(e.b)});
  }
  std::vector<align::AlignmentResult> results(jobs.size());
  align::align_score_batch(jobs.data(), jobs.size(), params.scheme(),
                           results.data());

  // The phase's (possibly banded) decision already stands; the canonical
  // full-DP alignment is recorded as evidence even in the rare case its
  // cutoff check disagrees with the banded filter's.
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const align::AlignmentResult& r = results[k];
    prov::Edge& e = edges[k];
    e.score = r.score;
    e.matches = r.matches;
    e.columns = r.columns;
    e.a_span = r.a_end - r.a_begin;
    e.b_span = r.b_end - r.b_begin;
  }
  return edges;
}

std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool) {
  std::vector<prov::Edge> edges;
  const std::unique_ptr<MasterPolicy> master = make_ccd_replay_master(
      ids, components, [&edges](const Verdict& v) {
        edges.push_back(ccd_edge_from_verdict(v));
      });
  const std::unique_ptr<WorkerPolicy> worker = make_overlap_worker(set, params);
  const EngineCounters c =
      verify_pairs(canonical_pairs(set, ids, params, pool), params.batch_size,
                   *master, *worker, pool);
  util::metrics().counter("prov.ccd_replay_alignments").add(c.aligned_pairs);
  return edges;
}

}  // namespace pclust::pace
