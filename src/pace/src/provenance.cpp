#include "pclust/pace/provenance.hpp"

#include <memory>

#include "pclust/align/predicates.hpp"
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
  std::vector<prov::Edge> edges;
  edges.reserve(rr.removed_count());
  for (seq::SeqId id = 0; id < rr.removed.size(); ++id) {
    if (!rr.removed[id]) continue;
    const seq::SeqId container = rr.container[id];
    const align::PredicateOutcome out = align::test_containment(
        set.residues(id), set.residues(container), params.scheme(),
        params.containment);
    // The phase's (possibly banded) decision already stands; the canonical
    // full-DP alignment is recorded as evidence even in the rare case its
    // cutoff check disagrees with the banded filter's.
    prov::Edge e;
    e.a = id;
    e.b = container;
    e.phase = prov::Phase::kRr;
    e.rule = prov::Rule::kContainment;
    e.score = out.alignment.score;
    e.matches = out.alignment.matches;
    e.columns = out.alignment.columns;
    e.a_span = out.alignment.a_end - out.alignment.a_begin;
    e.b_span = out.alignment.b_end - out.alignment.b_begin;
    edges.push_back(e);
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
