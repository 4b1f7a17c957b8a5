// Canonical derivation of RR/CCD merge provenance (prov::Edge lists).
//
// The engines' merge DECISIONS are schedule dependent (which pair's
// alignment triggers a union depends on batching, rank interleaving,
// faults, and resume points), but the final PARTITION is invariant. The
// provenance ledger therefore records the canonical decision sequence:
// the one the serial driver produces when it walks the canonical pair
// stream (engine.hpp canonical_pairs) from scratch. Two capture paths
// produce that sequence:
//
//   * decision-time capture — the serial CCD driver's merge recorder
//     (components.hpp, detect_components_serial on_merge) emits the edge
//     at the moment uf_.merge succeeds; zero extra alignments. Valid only
//     for a from-scratch serial run.
//   * canonical replay (derive_ccd_provenance) — for parallel,
//     hierarchical, faulted, or resumed runs: run_serial's verification
//     stage over the canonical pair stream with the CCD overlap worker and
//     a replay master (components.hpp make_ccd_replay_master): a fresh
//     union-find, plus a filter that skips WITHOUT aligning pairs whose
//     endpoints end in different final components (an accepted overlap
//     would have merged them — provably rejected), and an edge per
//     accepting merge.
//
// Replay equals capture by induction on the stream position: both walk
// the same pairs in the same order through the same lag-free stage, and at
// every position the replay union-find equals the serial master's forest.
// See DESIGN.md §16.
//
// RR provenance is derived post hoc: the removal chain guard ("a sequence
// is removed only if its container is itself still present") makes
// removed -> container pointers a forest, and each removal is exactly one
// conceptual merge. The evidence alignment is recomputed with the FULL
// dynamic program (no band) so the recorded stats are canonical even when
// the phase cut corners with a banded filter. All removals are scored in
// one batched call (align_score_batch: SIMD lanes, with the scalar engine
// for pairs past the lane caps), bit-identical to local_align_score.
#pragma once

#include <vector>

#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/pace/params.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/prov/edge.hpp"
#include "pclust/seq/sequence_set.hpp"

namespace pclust::pace {

/// The evidence edge for an accepting CCD verdict (shared by the serial
/// merge recorder and the canonical replay, so both emit identical edges).
[[nodiscard]] prov::Edge ccd_edge_from_verdict(const Verdict& v);

/// Canonical RR evidence: one containment edge per removed sequence, in
/// ascending removed-id order, each scored by the full-DP (unbanded) local
/// alignment of (removed, container). Pure function of (set, rr, params).
/// Never consults PaceParams::qgram_filter: it is one of the filter's
/// unfiltered oracles.
[[nodiscard]] std::vector<prov::Edge> derive_rr_provenance(
    const seq::SequenceSet& set, const RedundancyResult& rr,
    const PaceParams& params);

/// Canonical CCD evidence by replay (see file comment): exactly one edge
/// per surviving union-find merge, in canonical stream order. @p
/// components is the FINAL partition over @p ids (any order); it gates
/// the provable-reject fast path and is what makes the replay a pure
/// function of the final result rather than of the schedule. A pool
/// parallelizes index construction and the alignments — the edge list is
/// bit-identical without one. Counts its alignments into
/// prov.ccd_replay_alignments, never into the CCD phase's counters.
[[nodiscard]] std::vector<prov::Edge> derive_ccd_provenance(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params,
    const std::vector<std::vector<seq::SeqId>>& components,
    exec::Pool* pool = nullptr);

}  // namespace pclust::pace
