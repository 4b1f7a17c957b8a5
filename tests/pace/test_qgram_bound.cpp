// Soundness of the redundancy-removal q-gram reject bound (align/qgram.hpp):
// the floor is exactly the least count the q-gram lemma allows over every
// alignment containment_outcome accepts, the filter never rejects a pair the
// unfiltered predicate accepts, and RR removes the same sequences with the
// filter on as with it off.
#include "pclust/align/qgram.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/mpsim/machine_model.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/synth/presets.hpp"
#include "pclust/util/metrics.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::pace {
namespace {

constexpr auto kQ = static_cast<std::int64_t>(align::kQgram);

/// containment_outcome's verdict on an alignment spanning @p span of an
/// inner sequence of length @p m with @p matches matches and @p edits
/// other columns.
bool accepts(std::uint32_t m, std::uint32_t span, std::uint32_t matches,
             std::uint32_t edits, const align::ContainmentParams& params) {
  align::AlignmentResult r;
  r.a_end = span;
  r.matches = matches;
  r.columns = matches + edits;
  return align::containment_outcome(r, m, params).accepted;
}

/// The least L - q + 1 - q*e over every span L and edit count e that
/// containment_outcome accepts with every spanned residue matched, found by
/// sweeping every L and walking e up to the acceptance edge; 0 when that
/// minimum is not positive or nothing is accepted.
std::uint32_t brute_floor(std::uint32_t m,
                          const align::ContainmentParams& params) {
  std::int64_t best = std::numeric_limits<std::int64_t>::max();
  for (std::uint32_t span = 0; span <= m; ++span) {
    if (!accepts(m, span, span, 0, params)) continue;
    std::uint32_t edits = 0;
    while (accepts(m, span, span, edits + 1, params)) ++edits;
    best = std::min(best, std::int64_t{span} - kQ + 1 - kQ * edits);
  }
  return best > 0 && best != std::numeric_limits<std::int64_t>::max()
             ? static_cast<std::uint32_t>(best)
             : 0;
}

TEST(QgramBound, FloorIsTheExactMinimumAtTheDefaultCutoffs) {
  // 0.95 is not exact in binary: the edge cases (19/20 identity, spans of
  // exactly 95 % of m) are decided by the same double comparisons here as
  // in containment_outcome, for every inner length up to 4096.
  const align::ContainmentParams params;
  std::size_t active = 0;
  for (std::uint32_t m = 0; m <= 4096; ++m) {
    const std::uint32_t floor = align::containment_qgram_floor(m, params);
    ASSERT_EQ(floor, brute_floor(m, params)) << "m=" << m;
    active += floor > 0;
  }
  EXPECT_GT(active, 4000u) << "the bound must be on for all but short inners";
}

TEST(QgramBound, FloorIsTheExactMinimumAtOtherCutoffs) {
  const std::vector<align::ContainmentParams> cutoffs = {
      {0.90, 0.80}, {0.98, 0.99}, {1.0, 1.0}, {0.97, 0.5},
      // Loose or unsatisfiable cutoffs switch the bound off.
      {0.30, 0.95}, {0.95, 0.0}, {1.01, 0.95}, {0.95, 1.01}};
  for (const auto& params : cutoffs) {
    for (std::uint32_t m = 0; m <= 512; ++m) {
      ASSERT_EQ(align::containment_qgram_floor(m, params),
                brute_floor(m, params))
          << "m=" << m << " similarity=" << params.min_similarity
          << " coverage=" << params.min_coverage;
    }
  }
  EXPECT_EQ(align::containment_qgram_floor(400, {0.30, 0.95}), 0u);
  EXPECT_EQ(align::containment_qgram_floor(400, {1.01, 0.95}), 0u);
  EXPECT_GT(align::containment_qgram_floor(400, {1.0, 1.0}), 0u);
}

TEST(QgramBound, MismatchedSpansNeverAllowMoreEdits) {
  // The floor assumes every spanned inner residue is a match; an alignment
  // with fewer matches over the same span must not admit more edits.
  const align::ContainmentParams params;
  for (std::uint32_t m = align::kQgram; m <= 400; ++m) {
    const std::int64_t floor = align::containment_qgram_floor(m, params);
    if (floor == 0) continue;
    for (std::uint32_t span = 0; span <= m; ++span) {
      for (std::uint32_t matches = 0; matches <= span; ++matches) {
        for (std::uint32_t edits = 0; accepts(m, span, matches, edits, params);
             ++edits) {
          ASSERT_GE(std::int64_t{span} - kQ + 1 - kQ * edits, floor)
              << "m=" << m << " L=" << span << " M=" << matches
              << " e=" << edits;
        }
      }
    }
  }
}

std::string random_ranks(util::Xoshiro256& rng, std::size_t len) {
  std::string out(len, '\0');
  for (auto& c : out) c = static_cast<char>(rng.below(seq::kNumResidues));
  return out;
}

std::uint32_t naive_shared(const std::string& inner, const std::string& outer) {
  std::uint32_t shared = 0;
  for (std::size_t i = 0; i + align::kQgram <= inner.size(); ++i) {
    shared += outer.find(inner.substr(i, align::kQgram)) != std::string::npos;
  }
  return shared;
}

TEST(QgramBound, SharedPositionsEqualNaiveCount) {
  util::Xoshiro256 rng(4242);
  for (int trial = 0; trial < 400; ++trial) {
    // Small alphabets force repeated q-grams on both sides.
    const std::uint64_t alphabet = 2 + rng.below(seq::kNumResidues - 1);
    std::string inner(rng.below(120), '\0');
    std::string outer(rng.below(120), '\0');
    for (auto& c : inner) c = static_cast<char>(rng.below(alphabet));
    for (auto& c : outer) c = static_cast<char>(rng.below(alphabet));
    ASSERT_EQ(align::shared_qgram_positions(inner, outer),
              naive_shared(inner, outer))
        << "trial " << trial;
  }
  // Bytes above X's rank all count as X: the count can only grow.
  const std::string inner = {1, 2, 3, 4, 30, 5, 6, 7, 8};
  const std::string outer = {9, 1, 2, 3, 4, 40, 5, 6, 7, 8};
  EXPECT_EQ(naive_shared(inner, outer), 2u);
  EXPECT_EQ(align::shared_qgram_positions(inner, outer), 6u);
}

/// Inner core with @p edits evenly spread edits, the first @p hard of them
/// (spread among the rest) a mismatch or a deleted residue, the others an
/// outer residue inserted after the core residue.
std::string edit_core(util::Xoshiro256& rng, const std::string& core,
                      std::uint32_t edits, std::uint32_t hard) {
  std::string out;
  std::uint32_t next = 0;
  std::uint32_t hard_seen = 0;
  const auto position = [&](std::uint32_t j) {
    return (2 * std::size_t{j} + 1) * core.size() / (2 * std::size_t{edits});
  };
  for (std::size_t i = 0; i < core.size(); ++i) {
    if (next < edits && i == position(next)) {
      const bool is_hard = hard > 0 && next * hard / edits !=
                                           (next + 1) * hard / edits;
      ++next;
      if (is_hard && hard_seen++ % 2 == 0) {  // mismatch
        out.push_back(static_cast<char>(
            (core[i] + 1 + rng.below(seq::kNumResidues - 1)) %
            seq::kNumResidues));
        continue;
      }
      if (is_hard) continue;  // inner residue deleted: a gap in outer
      out.push_back(core[i]);  // outer residue inserted: a gap in inner
      out.push_back(static_cast<char>(rng.below(seq::kNumResidues)));
      continue;
    }
    out.push_back(core[i]);
  }
  return out;
}

TEST(QgramBound, NeverRejectsAnAcceptedContainment) {
  // Adversarial pairs at the acceptance edge: floor(L / 19) evenly spread
  // edits over an aligned span L of 95 % or 100 % of the inner sequence,
  // as many of them mismatches or outer gaps as identity still allows, the
  // rest inner gaps; plus variants past the edge. Unbanded and banded
  // (RR's --rr-band) alignments alike.
  const align::ContainmentParams params;
  util::Xoshiro256 rng(1991);
  std::vector<std::string> inners, outers;
  std::vector<std::int64_t> diagonals;
  const std::vector<std::uint32_t> lengths = {20,  38,  39,  57,  80,  97,
                                              120, 163, 200, 256, 311, 400,
                                              512, 640, 777, 2100};
  for (const std::uint32_t m : lengths) {
    const std::uint32_t shortest =
        (m * 95 + 99) / 100;  // ceil(0.95 m), up to rounding
    for (const std::uint32_t span : {m, shortest}) {
      for (int variant = 0; variant < 6; ++variant) {
        const std::uint32_t edits = span / 19 + (variant >= 4 ? 1 : 0);
        const std::uint32_t slack = span % 19;
        const std::uint32_t hard =
            std::min(edits, variant % 2 == 0 ? slack : slack + 1);
        const std::uint32_t left = (m - span) / 2;
        const std::string inner = random_ranks(rng, m);
        const std::string core = inner.substr(left, span);
        const std::uint32_t flank = static_cast<std::uint32_t>(rng.below(30));
        std::string outer = random_ranks(rng, flank) +
                            edit_core(rng, core, edits, hard) +
                            random_ranks(rng, rng.below(30));
        inners.push_back(inner);
        outers.push_back(std::move(outer));
        diagonals.push_back(std::int64_t{left} - flank);
      }
    }
  }

  std::vector<align::PairJob> jobs;
  for (std::size_t k = 0; k < inners.size(); ++k) {
    jobs.push_back({inners[k], outers[k], diagonals[k], -1});
    jobs.push_back({inners[k], outers[k], diagonals[k], 32});
  }
  std::vector<align::AlignmentResult> results(jobs.size());
  align::align_score_batch(jobs.data(), jobs.size(), align::blosum62(),
                           results.data());

  std::size_t accepted = 0;
  std::int64_t tightest = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::string& inner = inners[i / 2];
    const std::string& outer = outers[i / 2];
    if (!align::containment_outcome(results[i], inner.size(), params)
             .accepted) {
      continue;
    }
    ++accepted;
    const std::uint32_t floor =
        align::containment_qgram_floor(inner.size(), params);
    const std::uint32_t shared = align::shared_qgram_positions(inner, outer);
    EXPECT_FALSE(align::containment_provably_fails(inner, outer, params))
        << "m=" << inner.size() << " shared=" << shared << " floor=" << floor
        << (jobs[i].band < 0 ? " unbanded" : " banded");
    tightest = std::min(tightest, std::int64_t{shared} - floor);
  }
  EXPECT_GE(accepted, jobs.size() / 4) << "too few pairs reach the edge";
  // The spread edits destroy nearly as many q-grams as the bound allows.
  EXPECT_LT(tightest, 8);
  // And unrelated sequences are rejected without an alignment.
  EXPECT_TRUE(align::containment_provably_fails(random_ranks(rng, 300),
                                                random_ranks(rng, 400)));
}

PaceParams filter_params(bool on) {
  PaceParams params;
  params.qgram_filter = on;
  return params;
}

void expect_same_removals(const RedundancyResult& on,
                          const RedundancyResult& off) {
  EXPECT_EQ(on.removed, off.removed);
  EXPECT_EQ(on.container, off.container);
  EXPECT_EQ(on.counters.promising_pairs, off.counters.promising_pairs);
  EXPECT_EQ(on.counters.duplicate_pairs, off.counters.duplicate_pairs);
  EXPECT_EQ(on.counters.filtered_pairs, off.counters.filtered_pairs);
  EXPECT_EQ(on.counters.aligned_pairs, off.counters.aligned_pairs);
}

TEST(QgramBound, RedundancyRemovalUnchangedByTheFilter) {
  const seq::SequenceSet set =
      synth::generate(synth::paper_22k(0.008, 5)).sequences;
  exec::Pool pool(3);
  for (const std::uint32_t band : {0u, 32u}) {
    PaceParams on = filter_params(true);
    PaceParams off = filter_params(false);
    on.band = off.band = band;

    util::metrics().reset();
    const RedundancyResult serial_off = remove_redundant_serial(set, off);
    EXPECT_EQ(util::metrics().snapshot().counter("rr.qgram_rejected"), 0u);
    const RedundancyResult serial_on = remove_redundant_serial(set, on, &pool);
    const std::uint64_t rejected =
        util::metrics().snapshot().counter("rr.qgram_rejected");
    expect_same_removals(serial_on, serial_off);
    EXPECT_GT(serial_off.removed_count(), 0u);
    EXPECT_GT(rejected, 0u) << "band " << band;
    EXPECT_LT(serial_on.counters.alignment_cells,
              serial_off.counters.alignment_cells);

    const auto model = mpsim::MachineModel::bluegene_l();
    const RedundancyResult parallel_on = remove_redundant(set, 4, model, on);
    const RedundancyResult parallel_off = remove_redundant(set, 4, model, off);
    expect_same_removals(parallel_on, parallel_off);
    EXPECT_LT(parallel_on.run.makespan, parallel_off.run.makespan);
  }
}

}  // namespace
}  // namespace pclust::pace
