// RR evidence (derive_rr_provenance) scores every removal in one batched
// align_score_batch call. Each edge must carry exactly the statistics of
// the scalar full-DP containment alignment of (removed, container), at
// whatever ISA PCLUST_SIMD selects — including removals past the 16-bit
// lanes' 2047-residue cap, which take the scalar fallback.
#include "pclust/pace/provenance.hpp"

#include <gtest/gtest.h>

#include <string>

#include "pclust/align/predicates.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/seq/alphabet.hpp"
#include "pclust/synth/generator.hpp"
#include "pclust/util/rng.hpp"

namespace pclust::pace {
namespace {

std::string random_ranks(util::Xoshiro256& rng, std::size_t len) {
  std::string out(len, '\0');
  for (auto& c : out) c = static_cast<char>(rng.below(seq::kNumResidues));
  return out;
}

/// A synth set with injected duplicates, plus one long sequence contained
/// in an even longer one — its removal is wider than any SIMD lane.
seq::SequenceSet make_set() {
  synth::DatasetSpec spec;
  spec.seed = 31;
  spec.num_sequences = 200;
  spec.num_families = 4;
  spec.mean_length = 80;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.20;
  seq::SequenceSet set = synth::generate(spec).sequences;

  util::Xoshiro256 rng(2048);
  const std::string long_inner = random_ranks(rng, 2100);
  set.add_encoded("long_outer",
                  random_ranks(rng, 40) + long_inner + random_ranks(rng, 40));
  set.add_encoded("long_inner", long_inner);
  return set;
}

TEST(RrProvenance, EdgesEqualScalarContainmentAlignment) {
  const seq::SequenceSet set = make_set();
  const PaceParams params;
  const RedundancyResult rr = remove_redundant_serial(set, params);
  const seq::SeqId long_inner = static_cast<seq::SeqId>(set.size() - 1);
  ASSERT_TRUE(rr.removed[long_inner]) << "the lane-cap removal must occur";
  ASSERT_GT(set.residues(long_inner).size(), 2047u);

  const std::vector<prov::Edge> edges = derive_rr_provenance(set, rr, params);
  ASSERT_EQ(edges.size(), rr.removed_count());
  ASSERT_GE(edges.size(), 16u) << "too few removals to fill a lane batch";
  seq::SeqId prev = 0;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    const prov::Edge& e = edges[k];
    if (k > 0) {
      EXPECT_GT(e.a, prev) << "edges in ascending removed-id order";
    }
    prev = e.a;
    ASSERT_TRUE(rr.removed[e.a]);
    EXPECT_EQ(e.b, rr.container[e.a]);
    EXPECT_EQ(e.phase, prov::Phase::kRr);
    EXPECT_EQ(e.rule, prov::Rule::kContainment);
    const align::AlignmentResult ref =
        align::test_containment(set.residues(e.a), set.residues(e.b),
                                params.scheme(), params.containment)
            .alignment;
    EXPECT_EQ(e.score, ref.score) << "removed " << e.a;
    EXPECT_EQ(e.matches, ref.matches) << "removed " << e.a;
    EXPECT_EQ(e.columns, ref.columns) << "removed " << e.a;
    EXPECT_EQ(e.a_span, ref.a_end - ref.a_begin) << "removed " << e.a;
    EXPECT_EQ(e.b_span, ref.b_end - ref.b_begin) << "removed " << e.a;
  }
}

}  // namespace
}  // namespace pclust::pace
