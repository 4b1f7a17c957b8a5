// Thread-count independence of the PaCE phases: the final cluster STATE
// (removed/container for RR, the component partition for CCD) must be
// bit-identical for every pool size. RR counters are deliberately excluded
// — its batched filter may admit extra no-op verdicts (see engine.hpp) —
// while serial CCD admission is lag-free, so its counters and merge order
// must equal an independent one-pair-at-a-time walk at every pool size.
#include <gtest/gtest.h>

#include <unordered_map>
#include <unordered_set>

#include "pclust/align/predicates.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/exec/pool.hpp"
#include "pclust/pace/components.hpp"
#include "pclust/pace/redundancy.hpp"
#include "pclust/pace/reference.hpp"
#include "pclust/synth/generator.hpp"

namespace pclust::pace {
namespace {

synth::Dataset make_data(std::uint64_t seed, std::uint32_t n = 160) {
  synth::DatasetSpec spec;
  spec.seed = seed;
  spec.num_sequences = n;
  spec.num_families = 5;
  spec.mean_length = 70;
  spec.redundant_fraction = 0.15;
  spec.noise_fraction = 0.15;
  return synth::generate(spec);
}

TEST(Determinism, SerialRrStateIndependentOfThreads) {
  const auto d = make_data(31);
  const auto golden = remove_redundant_serial(d.sequences);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = remove_redundant_serial(d.sequences, {}, &pool);
    EXPECT_EQ(r.removed, golden.removed) << "threads=" << threads;
    EXPECT_EQ(r.container, golden.container) << "threads=" << threads;
  }
}

TEST(Determinism, SerialCcdStateIndependentOfThreads) {
  const auto d = make_data(32);
  const auto survivors = remove_redundant_serial(d.sequences).survivors();
  const auto golden = detect_components_serial(d.sequences, survivors);
  for (unsigned threads : {1u, 2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = detect_components_serial(d.sequences, survivors, {}, &pool);
    EXPECT_EQ(r.components, golden.components) << "threads=" << threads;
  }
}

/// The one-pair-at-a-time CCD walk, written out independently of the
/// engine: every pair of the canonical stream is aligned alone, right
/// after the previous verdict was folded in. Returns its counters and
/// fills @p merges with the accepted merges in decision order.
EngineCounters per_pair_ccd(const seq::SequenceSet& set,
                            const std::vector<seq::SeqId>& ids,
                            const PaceParams& params,
                            std::vector<std::uint64_t>& merges) {
  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  for (std::uint32_t i = 0; i < ids.size(); ++i) dense[ids[i]] = i;
  dsu::UnionFind uf(ids.size());
  std::unordered_set<std::uint64_t> seen;
  EngineCounters c;
  for (const PairTask& task : canonical_pairs(set, ids, params)) {
    ++c.promising_pairs;
    if (!seen.insert(task.pair_key()).second) {
      ++c.duplicate_pairs;
      continue;
    }
    if (uf.same(dense[task.a], dense[task.b])) {
      ++c.filtered_pairs;
      continue;
    }
    ++c.aligned_pairs;
    const auto a = set.residues(task.a);
    const auto b = set.residues(task.b);
    const align::PredicateOutcome out =
        params.band > 0
            ? align::test_overlap_banded(a, b, params.scheme(),
                                         task.diagonal(), params.band,
                                         params.overlap)
            : align::test_overlap(a, b, params.scheme(), params.overlap);
    c.alignment_cells += out.alignment.cells;
    if (out.accepted && uf.merge(dense[task.a], dense[task.b])) {
      merges.push_back(task.pair_key());
    }
  }
  return c;
}

TEST(Determinism, SerialCcdCountersMatchPerPairWalkAtAnyPoolSize) {
  const auto d = make_data(36, 200);
  const auto survivors = remove_redundant_serial(d.sequences).survivors();
  for (const std::uint32_t band : {0u, 32u}) {
    for (const std::uint32_t batch : {256u, 7u}) {
      PaceParams params;
      params.band = band;
      params.batch_size = batch;
      std::vector<std::uint64_t> golden_merges;
      const EngineCounters golden =
          per_pair_ccd(d.sequences, survivors, params, golden_merges);
      ASSERT_GT(golden.aligned_pairs, 0u);
      ASSERT_GT(golden.filtered_pairs, 0u);
      for (const unsigned threads : {0u, 2u, 4u}) {
        std::unique_ptr<exec::Pool> pool;
        if (threads > 0) pool = std::make_unique<exec::Pool>(threads);
        std::vector<std::uint64_t> merges;
        const auto r = detect_components_serial(
            d.sequences, survivors, params, pool.get(), nullptr, 0, nullptr,
            [&merges](const Verdict& v) {
              merges.push_back(PairTask{v.a, v.b}.pair_key());
            });
        const std::string where = "band=" + std::to_string(band) +
                                  " batch=" + std::to_string(batch) +
                                  " threads=" + std::to_string(threads);
        EXPECT_EQ(r.counters.promising_pairs, golden.promising_pairs)
            << where;
        EXPECT_EQ(r.counters.duplicate_pairs, golden.duplicate_pairs)
            << where;
        EXPECT_EQ(r.counters.filtered_pairs, golden.filtered_pairs) << where;
        EXPECT_EQ(r.counters.aligned_pairs, golden.aligned_pairs) << where;
        EXPECT_EQ(r.counters.alignment_cells, golden.alignment_cells)
            << where;
        EXPECT_EQ(merges, golden_merges) << where;
      }
    }
  }
}

TEST(Determinism, SimulatedRrStateIndependentOfThreads) {
  const auto d = make_data(33);
  const auto golden =
      remove_redundant(d.sequences, 4, mpsim::MachineModel::free());
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    const auto r =
        remove_redundant(d.sequences, 4, mpsim::MachineModel::free(), {},
                         &pool);
    EXPECT_EQ(r.removed, golden.removed) << "threads=" << threads;
    EXPECT_EQ(r.container, golden.container) << "threads=" << threads;
    // The virtual clock is charged serially in task order, so even the
    // simulated makespan must not depend on the real thread count.
    EXPECT_EQ(r.run.makespan, golden.run.makespan) << "threads=" << threads;
  }
}

TEST(Determinism, SimulatedCcdStateIndependentOfThreads) {
  const auto d = make_data(34);
  const auto survivors = remove_redundant_serial(d.sequences).survivors();
  const auto golden = detect_components(d.sequences, survivors, 3,
                                        mpsim::MachineModel::free());
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    const auto r = detect_components(d.sequences, survivors, 3,
                                     mpsim::MachineModel::free(), {}, &pool);
    EXPECT_EQ(r.components, golden.components) << "threads=" << threads;
    EXPECT_EQ(r.run.makespan, golden.run.makespan) << "threads=" << threads;
  }
}

TEST(Determinism, BruteForceCcdMatchesSerialIncludingStats) {
  const auto d = make_data(35, 60);
  std::vector<seq::SeqId> ids(d.sequences.size());
  for (seq::SeqId i = 0; i < d.sequences.size(); ++i) ids[i] = i;
  BruteForceStats golden_stats;
  const auto golden =
      detect_components_bruteforce(d.sequences, ids, {}, &golden_stats);
  for (unsigned threads : {2u, 8u}) {
    exec::Pool pool(threads);
    BruteForceStats stats;
    const auto r =
        detect_components_bruteforce(d.sequences, ids, {}, &stats, &pool);
    EXPECT_EQ(r, golden) << "threads=" << threads;
    // Brute force has no order-dependent filter: stats match exactly too.
    EXPECT_EQ(stats.alignments, golden_stats.alignments);
    EXPECT_EQ(stats.cells, golden_stats.cells);
  }
}

}  // namespace
}  // namespace pclust::pace
