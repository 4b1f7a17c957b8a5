#include "pclust/bigraph/builders.hpp"

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "pclust/pace/components.hpp"
#include "pclust/pace/engine.hpp"
#include "pclust/suffix/kmer_index.hpp"
#include "pclust/suffix/lcp.hpp"
#include "pclust/suffix/maximal_match.hpp"
#include "pclust/suffix/suffix_array.hpp"
#include "pclust/util/memsize.hpp"

namespace pclust::bigraph {

namespace {

/// B_d's master: no cluster filter (the individual edges matter); each
/// accepted overlap becomes the edge pair (i,j), (j,i).
class BdMaster final : public pace::MasterPolicy {
 public:
  explicit BdMaster(const std::vector<seq::SeqId>& members) {
    dense_.reserve(members.size());
    for (std::uint32_t i = 0; i < members.size(); ++i) dense_[members[i]] = i;
  }

  bool needs_alignment(const pace::PairTask& /*task*/) override {
    return true;
  }

  void apply(const pace::Verdict& v) override {
    if (v.code != 1) return;
    const std::uint32_t i = dense_.at(v.a);
    const std::uint32_t j = dense_.at(v.b);
    edges.push_back(Edge{i, j});
    edges.push_back(Edge{j, i});
  }

  std::vector<Edge> edges;

 private:
  std::unordered_map<seq::SeqId, std::uint32_t> dense_;
};

/// B_d verdicts never filter later pairs: batch for lane fill and the pool.
constexpr std::size_t kBdBatch = 4096;

}  // namespace

ComponentGraph build_bd(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BdParams& params, exec::Pool* pool) {
  ComponentGraph out;
  out.reduction = Reduction::kDuplicate;
  out.members = members;

  const pace::PaceParams& pp = params.pace;
  const suffix::ConcatText text(set, members);
  const auto sa =
      suffix::build_suffix_array(text.text(), seq::kIndexAlphabetSize);
  const auto lcp = suffix::build_lcp(text, sa);
  suffix::MaximalMatchParams mp;
  mp.min_length = pp.psi;
  mp.max_node_occurrences = pp.max_node_occurrences;
  const suffix::MaximalMatchEnumerator enumerator(text, sa, lcp, mp);

  // One alignment per candidate pair: the first maximal match seen for a
  // pair (pairs arrive longest-first) is its banded-alignment seed.
  std::vector<pace::PairTask> pairs;
  if (!sa.empty()) {
    std::unordered_set<std::uint64_t> seen;
    enumerator.enumerate(0, static_cast<std::int32_t>(sa.size()) - 1,
                         [&](const suffix::MaximalMatch& m) {
                           ++out.candidate_pairs;
                           const pace::PairTask t{m.a, m.b, m.a_pos, m.b_pos,
                                                  m.length};
                           if (seen.insert(t.pair_key()).second) {
                             pairs.push_back(t);
                           }
                           return true;
                         });
  }
  BdMaster master(members);
  const std::unique_ptr<pace::WorkerPolicy> worker =
      pace::make_overlap_worker(set, pp);
  const pace::EngineCounters verified =
      pace::verify_pairs(pairs, kBdBatch, master, *worker, pool);
  out.aligned_pairs = verified.aligned_pairs;
  out.alignment_cells = verified.alignment_cells;
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(members.size()),
                             static_cast<std::uint32_t>(members.size()),
                             std::move(master.edges));
  util::record_memory(out.graph.memory_usage(), "bgg");
  return out;
}

ComponentGraph build_bm(const seq::SequenceSet& set,
                        const std::vector<seq::SeqId>& members,
                        const BmParams& params) {
  ComponentGraph out;
  out.reduction = Reduction::kMatchBased;
  out.members = members;

  std::unordered_map<seq::SeqId, std::uint32_t> dense;
  dense.reserve(members.size());
  for (std::uint32_t i = 0; i < members.size(); ++i) dense[members[i]] = i;

  suffix::KmerIndex::Params kp;
  kp.w = params.w;
  kp.max_sequences_per_word = params.max_sequences_per_word;
  const suffix::KmerIndex index(set, members, kp);
  util::record_memory(index.memory_usage(), "bgg");

  std::vector<Edge> edges;
  out.words.reserve(index.word_count());
  for (std::size_t w = 0; w < index.word_count(); ++w) {
    const auto l = static_cast<std::uint32_t>(out.words.size());
    out.words.push_back(index.packed_word(w));
    for (seq::SeqId id : index.sequences_of(w)) {
      edges.push_back(Edge{l, dense.at(id)});
      ++out.candidate_pairs;
    }
  }
  out.graph = BipartiteGraph(static_cast<std::uint32_t>(out.words.size()),
                             static_cast<std::uint32_t>(members.size()),
                             std::move(edges));
  util::record_memory(out.graph.memory_usage(), "bgg");
  return out;
}

}  // namespace pclust::bigraph
