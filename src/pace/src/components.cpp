#include "pclust/pace/components.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "pclust/align/batch.hpp"
#include "pclust/align/predicates.hpp"
#include "pclust/dsu/union_find.hpp"
#include "pclust/util/memsize.hpp"
#include "pclust/util/metrics.hpp"

namespace pclust::pace {

namespace {

/// The CCD master, and (as a ShardPolicy) one sub-master's replica of it
/// in hierarchical mode.
class CcdMaster final : public MasterPolicy, public ShardPolicy {
 public:
  /// @p on_merge (optional) is the merge-provenance recorder: fired exactly
  /// once per SURVIVING union–find merge, at the moment of decision, with
  /// the verdict that caused it. Sound for the serial driver (one
  /// authoritative state, in stream order, lag-free at any pool size); the
  /// parallel/hierarchical engines instead derive provenance by canonical
  /// replay (pace/provenance.hpp). With @p final_components this is that
  /// replay's master (make_ccd_replay_master).
  explicit CcdMaster(
      const std::vector<seq::SeqId>& ids,
      std::function<void(const Verdict&)> on_merge = nullptr,
      const std::vector<std::vector<seq::SeqId>>* final_components = nullptr)
      : ids_(ids), on_merge_(std::move(on_merge)) {
    dense_.reserve(ids.size());
    for (std::uint32_t i = 0; i < ids.size(); ++i) dense_[ids[i]] = i;
    uf_.reset(ids.size());
    if (!final_components) return;
    final_.reset(ids.size());
    for (const auto& component : *final_components) {
      for (const seq::SeqId member : component) {
        const auto it = dense_.find(member);
        if (it == dense_.end()) {
          throw std::invalid_argument(
              "derive_ccd_provenance: component member is not in the id set");
        }
        final_.merge(dense_.at(component.front()), it->second);
      }
    }
  }

  bool needs_alignment(const PairTask& task) override {
    const std::uint32_t da = dense_.at(task.a);
    const std::uint32_t db = dense_.at(task.b);
    // Provable reject (replay): the final partition is the transitive
    // closure of accepted overlaps, so a pair straddling two final
    // components was necessarily rejected — skip it without aligning.
    if (replay() && !final_.same(da, db)) return false;
    return !uf_.same(da, db);
  }

  /// Lag-free: a pair linked only through pending merges must wait.
  bool admit_pending(const PairTask& task, std::size_t pending) override {
    if (pending == 0) pending_.clear();
    const std::uint32_t ra = pending_root(dense_.at(task.a));
    const std::uint32_t rb = pending_root(dense_.at(task.b));
    if (ra == rb) return false;
    pending_[ra] = rb;
    return true;
  }

  void apply(const Verdict& v) override {
    if (!absorb(v)) return;
    if (!replay()) util::metrics().counter("ccd.uf_merges").add(1);
    if (on_merge_) on_merge_(v);
  }

  /// CCD supports hierarchical masters: apply is a union–find merge —
  /// confluent and idempotent — so shard replicas and root event replay
  /// are sound. Each replica is a CcdMaster of its own over the same ids.
  std::unique_ptr<ShardPolicy> make_shard() override {
    return std::make_unique<CcdMaster>(ids_);
  }

  /// Replica side: fold a shard or synced verdict; true iff uf_ changed.
  /// Replicas may lag or replay events in any order and still converge; a
  /// replica only filters pairs its shard has PROVEN connected.
  bool absorb(const Verdict& v) override {
    return v.code == 1 && uf_.merge(dense_.at(v.a), dense_.at(v.b));
  }

  /// Snapshot the union–find forest for checkpointing.
  [[nodiscard]] const std::vector<std::uint32_t>& parents() const {
    return uf_.parents();
  }

  /// Restore a parents() snapshot (resume). Throws std::invalid_argument
  /// if the snapshot does not match this run's id universe.
  void restore(const std::vector<std::uint32_t>& parents) {
    if (parents.size() != ids_.size()) {
      throw std::invalid_argument(
          "CCD resume: union–find snapshot size does not match the input "
          "id set");
    }
    uf_.restore(parents);
  }

  [[nodiscard]] std::vector<std::vector<seq::SeqId>> components() const {
    auto sets = uf_.extract_sets();
    std::vector<std::vector<seq::SeqId>> out;
    out.reserve(sets.size());
    for (auto& s : sets) {
      std::vector<seq::SeqId> members;
      members.reserve(s.size());
      for (auto dense : s) members.push_back(ids_[dense]);
      std::sort(members.begin(), members.end());
      out.push_back(std::move(members));
    }
    std::sort(out.begin(), out.end(), [](const auto& x, const auto& y) {
      if (x.size() != y.size()) return x.size() > y.size();
      return x.front() < y.front();
    });
    return out;
  }

  /// Publish the master's union–find footprint under the phase prefix.
  void record_memory(const char* phase_label) const {
    util::record_memory(uf_.memory_usage(),
                        phase_label ? phase_label : "ccd");
  }

 private:
  [[nodiscard]] bool replay() const { return final_.size() > 0; }

  [[nodiscard]] std::uint32_t pending_root(std::uint32_t x) const {
    x = uf_.find(x);
    for (auto it = pending_.find(x); it != pending_.end();) {
      x = it->second;
      it = pending_.find(x);
    }
    return x;
  }

  const std::vector<seq::SeqId>& ids_;
  std::unordered_map<seq::SeqId, std::uint32_t> dense_;
  dsu::UnionFind uf_;
  std::unordered_map<std::uint32_t, std::uint32_t> pending_;  // uf_ roots
  dsu::UnionFind final_;  // the finished partition (replay only)
  std::function<void(const Verdict&)> on_merge_;
};

class CcdWorker final : public WorkerPolicy {
 public:
  CcdWorker(const seq::SequenceSet& set, const PaceParams& params)
      : set_(set), params_(params) {}

  /// One overlap alignment per task, packed into SIMD lanes.
  void evaluate_batch(const PairTask* tasks, std::size_t count,
                      Verdict* verdicts, std::uint64_t* cells) override {
    const std::int64_t band =
        params_.band > 0 ? static_cast<std::int64_t>(params_.band)
                         : std::int64_t{-1};
    std::vector<align::PairJob> jobs;
    jobs.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
      jobs.push_back({set_.residues(tasks[k].a), set_.residues(tasks[k].b),
                      tasks[k].diagonal(), band});
    }
    std::vector<align::AlignmentResult> results(count);
    align::align_score_batch(jobs.data(), count, params_.scheme(),
                             results.data());
    for (std::size_t k = 0; k < count; ++k) {
      const align::PredicateOutcome out = align::overlap_outcome(
          results[k], jobs[k].a.size(), jobs[k].b.size(), params_.overlap);
      const align::AlignmentResult& r = out.alignment;
      if (cells) cells[k] += r.cells;
      verdicts[k] = Verdict{tasks[k].a, tasks[k].b,
                            static_cast<std::uint8_t>(out.accepted ? 1 : 0),
                            r.score, r.matches, r.columns,
                            r.a_end - r.a_begin, r.b_end - r.b_begin};
    }
  }

 private:
  const seq::SequenceSet& set_;
  const PaceParams& params_;
};

}  // namespace

std::unique_ptr<WorkerPolicy> make_overlap_worker(const seq::SequenceSet& set,
                                                  const PaceParams& params) {
  return std::make_unique<CcdWorker>(set, params);
}

std::unique_ptr<MasterPolicy> make_ccd_replay_master(
    const std::vector<seq::SeqId>& ids,
    const std::vector<std::vector<seq::SeqId>>& components,
    std::function<void(const Verdict&)> on_merge) {
  return std::make_unique<CcdMaster>(ids, std::move(on_merge), &components);
}

std::size_t ComponentsResult::count_with_min_size(std::size_t min_size) const {
  std::size_t n = 0;
  for (const auto& c : components) n += c.size() >= min_size ? 1 : 0;
  return n;
}

std::size_t ComponentsResult::sequences_in_min_size(
    std::size_t min_size) const {
  std::size_t n = 0;
  for (const auto& c : components) {
    if (c.size() >= min_size) n += c.size();
  }
  return n;
}

ComponentsResult detect_components(const seq::SequenceSet& set,
                                   const std::vector<seq::SeqId>& ids, int p,
                                   const mpsim::MachineModel& model,
                                   const PaceParams& params, exec::Pool* pool,
                                   const mpsim::FaultPlan* plan) {
  ComponentsResult result;
  CcdMaster master(ids);
  result.run = run_parallel(
      set, ids, p, model, params, master,
      [&set, &params] { return std::make_unique<CcdWorker>(set, params); },
      &result.counters, pool, plan);
  master.record_memory(params.phase_label);
  result.components = master.components();
  return result;
}

ComponentsResult detect_components_serial(
    const seq::SequenceSet& set, const std::vector<seq::SeqId>& ids,
    const PaceParams& params, exec::Pool* pool, const CcdProgress* resume,
    std::uint64_t checkpoint_stride,
    const std::function<void(const CcdProgress&)>& on_checkpoint,
    const std::function<void(const Verdict&)>& on_merge) {
  ComponentsResult result;
  CcdMaster master(ids, on_merge);
  CcdWorker worker(set, params);

  SerialHooks hooks;
  hooks.checkpoint_stride = checkpoint_stride;  // ignored without a callee
  if (resume) {
    master.restore(resume->parents);
    hooks.start_pair = resume->next_pair;
  }
  if (on_checkpoint) {
    hooks.checkpoint = [&](std::uint64_t next_pair) {
      on_checkpoint(CcdProgress{master.parents(), next_pair});
    };
  }
  result.counters = run_serial(set, ids, params, master, worker, pool, &hooks);
  master.record_memory(params.phase_label);
  result.components = master.components();
  return result;
}

}  // namespace pclust::pace
