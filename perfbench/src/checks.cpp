#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

using namespace pclust;

pipeline::PipelineConfig make_config(const Options& options,
                                     const std::string& checkpoint_dir) {
  pipeline::PipelineConfig config;
  config.threads = options.threads;
  if (options.artifacts) {
    config.provenance = true;
    config.checkpoint_dir = checkpoint_dir;
  }
  return config;
}

std::string render_families(const std::vector<pipeline::Family>& families) {
  std::string out;
  char buf[64];
  for (const pipeline::Family& f : families) {
    for (const seq::SeqId id : f.members) {
      out += std::to_string(id);
      out += ' ';
    }
    std::snprintf(buf, sizeof(buf), "| %a %a\n", f.mean_degree, f.density);
    out += buf;
  }
  return out;
}

void corrupt(std::vector<pipeline::Family>& families) {
  if (families.size() < 2 || families[0].members.empty()) return;
  const seq::SeqId moved = families[0].members.back();
  families[0].members.pop_back();
  std::vector<seq::SeqId>& into = families[1].members;
  into.insert(std::upper_bound(into.begin(), into.end(), moved), moved);
}

void check_families(const pipeline::PipelineResult& result,
                    std::size_t sequences, std::uint32_t min_size,
                    std::vector<std::string>& failures) {
  std::unordered_map<seq::SeqId, std::size_t> component_of;
  for (std::size_t c = 0; c < result.ccd.components.size(); ++c) {
    for (const seq::SeqId id : result.ccd.components[c]) component_of[id] = c;
  }
  std::vector<std::uint8_t> used(sequences, 0);
  const auto fail = [&failures](std::size_t f, const char* rule) {
    failures.push_back("family " + std::to_string(f) + ": " + rule);
  };
  for (std::size_t f = 0; f < result.families.size(); ++f) {
    const pipeline::Family& family = result.families[f];
    const std::vector<seq::SeqId>& m = family.members;
    if (m.size() < min_size) return fail(f, "smaller than the size cutoff");
    if (f > 0 && m.size() > result.families[f - 1].members.size()) {
      return fail(f, "listed out of descending size order");
    }
    if (!std::is_sorted(m.begin(), m.end())) {
      return fail(f, "members not sorted");
    }
    for (const seq::SeqId id : m) {
      if (id >= sequences) return fail(f, "member id out of range");
      if (result.rr.removed[id]) return fail(f, "member removed by RR");
      if (used[id]++) return fail(f, "member in two families");
      const auto it = component_of.find(id);
      if (it == component_of.end() || it->second != component_of.at(m[0])) {
        return fail(f, "members span two CCD components");
      }
    }
    if (family.density !=
        family.mean_degree / static_cast<double>(m.size() - 1)) {
      return fail(f, "density != mean_degree / (size - 1)");
    }
  }
}

void check_work_identity(const char* phase,
                         const pace::EngineCounters& c,
                         std::vector<std::string>& failures) {
  const std::uint64_t candidates = c.promising_pairs - c.duplicate_pairs;
  if (c.duplicate_pairs > c.promising_pairs ||
      c.aligned_pairs + c.filtered_pairs != candidates) {
    failures.push_back(std::string(phase) +
                       ": attempted + skipped != candidate pairs");
  }
}

}  // namespace perfbench
