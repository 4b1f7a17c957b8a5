// Figure 6a — combined RR+CCD run-time as a function of processor count,
// one series per input size (paper: n = 10K..160K, p = 32..512 BG/L nodes;
// 160K at p=512 completed in 3h 20m).
//
// Shape targets: every series decreases with p; larger inputs sit higher;
// diminishing returns at high p.
#include <cstdio>

#include "common.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/table.hpp"

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  util::Table table({"series", "p=32", "p=64", "p=128", "p=512"});
  table.set_title("Figure 6a analog — RR+CCD run-time (simulated BG/L "
                  "seconds) vs processor count");
  for (int paper_k : kInputSizesK) {
    std::vector<std::string> row = {paper_n_label(paper_k)};
    for (int p : kProcessorCounts) {
      const auto t = run_rr_ccd(paper_k, p, /*qgram_filter=*/false);
      row.push_back(util::format("%.1f", t.total()));
    }
    table.add_row(row);
    std::fprintf(stderr, "  [%s done]\n", paper_n_label(paper_k).c_str());
  }
  table.add_footnote("paper (160K, p=512): 3h 20m; shapes: monotone decrease "
                     "in p, larger n higher.");
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
