// Figure 6b — combined RR+CCD run-time as a function of input size, one
// series per processor count (the transpose of Fig. 6a).
//
// Shape targets: run-time grows superlinearly-to-quadratically with n
// (asymptotic worst case is quadratic; the clustering heuristic keeps the
// observed curve below it), and higher p sits lower.
#include <cstdio>

#include "common.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/table.hpp"

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  util::Table table({"series", "n=10k", "n=20k", "n=40k", "n=80k", "n=160k"});
  table.set_title("Figure 6b analog — RR+CCD run-time (simulated BG/L "
                  "seconds) vs input size (paper-unit n)");
  for (int p : kProcessorCounts) {
    std::vector<std::string> row = {util::format("p=%d", p)};
    for (int paper_k : kInputSizesK) {
      const auto t = run_rr_ccd(paper_k, p, /*qgram_filter=*/false);
      row.push_back(util::format("%.1f", t.total()));
    }
    table.add_row(row);
    std::fprintf(stderr, "  [p=%d done]\n", p);
  }
  table.add_footnote("shape: superlinear growth in n; higher p lower.");
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
