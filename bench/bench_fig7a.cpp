// Figure 7a — speedup of RR+CCD relative to the 32-node system, one series
// per input size, with the ideal line (paper: speedups closer to linear for
// larger inputs; from 128 to 512 nodes only 3.6 -> 6.7 vs ideal 4 -> 16).
//
// Shape targets: larger inputs scale better; all series fall away from
// ideal at high p.
#include <cstdio>

#include "common.hpp"
#include "pclust/util/strings.hpp"
#include "pclust/util/table.hpp"

int main() {
  using namespace pclust;
  using namespace pclust::bench;

  util::Table table({"series", "p=32", "p=64", "p=128", "p=512"});
  table.set_title("Figure 7a analog — RR+CCD speedup relative to p=32");
  // The paper's Fig. 7a plots n = 10K..80K (160K lacks a 32-node run).
  for (int paper_k : {10, 20, 40, 80}) {
    std::vector<std::string> row = {paper_n_label(paper_k)};
    double base = 0.0;
    for (int p : kProcessorCounts) {
      const auto t = run_rr_ccd(paper_k, p, /*qgram_filter=*/false);
      if (p == 32) base = t.total();
      row.push_back(util::format("%.2fx", base / t.total()));
    }
    table.add_row(row);
    std::fprintf(stderr, "  [%s done]\n", paper_n_label(paper_k).c_str());
  }
  table.add_row({"ideal", "1.00x", "2.00x", "4.00x", "16.00x"});
  table.add_footnote(
      "paper: closer-to-linear for larger inputs; 128->512 gains only "
      "~1.9x of the ideal 4x.");
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
