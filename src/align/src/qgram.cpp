#include "pclust/align/qgram.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "pclust/seq/alphabet.hpp"

namespace pclust::align {

namespace {

constexpr std::uint32_t kSymbols = seq::kAlphabetSize;  // 20 residues + X
constexpr unsigned kRankBits = 5;
constexpr std::uint32_t kCodeMask =
    (std::uint32_t{1} << (kRankBits * kQgram)) - 1;
/// Every rank is clamped to X's, so the leading one is below 21 too.
constexpr std::uint32_t kCodes = kSymbols << (kRankBits * (kQgram - 1));

/// Calls @p fn with the packed code of every q-gram of @p s, in order.
template <typename Fn>
void for_each_qgram(std::string_view s, Fn&& fn) {
  std::uint32_t code = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const std::uint32_t rank =
        std::min<std::uint32_t>(static_cast<std::uint8_t>(s[i]), kSymbols - 1);
    code = ((code << kRankBits) | rank) & kCodeMask;
    if (i + 1 >= kQgram) fn(code);
  }
}

}  // namespace

std::uint32_t containment_qgram_floor(std::size_t inner_len,
                                      const ContainmentParams& params) {
  if (inner_len < kQgram) return 0;
  const auto m = static_cast<std::uint32_t>(inner_len);
  // Would containment_outcome accept an alignment spanning @p span inner
  // residues with @p edits edit columns? Taking every spanned residue as a
  // match gives the most edits the identity cutoff lets through: fewer
  // matches only lower matches / columns.
  const auto accepts = [&](std::uint32_t span, std::uint32_t edits) {
    AlignmentResult r;
    r.a_end = span;
    r.matches = span;
    r.columns = span + edits;
    return containment_outcome(r, inner_len, params).accepted;
  };
  // Shortest acceptable span, from a guess refined with the exact rule.
  const double guess = std::ceil(params.min_coverage * m);
  auto span = static_cast<std::uint32_t>(
      std::clamp(std::isnan(guess) ? 1.0 : guess, 1.0, double(m)));
  while (span > 1 && accepts(span - 1, 0)) --span;
  while (span <= m && !accepts(span, 0)) ++span;
  if (span > m) return 0;  // no alignment passes the cutoffs at all

  // The allowed edit count never shrinks as the span grows, so one sweep
  // over the acceptable spans finds the minimum; q*e grows in steps of q, so
  // the minimum can sit just above the shortest span rather than at it.
  constexpr auto q = static_cast<std::int64_t>(kQgram);
  const auto bound = [q](std::uint32_t s, std::uint32_t e) {
    return std::int64_t{s} - q + 1 - q * std::int64_t{e};
  };
  std::uint32_t edits = 0;
  std::int64_t floor = std::numeric_limits<std::int64_t>::max();
  for (; span <= m; ++span) {
    // Loose cutoffs allow many edits; stop once the bound is spent.
    while (accepts(span, edits + 1)) {
      if (bound(span, ++edits) <= 0) return 0;
    }
    floor = std::min(floor, bound(span, edits));
    if (floor <= 0) return 0;
  }
  return static_cast<std::uint32_t>(floor);
}

std::uint32_t shared_qgram_positions(std::string_view inner,
                                     std::string_view outer) {
  // 21 << 15 bits (84 KiB). The full 2^20-bit code space would be a
  // 128 KiB block, the size at which glibc starts mmapping, and allocating
  // one per pool thread measurably slowed the process's later allocations.
  thread_local std::vector<std::uint64_t> seen(kCodes / 64);
  std::uint32_t shared = 0;
  for_each_qgram(outer, [&](std::uint32_t c) {
    seen[c >> 6] |= std::uint64_t{1} << (c & 63);
  });
  for_each_qgram(inner, [&](std::uint32_t c) {
    shared += static_cast<std::uint32_t>((seen[c >> 6] >> (c & 63)) & 1);
  });
  for_each_qgram(outer, [&](std::uint32_t c) { seen[c >> 6] = 0; });
  return shared;
}

bool containment_provably_fails(std::string_view inner,
                                std::string_view outer,
                                const ContainmentParams& params) {
  const std::uint32_t floor = containment_qgram_floor(inner.size(), params);
  return floor > 0 && shared_qgram_positions(inner, outer) < floor;
}

}  // namespace pclust::align
