// Shared q-gram count bound for the containment predicate (Definition 1).
//
// An alignment that containment_outcome accepts covers L >= min_coverage * m
// residues of an inner sequence of length m, and its identity
// matches / columns >= min_similarity caps its e = columns - matches edit
// columns. Each edit column breaks at most q of inner's q-gram positions
// inside the aligned span — a mismatch or a deleted inner residue q, an
// outer residue inserted between two inner ones q - 1 — so at least
// L - q + 1 - q*e of them reappear verbatim in the outer sequence (the
// q-gram lemma; Jokinen & Ukkonen 1991, SWIFT). A pair that shares fewer
// q-gram positions than the least such count over every acceptable (L, e)
// cannot be contained and needs no alignment. The argument holds for any
// alignment path, banded ones included.
//
// Redundancy removal uses the bound to skip the containment alignments it
// proves will fail (PaceParams::qgram_filter); the reference sweeps and the
// provenance derivation stay unfiltered, as the filter's oracles.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

#include "pclust/align/predicates.hpp"

namespace pclust::align {

/// q-gram length: four 5-bit residue ranks index an 84 KiB occurrence set.
inline constexpr std::size_t kQgram = 4;

/// The fewest q-gram positions of an inner sequence of length @p inner_len
/// that occur in the outer sequence of any pair containment_outcome accepts
/// under @p params: the minimum of L - q + 1 - q*e over every aligned span
/// L and edit count e that pass its double comparisons. 0 when the bound
/// cannot reject anything (inner shorter than the cutoffs make useful,
/// loose or unsatisfiable cutoffs).
[[nodiscard]] std::uint32_t containment_qgram_floor(
    std::size_t inner_len, const ContainmentParams& params = {});

/// Positions i in [0, |inner| - q] whose q-gram inner[i, i + q) occurs
/// anywhere in @p outer. Residues are ranks (seq/alphabet.hpp); any byte
/// above X's rank counts as X, and such aliasing only raises the count.
/// Uses an 84 KiB bitset per calling thread, cleared again before returning.
[[nodiscard]] std::uint32_t shared_qgram_positions(std::string_view inner,
                                                   std::string_view outer);

/// True iff the bound proves that containment_outcome rejects every
/// alignment of (@p inner, @p outer), banded or not.
[[nodiscard]] bool containment_provably_fails(
    std::string_view inner, std::string_view outer,
    const ContainmentParams& params = {});

}  // namespace pclust::align
