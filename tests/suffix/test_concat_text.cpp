#include "pclust/suffix/concat_text.hpp"

#include <gtest/gtest.h>

#include "pclust/seq/alphabet.hpp"

namespace pclust::suffix {
namespace {

seq::SequenceSet make_set() {
  seq::SequenceSet set;
  set.add("a", "ACDE");   // positions 0..3, separator at 4
  set.add("b", "FF");     // positions 5..6, separator at 7
  set.add("c", "GHIKL");  // positions 8..12, separator at 13
  return set;
}

TEST(ConcatText, LayoutAndSize) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.size(), 4u + 1 + 2 + 1 + 5 + 1);
  EXPECT_EQ(text.sequence_count(), 3u);
  EXPECT_TRUE(text.is_separator(4));
  EXPECT_TRUE(text.is_separator(7));
  EXPECT_TRUE(text.is_separator(13));
  EXPECT_FALSE(text.is_separator(0));
}

TEST(ConcatText, SequenceAtAndOffsetAt) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.sequence_at(0), 0u);
  EXPECT_EQ(text.sequence_at(3), 0u);
  EXPECT_EQ(text.sequence_at(5), 1u);
  EXPECT_EQ(text.sequence_at(8), 2u);
  EXPECT_EQ(text.sequence_at(12), 2u);
  EXPECT_EQ(text.offset_at(0), 0u);
  EXPECT_EQ(text.offset_at(6), 1u);
  EXPECT_EQ(text.offset_at(12), 4u);
}

TEST(ConcatText, RunLength) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.run_length(0), 4u);
  EXPECT_EQ(text.run_length(3), 1u);
  EXPECT_EQ(text.run_length(4), 0u);  // separator
  EXPECT_EQ(text.run_length(8), 5u);
}

TEST(ConcatText, LeftChar) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.left_char(0), seq::kRankSeparator);  // text start
  EXPECT_EQ(text.left_char(5), seq::kRankSeparator);  // sequence start
  EXPECT_EQ(text.left_char(1), seq::char_to_rank('A'));
  EXPECT_EQ(text.left_char(9), seq::char_to_rank('G'));
}

TEST(ConcatText, SubsetMapsToOriginalIds) {
  const auto set = make_set();
  const ConcatText text(set, {2, 0});
  EXPECT_EQ(text.sequence_count(), 2u);
  EXPECT_EQ(text.sequence_at(0), 2u);  // first subset sequence is "c"
  EXPECT_EQ(text.at(0), seq::char_to_rank('G'));
  EXPECT_EQ(text.sequence_at(6), 0u);  // then "a"
  EXPECT_EQ(text.offset_at(6), 0u);
}

TEST(ConcatText, StartOf) {
  const auto set = make_set();
  const ConcatText text(set);
  EXPECT_EQ(text.start_of(0), 0u);
  EXPECT_EQ(text.start_of(1), 5u);
  EXPECT_EQ(text.start_of(2), 8u);
}

TEST(ConcatText, MemoryUsageNamedAndNonZero) {
  const auto set = make_set();
  const auto b = ConcatText(set).memory_usage();
  EXPECT_EQ(b.name, "concat_text");
  EXPECT_GT(b.total(), 0u);
}

}  // namespace
}  // namespace pclust::suffix
