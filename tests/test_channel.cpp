#include "noc/channel.h"

#include <gtest/gtest.h>

#include <cstdint>

namespace rlftnoc {
namespace {

TEST(DelayLine, DeliversAfterLatency) {
  DelayLine<int> d(2);
  d.push(10, 42);
  EXPECT_FALSE(d.pop(10).has_value());
  EXPECT_FALSE(d.pop(11).has_value());
  const auto v = d.pop(12);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 42);
  EXPECT_TRUE(d.empty());
}

TEST(DelayLine, FifoOrder) {
  DelayLine<int> d(1);
  d.push(0, 1);
  d.push(0, 2);
  d.push(1, 3);
  EXPECT_EQ(*d.pop(5), 1);
  EXPECT_EQ(*d.pop(5), 2);
  EXPECT_EQ(*d.pop(5), 3);
  EXPECT_FALSE(d.pop(5).has_value());
}

TEST(DelayLine, StretchedEntryBlocksFollowers) {
  // A mode-3 stretched transfer keeps the wire busy: followers pushed after
  // the stretch (the occupancy protocol guarantees this, and push enforces
  // monotone stamps — see test_audit.cpp for the violation death test) wait
  // their own latency but never overtake.
  DelayLine<int> d(1);
  d.push_delayed(0, 1, 5);  // matures at 6
  d.push(6, 2);             // matures at 7, FIFO behind the first
  EXPECT_FALSE(d.pop(5).has_value());
  EXPECT_EQ(*d.pop(6), 1);
  EXPECT_FALSE(d.pop(6).has_value());
  EXPECT_EQ(*d.pop(7), 2);
}

TEST(DelayLine, PushDelayedAddsExtra) {
  DelayLine<int> d(1);
  d.push_delayed(0, 9, 2);
  EXPECT_FALSE(d.pop(2).has_value());
  EXPECT_EQ(*d.pop(3), 9);
}

TEST(DelayLine, SizeTracksEntries) {
  DelayLine<int> d(1);
  EXPECT_EQ(d.size(), 0u);
  d.push(0, 1);
  d.push(0, 2);
  EXPECT_EQ(d.size(), 2u);
  d.pop(10);
  EXPECT_EQ(d.size(), 1u);
}

TEST(DelayLine, MovesValueOut) {
  DelayLine<std::unique_ptr<int>> d(1);
  d.push(0, std::make_unique<int>(7));
  auto v = d.pop(1);
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(**v, 7);
}

TEST(DelayLineOccupancy, PushSetsByte) {
  std::uint8_t occ = 0;
  DelayLine<int> d(1);
  d.bind(&occ);
  EXPECT_EQ(occ, 0);
  d.push(0, 1);
  EXPECT_EQ(occ, 1);
  d.push_delayed(0, 2, 3);
  EXPECT_EQ(occ, 1);
}

TEST(DelayLineOccupancy, ImmaturePopKeepsByte) {
  std::uint8_t occ = 0;
  DelayLine<int> d(2);
  d.bind(&occ);
  d.push(0, 1);
  EXPECT_FALSE(d.pop(1).has_value());  // matures at 2
  EXPECT_EQ(occ, 1);
}

TEST(DelayLineOccupancy, PopToEmptyClearsByte) {
  std::uint8_t occ = 0;
  DelayLine<int> d(1);
  d.bind(&occ);
  d.push(0, 1);
  d.push(1, 2);
  EXPECT_EQ(*d.pop(1), 1);
  EXPECT_EQ(occ, 1);  // one entry left
  EXPECT_EQ(*d.pop(2), 2);
  EXPECT_EQ(occ, 0);
  EXPECT_FALSE(d.pop(3).has_value());
  EXPECT_EQ(occ, 0);
}

TEST(DelayLineOccupancy, ClearClearsByte) {
  std::uint8_t occ = 0;
  DelayLine<int> d(1);
  d.bind(&occ);
  d.push(0, 1);
  d.push(0, 2);
  EXPECT_EQ(d.clear(), 2u);
  EXPECT_EQ(occ, 0);
}

TEST(DelayLineOccupancy, BindReflectsCurrentState) {
  DelayLine<int> d(1);
  d.push(0, 1);
  std::uint8_t occ = 0;
  d.bind(&occ);
  EXPECT_EQ(occ, 1);

  DelayLine<int> empty(1);
  std::uint8_t stale = 1;
  empty.bind(&stale);
  EXPECT_EQ(stale, 0);

  // Unbinding leaves the old byte alone and stops tracking.
  d.bind(nullptr);
  d.pop(1);
  EXPECT_EQ(occ, 1);
}

TEST(ChannelPair, DefaultLatencies) {
  ChannelPair ch;
  EXPECT_EQ(ch.flits.latency(), 1u);
  EXPECT_EQ(ch.credits.latency(), 1u);
  EXPECT_EQ(ch.acks.latency(), 1u);
}

}  // namespace
}  // namespace rlftnoc
