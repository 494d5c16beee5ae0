#include "noc/channel.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>

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

TEST(DelayLineOccupancy, PeekOnEmptyOrImmatureLaneIsNullAndKeepsByte) {
  std::uint8_t occ = 7;  // bind() must overwrite any stale value
  DelayLine<int> d(2);
  d.bind(&occ);
  EXPECT_EQ(d.peek(0), nullptr);  // empty
  EXPECT_EQ(occ, 0);
  d.push(0, 5);  // matures at 2
  EXPECT_EQ(d.peek(1), nullptr);
  EXPECT_EQ(occ, 1);
  EXPECT_EQ(d.size(), 1u);
  int* v = d.peek(2);
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(*v, 5);
  EXPECT_EQ(occ, 1);  // peeking never consumes
  EXPECT_EQ(d.size(), 1u);
}

TEST(DelayLineOccupancy, DropFrontToEmptyClearsByte) {
  std::uint8_t occ = 0;
  DelayLine<int> d(1);
  d.bind(&occ);
  d.push(0, 1);
  d.push(0, 2);
  ASSERT_NE(d.peek(1), nullptr);
  d.drop_front();
  EXPECT_EQ(occ, 1);  // one entry left
  EXPECT_EQ(*d.peek(1), 2);
  d.drop_front();
  EXPECT_EQ(occ, 0);
  EXPECT_TRUE(d.empty());
  EXPECT_EQ(d.peek(5), nullptr);
}

TEST(DelayLine, PeekedEntryIsMutableInPlace) {
  DelayLine<Flit> d(1);
  Flit f;
  f.seq = 3;
  d.push(0, f);
  Flit* in_slot = d.peek(1);
  ASSERT_NE(in_slot, nullptr);
  in_slot->vc = 2;
  EXPECT_EQ(d.peek(1)->vc, 2);
  const auto out = d.pop(1);
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->seq, 3u);
  EXPECT_EQ(out->vc, 2);
}

TEST(DelayLine, PushOfLvalueAndRvalueDeliverIntact) {
  DelayLine<Flit> d(1);
  Flit a;
  a.packet_id = 11;
  a.seq = 1;
  a.payload = BitVec128(0x0123456789abcdefULL, 0xfedcba9876543210ULL);
  a.crc = 0xdeadbeef;
  a.lsn = 77;
  d.push(0, a);  // lvalue: copied, source untouched
  EXPECT_EQ(a.packet_id, 11u);
  EXPECT_EQ(a.payload, BitVec128(0x0123456789abcdefULL, 0xfedcba9876543210ULL));
  Flit b = a;
  b.seq = 2;
  b.payload = BitVec128(1, 2);
  d.push(0, std::move(b));  // rvalue: moved
  const auto first = d.pop(1);
  const auto second = d.pop(1);
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(first->packet_id, 11u);
  EXPECT_EQ(first->seq, 1u);
  EXPECT_EQ(first->payload, a.payload);
  EXPECT_EQ(first->crc, 0xdeadbeefu);
  EXPECT_EQ(first->lsn, 77u);
  EXPECT_EQ(second->seq, 2u);
  EXPECT_EQ(second->payload, BitVec128(1, 2));
  EXPECT_EQ(second->crc, 0xdeadbeefu);

  // Move-only payloads go through the rvalue path.
  DelayLine<std::unique_ptr<int>> m(1);
  auto p = std::make_unique<int>(9);
  m.push(0, std::move(p));
  EXPECT_EQ(**m.peek(1), 9);
}

TEST(ChannelPair, DefaultLatencies) {
  ChannelPair ch;
  EXPECT_EQ(ch.flits.latency(), 1u);
  EXPECT_EQ(ch.credits.latency(), 1u);
  EXPECT_EQ(ch.acks.latency(), 1u);
}

}  // namespace
}  // namespace rlftnoc
