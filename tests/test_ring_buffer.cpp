#include "common/ring_buffer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "noc/retention.h"

namespace rlftnoc {
namespace {

TEST(RingBuffer, StartsEmpty) {
  RingBuffer<int> rb;
  EXPECT_TRUE(rb.empty());
  EXPECT_EQ(rb.size(), 0u);
  EXPECT_EQ(rb.capacity(), 0u);
}

TEST(RingBuffer, PushPopFifoOrder) {
  RingBuffer<int> rb;
  for (int i = 0; i < 5; ++i) rb.push_back(i);
  EXPECT_EQ(rb.size(), 5u);
  EXPECT_EQ(rb.front(), 0);
  EXPECT_EQ(rb.back(), 4);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
  EXPECT_TRUE(rb.empty());
}

TEST(RingBuffer, WraparoundMatchesDequeReference) {
  // Long interleaved push/pop churn with a bounded occupancy forces the
  // head index to wrap the backing store many times.
  RingBuffer<std::uint64_t> rb;
  std::deque<std::uint64_t> ref;
  Rng rng(7, "ring");
  std::size_t high_water = 0;
  for (int step = 0; step < 20000; ++step) {
    const bool push = ref.empty() || (ref.size() < 6 && rng.next_u64() % 2);
    if (push) {
      const std::uint64_t v = rng.next_u64();
      rb.push_back(v);
      ref.push_back(v);
    } else {
      ASSERT_EQ(rb.front(), ref.front());
      rb.pop_front();
      ref.pop_front();
    }
    ASSERT_EQ(rb.size(), ref.size());
    high_water = std::max(high_water, ref.size());
  }
  // Capacity settled at the high-water mark's power of two: bounded churn
  // never grows past the first doubling that covers it.
  ASSERT_EQ(high_water, 6u);
  EXPECT_EQ(rb.capacity(), std::bit_ceil(high_water));
}

TEST(RingBuffer, GrowthPreservesOrderAcrossWrap) {
  RingBuffer<int> rb;
  // Misalign head so the pre-growth contents straddle the wrap point.
  for (int i = 0; i < 6; ++i) rb.push_back(-1);
  for (int i = 0; i < 6; ++i) rb.pop_front();
  for (int i = 0; i < 40; ++i) rb.push_back(i);  // forces several doublings
  ASSERT_EQ(rb.size(), 40u);
  EXPECT_EQ(rb.capacity(), 64u);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, AppendAcrossWrappedThenGrownBufferKeepsFifoOrder) {
  RingBuffer<int> rb(8);
  // Wrap the head: live entries straddle the end of the backing array.
  for (int i = 0; i < 5; ++i) rb.push_back(-1);
  for (int i = 0; i < 5; ++i) rb.pop_front();
  for (int i = 0; i < 8; ++i) rb.append() = i;  // fills to capacity, wrapped
  ASSERT_EQ(rb.capacity(), 8u);
  for (int i = 8; i < 20; ++i) rb.append() = i;  // grows twice mid-sequence
  EXPECT_EQ(rb.capacity(), 32u);
  ASSERT_EQ(rb.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(rb.front(), i);
    rb.pop_front();
  }
}

TEST(RingBuffer, PushBackOfOwnEntrySurvivesGrowth) {
  // A full buffer pushing a copy of its own front must copy it out before
  // the growth moves the entries.
  RingBuffer<std::vector<int>> rb;
  for (int i = 0; i < 8; ++i) rb.push_back(std::vector<int>{i, i});
  ASSERT_EQ(rb.size(), rb.capacity());
  rb.push_back(rb.front());
  ASSERT_EQ(rb.size(), 9u);
  EXPECT_EQ(rb.back(), (std::vector<int>{0, 0}));
  EXPECT_EQ(rb.front(), (std::vector<int>{0, 0}));
}

TEST(RingBuffer, PushFrontPrepends) {
  RingBuffer<int> rb;
  rb.push_back(2);
  rb.push_back(3);
  rb.push_front(1);
  EXPECT_EQ(rb.size(), 3u);
  EXPECT_EQ(rb[0], 1);
  EXPECT_EQ(rb[1], 2);
  EXPECT_EQ(rb[2], 3);
  // push_front at full capacity must grow correctly too.
  RingBuffer<int> tight;
  for (int i = 0; i < 8; ++i) tight.push_back(i);
  tight.push_front(-1);
  EXPECT_EQ(tight.size(), 9u);
  EXPECT_EQ(tight.front(), -1);
  EXPECT_EQ(tight.back(), 7);
}

TEST(RingBuffer, MoveOnlyPayloads) {
  RingBuffer<std::unique_ptr<int>> rb;
  for (int i = 0; i < 20; ++i) rb.push_back(std::make_unique<int>(i));
  for (int i = 0; i < 20; ++i) {
    std::unique_ptr<int> p = std::move(rb.front());
    rb.pop_front();
    ASSERT_NE(p, nullptr);
    EXPECT_EQ(*p, i);
  }
}

TEST(RingBuffer, ForEachVisitsOldestFirst) {
  RingBuffer<int> rb;
  for (int i = 0; i < 12; ++i) rb.push_back(-1);
  for (int i = 0; i < 12; ++i) rb.pop_front();  // wrap the head
  for (int i = 0; i < 5; ++i) rb.push_back(i * 10);
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{0, 10, 20, 30, 40}));
}

TEST(RingBuffer, AnyOf) {
  RingBuffer<int> rb;
  rb.push_back(1);
  rb.push_back(2);
  EXPECT_TRUE(rb.any_of([](int v) { return v == 2; }));
  EXPECT_FALSE(rb.any_of([](int v) { return v == 9; }));
}

TEST(RingBuffer, RemoveIfIsStable) {
  RingBuffer<int> rb;
  for (int i = 0; i < 10; ++i) rb.push_back(-1);
  for (int i = 0; i < 10; ++i) rb.pop_front();  // wrap
  for (int i = 0; i < 10; ++i) rb.push_back(i);
  const std::size_t removed = rb.remove_if([](int v) { return v % 3 == 0; });
  EXPECT_EQ(removed, 4u);  // 0, 3, 6, 9
  std::vector<int> seen;
  rb.for_each([&](int v) { seen.push_back(v); });
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 4, 5, 7, 8}));
}

TEST(RingBuffer, ReserveRoundsUpToPowerOfTwo) {
  // Exactly the next power of two >= n, with no floor: a 4-deep VC FIFO
  // costs 4 slots, not a minimum allocation.
  for (const auto& [n, cap] : {std::pair<std::size_t, std::size_t>{1, 1},
                               {3, 4}, {4, 4}, {9, 16}}) {
    EXPECT_EQ(RingBuffer<int>(n).capacity(), cap) << "RingBuffer(" << n << ")";
    RingBuffer<int> reserved;
    reserved.reserve(n);
    EXPECT_EQ(reserved.capacity(), cap) << "reserve(" << n << ")";
  }
  RingBuffer<int> rb(12);
  EXPECT_EQ(rb.capacity(), 16u);
  rb.reserve(3);  // never shrinks
  EXPECT_EQ(rb.capacity(), 16u);
  for (int i = 0; i < 16; ++i) rb.push_back(i);
  EXPECT_EQ(rb.capacity(), 16u);  // exactly full, no reallocation yet
}

TEST(RingBuffer, UnreservedFirstPushAllocatesTwoThenDoubles) {
  RingBuffer<int> rb;
  rb.push_back(0);
  EXPECT_EQ(rb.capacity(), 2u);
  rb.push_back(1);
  EXPECT_EQ(rb.capacity(), 2u);  // exactly full, no reallocation yet
  rb.push_back(2);
  EXPECT_EQ(rb.capacity(), 4u);
  // A one-slot reservation also doubles on overflow and keeps FIFO order.
  RingBuffer<int> one(1);
  one.push_back(7);
  one.push_back(8);
  EXPECT_EQ(one.capacity(), 2u);
  EXPECT_EQ(one.front(), 7);
  EXPECT_EQ(one.back(), 8);
}

TEST(RingBuffer, ClearResets) {
  RingBuffer<int> rb;
  for (int i = 0; i < 7; ++i) rb.push_back(i);
  rb.clear();
  EXPECT_TRUE(rb.empty());
  rb.push_back(42);
  EXPECT_EQ(rb.front(), 42);
}

// ---------------------------------------------------------------------------
// RetentionTable
// ---------------------------------------------------------------------------

ArqRetention make_entry(FlitId id) {
  ArqRetention r;
  r.clean.packet_id = id >> 8;
  r.clean.seq = static_cast<std::uint8_t>(id & 0xFF);
  r.unresolved = 1;
  return r;
}

TEST(RetentionTable, InsertFindErase) {
  RetentionTable t;
  t.reset(8);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.capacity(), 8u);
  EXPECT_EQ(t.find(42), nullptr);

  t.insert(42, make_entry(42));
  t.insert(513, make_entry(513));
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(42), nullptr);
  EXPECT_EQ(t.find(42)->clean.id(), 42u);
  ASSERT_NE(t.find(513), nullptr);
  EXPECT_EQ(t.find(513)->clean.id(), 513u);

  EXPECT_TRUE(t.erase(42));
  EXPECT_FALSE(t.erase(42));
  EXPECT_EQ(t.find(42), nullptr);
  ASSERT_NE(t.find(513), nullptr);
  EXPECT_EQ(t.size(), 1u);
}

TEST(RetentionTable, PointerStableAcrossUnrelatedChurn) {
  RetentionTable t;
  t.reset(8);
  ArqRetention* keep = &t.insert(1000, make_entry(1000));
  for (FlitId id = 1; id <= 7; ++id) t.insert(id, make_entry(id));
  for (FlitId id = 1; id <= 7; ++id) t.erase(id);
  for (FlitId id = 10; id <= 16; ++id) t.insert(id, make_entry(id));
  EXPECT_EQ(t.find(1000), keep);
  EXPECT_EQ(keep->clean.id(), 1000u);
}

TEST(RetentionTable, NackStormChurnMatchesReferenceModel) {
  // ARQ under a NACK storm: constant insert (transmits), lookup (ACK/NACK
  // arrivals, many for already-freed flits) and erase (ACK resolutions),
  // with the occupancy bouncing off the depth bound. Cross-check every
  // operation against std::unordered_map. FlitIds replicate the real
  // (packet_id << 8 | seq) shape, so low bits are heavily clustered.
  RetentionTable t;
  t.reset(8);
  std::unordered_map<FlitId, int> ref;  // id -> unresolved
  Rng rng(99, "storm");
  std::vector<FlitId> live;
  FlitId next_pkt = 1;

  for (int step = 0; step < 50000; ++step) {
    const std::uint64_t op = rng.next_u64() % 4;
    if (op == 0 && live.size() < 8) {  // transmit: insert fresh entry
      const FlitId id = make_flit_id(next_pkt++, rng.next_u64() % 4);
      t.insert(id, make_entry(id));
      ref[id] = 1;
      live.push_back(id);
    } else if (op == 1 && !live.empty()) {  // NACK: mutate through find()
      const FlitId id = live[rng.next_u64() % live.size()];
      ArqRetention* r = t.find(id);
      ASSERT_NE(r, nullptr);
      ++r->unresolved;
      ++ref[id];
    } else if (op == 2 && !live.empty()) {  // ACK: erase
      const std::size_t k = rng.next_u64() % live.size();
      const FlitId id = live[k];
      EXPECT_TRUE(t.erase(id));
      ref.erase(id);
      live[k] = live.back();
      live.pop_back();
    } else {  // stale response: lookup of a freed (or never-sent) id
      const FlitId id = make_flit_id(rng.next_u64() % (next_pkt + 3), 0);
      const ArqRetention* r = t.find(id);
      const auto it = ref.find(id);
      ASSERT_EQ(r != nullptr, it != ref.end());
      if (r != nullptr) {
        EXPECT_EQ(r->unresolved, it->second);
      }
    }
    ASSERT_EQ(t.size(), ref.size());
  }

  // for_each must visit exactly the live set.
  std::unordered_map<FlitId, int> seen;
  t.for_each([&](FlitId id, const ArqRetention& r) { seen[id] = r.unresolved; });
  EXPECT_EQ(seen.size(), ref.size());
  for (const auto& [id, unresolved] : ref) {
    ASSERT_TRUE(seen.count(id));
    EXPECT_EQ(seen[id], unresolved);
  }
}

TEST(RetentionTable, ResetDiscardsContents) {
  RetentionTable t;
  t.reset(4);
  t.insert(7, make_entry(7));
  t.reset(4);
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.find(7), nullptr);
  // Full capacity usable after reset.
  for (FlitId id = 0; id < 4; ++id) t.insert(id, make_entry(id));
  EXPECT_EQ(t.size(), 4u);
}

}  // namespace
}  // namespace rlftnoc
