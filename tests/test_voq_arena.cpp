// Unit tests for the packed-entry VOQ arenas backing the engines:
// FIFO order, ring wraparound, segment growth (double and recycle),
// segment reuse across queues, queues larger than a chunk, per-shard
// pools, the timed arena's front_ready fast path, and every record
// field at the ends of its range -- each checked against a
// std::deque<Entry> reference model.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <limits>
#include <type_traits>
#include <vector>

#include "core/rng.hpp"
#include "sim/voq_arena.hpp"

namespace otis::sim {
namespace {

VoqEntry make_entry(std::int64_t id) {
  return VoqEntry{.created = id * 7 + 2,
                  .hops = static_cast<std::uint64_t>(id % 5),
                  .id = static_cast<std::int32_t>(id),
                  .destination = static_cast<std::int32_t>(id * 3 + 1)};
}

void expect_entry_eq(const VoqEntry& a, const VoqEntry& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.destination, b.destination);
  EXPECT_EQ(a.created, b.created);
  EXPECT_EQ(a.hops, b.hops);
}

TEST(VoqArena, FifoOrderWithinOneQueue) {
  VoqArena arena;
  arena.init(1);
  for (std::int64_t i = 0; i < 5; ++i) {
    arena.push(0, make_entry(i));
  }
  EXPECT_EQ(arena.size(0), 5u);
  for (std::int64_t i = 0; i < 5; ++i) {
    expect_entry_eq(arena.front(0), make_entry(i));
    expect_entry_eq(arena.pop_front(0), make_entry(i));
  }
  EXPECT_TRUE(arena.empty(0));
}

TEST(VoqArena, RingWrapsWithoutGrowth) {
  // Cycle pushes and pops so head laps the segment many times while the
  // live size stays below kInitialCapacity: no growth, order preserved.
  VoqArena arena;
  arena.init(1);
  std::int64_t next = 0;
  std::int64_t expected = 0;
  for (int cycle = 0; cycle < 50; ++cycle) {
    while (arena.size(0) < VoqArena::kInitialCapacity - 1) {
      arena.push(0, make_entry(next++));
    }
    while (arena.size(0) > 2) {
      expect_entry_eq(arena.pop_front(0), make_entry(expected++));
    }
  }
  while (!arena.empty(0)) {
    expect_entry_eq(arena.pop_front(0), make_entry(expected++));
  }
  EXPECT_EQ(expected, next);
}

TEST(VoqArena, GrowthPreservesOrderAcrossDoublings) {
  // Push far past kInitialCapacity with a wrapped head (pop a few
  // first) so every doubling has to linearize a wrapped ring into the
  // fresh segment.
  VoqArena arena;
  arena.init(1);
  for (std::int64_t i = 0; i < 6; ++i) {
    arena.push(0, make_entry(i));
  }
  for (std::int64_t i = 0; i < 4; ++i) {
    arena.pop_front(0);
  }
  for (std::int64_t i = 6; i < 200; ++i) {
    arena.push(0, make_entry(i));
  }
  EXPECT_EQ(arena.size(0), 196u);
  for (std::int64_t i = 4; i < 200; ++i) {
    expect_entry_eq(arena.pop_front(0), make_entry(i));
  }
  EXPECT_TRUE(arena.empty(0));
}

TEST(VoqArena, RandomizedParityAgainstDequeAcrossManyQueues) {
  // 32 queues interleaved in one pool, random push/pop mix: the arena
  // must agree with an independent std::deque per queue at every step.
  constexpr std::size_t kQueues = 32;
  VoqArena arena;
  arena.init(kQueues);
  std::vector<std::deque<VoqEntry>> model(kQueues);
  core::Rng rng(99);
  std::int64_t next = 0;
  for (int op = 0; op < 20000; ++op) {
    const std::size_t q = static_cast<std::size_t>(rng.uniform(kQueues));
    if (model[q].empty() || rng.bernoulli(0.55)) {
      const VoqEntry e = make_entry(next++);
      arena.push(q, e);
      model[q].push_back(e);
    } else {
      expect_entry_eq(arena.front(q), model[q].front());
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    ASSERT_EQ(arena.size(q), model[q].size());
    ASSERT_EQ(arena.empty(q), model[q].empty());
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (!model[q].empty()) {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(VoqArena, PerShardPoolsGrowIndependently) {
  // Queues assigned to different pools (the sharded engines' layout):
  // growth in one pool must not disturb entries living in another.
  constexpr std::size_t kQueues = 8;
  constexpr std::size_t kPools = 4;
  VoqArena arena;
  arena.init(kQueues, kPools);
  for (std::size_t q = 0; q < kQueues; ++q) {
    arena.set_pool(q, static_cast<std::uint32_t>(q % kPools));
  }
  std::vector<std::deque<VoqEntry>> model(kQueues);
  std::int64_t next = 0;
  // Uneven load: queue q gets 10 * (q + 1) entries, so pools double at
  // different times.
  for (std::size_t q = 0; q < kQueues; ++q) {
    for (std::size_t i = 0; i < 10 * (q + 1); ++i) {
      const VoqEntry e = make_entry(next++);
      arena.push(q, e);
      model[q].push_back(e);
    }
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    while (!model[q].empty()) {
      expect_entry_eq(arena.pop_front(q), model[q].front());
      model[q].pop_front();
    }
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(VoqArena, InitResetsState) {
  VoqArena arena;
  arena.init(2);
  arena.push(0, make_entry(1));
  arena.push(1, make_entry(2));
  arena.init(3);
  EXPECT_EQ(arena.queue_count(), 3u);
  for (std::size_t q = 0; q < 3; ++q) {
    EXPECT_TRUE(arena.empty(q));
  }
}

/// Pushes `count` fresh entries onto queue q of both arena and model.
void fill(VoqArena& arena, std::deque<VoqEntry>& model, std::size_t q,
          std::size_t count, std::int64_t& next) {
  for (std::size_t i = 0; i < count; ++i) {
    const VoqEntry e = make_entry(next++);
    arena.push(q, e);
    model.push_back(e);
  }
}

/// Pops `count` entries off queue q, checking each against the model.
void drain(VoqArena& arena, std::deque<VoqEntry>& model, std::size_t q,
           std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    expect_entry_eq(arena.pop_front(q), model.front());
    model.pop_front();
  }
}

TEST(VoqArena, DrainedSegmentIsReusedByAnotherQueuesGrowth) {
  // Queue 0 grows to a 32-entry segment and drains, handing the segment
  // back; queue 1 then grows through 8 and 16 to 32 and must reuse what
  // queue 0 freed instead of carving new records, and queue 0 refills
  // from what queue 1 outgrew, with both queues' entries intact.
  VoqArena arena;
  arena.init(2);
  std::vector<std::deque<VoqEntry>> model(2);
  std::int64_t next = 0;
  fill(arena, model[0], 0, 20, next);
  const std::size_t carved = arena.carved_entries(0);
  EXPECT_EQ(carved, 8u + 16u + 32u);
  drain(arena, model[0], 0, 20);
  fill(arena, model[1], 1, 25, next);
  fill(arena, model[0], 0, 3, next);  // refills from a recycled segment
  EXPECT_EQ(arena.carved_entries(0), carved);
  drain(arena, model[0], 0, 3);
  drain(arena, model[1], 1, 25);
  EXPECT_TRUE(arena.empty(0));
  EXPECT_TRUE(arena.empty(1));
}

TEST(VoqArena, QueueGrowsPastOneChunk) {
  // A segment larger than a chunk gets its own allocation; a wrapped
  // head must survive every doubling on the way there.
  constexpr std::size_t kChunk = VoqArena::kChunkEntries;
  VoqArena arena;
  arena.init(3);
  std::vector<std::deque<VoqEntry>> model(3);
  std::int64_t next = 0;
  fill(arena, model[0], 0, 5, next);
  drain(arena, model[0], 0, 3);
  for (std::size_t i = 0; i < 3 * kChunk; ++i) {
    fill(arena, model[i % 3], i % 3, 1, next);  // interleaved carving
  }
  EXPECT_GT(arena.size(0), kChunk / 2);
  fill(arena, model[0], 0, kChunk, next);
  EXPECT_GT(arena.size(0), kChunk);
  for (std::size_t q = 0; q < 3; ++q) {
    drain(arena, model[q], q, model[q].size());
    EXPECT_TRUE(arena.empty(q));
  }
}

TEST(VoqArena, PoolsRecycleOnlyTheirOwnSegments) {
  // A segment freed into pool 0 must never serve a queue of pool 1.
  VoqArena arena;
  arena.init(4, 2);
  arena.set_pool(2, 1);
  arena.set_pool(3, 1);
  std::vector<std::deque<VoqEntry>> model(4);
  std::int64_t next = 0;
  fill(arena, model[0], 0, 40, next);  // pool 0: 8, 16, 32, 64
  fill(arena, model[2], 2, 5, next);   // pool 1: 8
  drain(arena, model[0], 0, 40);       // pool 0 gets its 64 back
  const std::size_t carved0 = arena.carved_entries(0);
  const std::size_t carved1 = arena.carved_entries(1);
  fill(arena, model[3], 3, 40, next);  // pool 1 must carve afresh
  EXPECT_EQ(arena.carved_entries(0), carved0);
  EXPECT_GT(arena.carved_entries(1), carved1);
  fill(arena, model[1], 1, 40, next);  // pool 0 reuses its own segments
  EXPECT_EQ(arena.carved_entries(0), carved0);
  for (std::size_t q = 0; q < 4; ++q) {
    drain(arena, model[q], q, model[q].size());
  }
}

TEST(VoqArena, RandomizedDequeParityWithDrainAndRefillCycles) {
  // 1,000 queues in two pools under >= 10^5 operations whose push bias
  // swings between filling and draining phases, so segments are freed,
  // recycled across queues and regrown many times over.
  constexpr std::size_t kQueues = 1000;
  VoqArena arena;
  arena.init(kQueues, 2);
  for (std::size_t q = 0; q < kQueues; q += 2) {
    arena.set_pool(q, 1);
  }
  std::vector<std::deque<VoqEntry>> model(kQueues);
  core::Rng rng(2024);
  std::int64_t next = 0;
  for (int op = 0; op < 200000; ++op) {
    const bool filling = (op / 20000) % 2 == 0;
    const std::size_t q = static_cast<std::size_t>(
        rng.uniform(filling ? kQueues : kQueues / 4));
    if (model[q].empty() || rng.bernoulli(filling ? 0.7 : 0.2)) {
      fill(arena, model[q], q, 1 + rng.uniform(3), next);
    } else {
      expect_entry_eq(arena.front(q), model[q].front());
      drain(arena, model[q], q, 1);
    }
    ASSERT_EQ(arena.size(q), model[q].size());
  }
  for (std::size_t q = 0; q < kQueues; ++q) {
    drain(arena, model[q], q, model[q].size());
    ASSERT_TRUE(arena.empty(q));
  }
}

TEST(TimedVoqArena, FrontReadyThroughRecycledSegments) {
  // Two queues alternate growing and draining, so each regrows into
  // segments the other freed; front_ready and the narrowed destination
  // must read back exactly.
  TimedVoqArena arena;
  arena.init(2);
  std::vector<std::deque<TimedVoqEntry>> model(2);
  std::int64_t next = 0;
  for (int round = 0; round < 12; ++round) {
    const std::size_t q = static_cast<std::size_t>(round % 2);
    for (int i = 0; i < 10 + 7 * round; ++i) {
      TimedVoqEntry e;
      e.id = static_cast<std::int32_t>(next);
      e.destination =
          static_cast<std::int32_t>((next * 7919) % (std::int64_t{1} << 31));
      e.created = next * 3;
      e.hops = static_cast<std::uint64_t>(next % 4);
      e.ready = next * 11 + 7;
      ++next;
      arena.push(q, e);
      model[q].push_back(e);
    }
    const std::size_t other = 1 - q;
    while (!model[other].empty()) {
      ASSERT_EQ(arena.front_ready(other), model[other].front().ready);
      const TimedVoqEntry got = arena.pop_front(other);
      EXPECT_EQ(got.id, model[other].front().id);
      EXPECT_EQ(got.destination, model[other].front().destination);
      EXPECT_EQ(got.created, model[other].front().created);
      EXPECT_EQ(got.hops, model[other].front().hops);
      EXPECT_EQ(got.ready, model[other].front().ready);
      model[other].pop_front();
    }
    EXPECT_TRUE(arena.empty(other));
  }
}

TEST(TimedVoqArena, FrontReadyMatchesFrontThroughWrapAndGrowth) {
  TimedVoqArena arena;
  arena.init(2);
  std::deque<TimedVoqEntry> model;
  core::Rng rng(5);
  std::int64_t next = 0;
  for (int op = 0; op < 5000; ++op) {
    if (model.empty() || rng.bernoulli(0.6)) {
      TimedVoqEntry e;
      e.id = static_cast<std::int32_t>(next);
      e.destination = static_cast<std::int32_t>(next * 2);
      e.created = next * 3;
      e.hops = static_cast<std::uint64_t>(next % 4);
      e.ready = next * 11 + 7;
      ++next;
      arena.push(1, e);
      model.push_back(e);
    } else {
      ASSERT_EQ(arena.front_ready(1), model.front().ready);
      const TimedVoqEntry got = arena.pop_front(1);
      EXPECT_EQ(got.id, model.front().id);
      EXPECT_EQ(got.destination, model.front().destination);
      EXPECT_EQ(got.created, model.front().created);
      EXPECT_EQ(got.hops, model.front().hops);
      EXPECT_EQ(got.ready, model.front().ready);
      model.pop_front();
    }
    ASSERT_EQ(arena.size(1), model.size());
  }
}

/// Entries holding every field at the ends of its range, in turn and
/// together, so one field bleeding into another shows: created 0 and
/// 2^47 - 1, hops 0 and VoqEntry::kMaxHops, destination 0 and
/// 2^31 - 1, id INT32_MIN, -1, 0 and INT32_MAX.
std::vector<VoqEntry> extreme_entries() {
  constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
  constexpr std::int64_t kCreated = VoqEntry::kMaxCreated;
  constexpr auto kHops = static_cast<std::uint64_t>(VoqEntry::kMaxHops);
  static_assert(kCreated == (std::int64_t{1} << 47) - 1);
  static_assert(kHops == 65535);
  return {
      {.created = kCreated, .hops = 0, .id = kMin, .destination = 0},
      {.created = 0, .hops = kHops, .id = kMax, .destination = kMax},
      {.created = kCreated, .hops = kHops, .id = kMin, .destination = kMax},
      {.created = 0, .hops = 0, .id = -1, .destination = 0},
      {.created = kCreated - 1, .hops = kHops - 1, .id = 0,
       .destination = kMax - 1},
      {.created = 1, .hops = 1, .id = kMax, .destination = 1},
  };
}

/// Pushes the extreme entries 40 times over (through three doublings,
/// with a wrapped head) onto one queue of `arena`, popping as it goes,
/// and checks every pop against a deque model field by field; `timed`
/// turns each entry into the arena's record.
template <class Arena, class Timed>
void expect_extremes_round_trip(Arena& arena, Timed timed) {
  using Entry = typename Arena::Entry;
  const std::vector<VoqEntry> extremes = extreme_entries();
  std::deque<Entry> model;
  const auto pop_and_check = [&] {
    const Entry got = arena.pop_front(0);
    const Entry& want = model.front();
    EXPECT_EQ(got.created, want.created);
    EXPECT_EQ(got.hops, want.hops);
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.destination, want.destination);
    if constexpr (!std::is_same_v<Entry, VoqEntry>) {
      EXPECT_EQ(got.ready, want.ready);
    }
    model.pop_front();
  };
  arena.init(1);
  for (std::size_t i = 0; i < 40 * extremes.size(); ++i) {
    const Entry e = timed(extremes[i % extremes.size()], i);
    arena.push(0, e);
    model.push_back(e);
    if (i % 3 == 0) {
      pop_and_check();
    }
    ASSERT_EQ(arena.size(0), model.size());
  }
  while (!model.empty()) {
    pop_and_check();
  }
  EXPECT_TRUE(arena.empty(0));
}

TEST(VoqArena, ExtremeFieldValuesRoundTripFifoExact) {
  VoqArena arena;
  expect_extremes_round_trip(
      arena, [](const VoqEntry& e, std::size_t) { return e; });
}

TEST(TimedVoqArena, ExtremeFieldValuesRoundTripFifoExact) {
  // ready runs up to INT64_MAX, beside every extreme of the base record.
  TimedVoqArena arena;
  expect_extremes_round_trip(arena, [](const VoqEntry& e, std::size_t i) {
    return TimedVoqEntry{
        e, std::numeric_limits<std::int64_t>::max() -
               static_cast<std::int64_t>(i % 7)};
  });
}

}  // namespace
}  // namespace otis::sim
