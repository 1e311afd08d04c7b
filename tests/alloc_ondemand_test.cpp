// Unit tests for on-demand preallocation — the paper's §III algorithm:
// trigger semantics, window promotion and ramp-up, miss-threshold demotion,
// stream isolation, persistence of the current window.
#include <gtest/gtest.h>

#include "alloc/ondemand.hpp"
#include "obs/span.hpp"

namespace mif::alloc {
namespace {

struct OnDemandFixture : ::testing::Test {
  block::FreeSpace space{DiskBlock{0}, 256 * 1024, 4};
  AllocatorTuning tuning{};  // scale=2, max=2048, miss_threshold=4
  OnDemandAllocator alloc{space, tuning};
  block::ExtentMap map;

  Status write(u32 stream, u64 logical, u64 count = 1) {
    return alloc.extend(
        {InodeNo{1}, StreamId{stream, 0}, FileBlock{logical}, count}, map);
  }
};

TEST_F(OnDemandFixture, FirstExtendSeedsSequentialWindow) {
  ASSERT_TRUE(write(1, 0).ok());
  EXPECT_EQ(alloc.stats().layout_misses, 1u);  // first extend IS a miss
  // window = write_size × scale = 2 blocks.
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 2u);
}

TEST_F(OnDemandFixture, SequentialWritesPromoteAndRampExponentially) {
  ASSERT_TRUE(write(1, 0).ok());
  u64 prev = alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0});
  u64 promotions = 0;
  for (u64 b = 1; b < 200; ++b) {
    ASSERT_TRUE(write(1, b).ok());
    const u64 w = alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0});
    if (alloc.stats().prealloc_promotions > promotions) {
      promotions = alloc.stats().prealloc_promotions;
      EXPECT_GE(w, prev);  // windows never shrink while sequential
      prev = w;
    }
  }
  EXPECT_GT(promotions, 3u);
  // Ramp reached a big window: 2 → 4 → 8 → ...
  EXPECT_GE(prev, 64u);
  // Only the very first write was a miss.
  EXPECT_EQ(alloc.stats().layout_misses, 1u);
}

TEST_F(OnDemandFixture, SequentialStreamEndsWithFewExtents) {
  for (u64 b = 0; b < 512; ++b) ASSERT_TRUE(write(1, b).ok());
  // One stream, in-place window growth: essentially one physical run.
  EXPECT_LE(map.extent_count(), 4u);
}

TEST_F(OnDemandFixture, WindowCappedAtMaxPreallocation) {
  AllocatorTuning t;
  t.max_preallocation_blocks = 16;
  OnDemandAllocator a(space, t);
  block::ExtentMap m;
  for (u64 b = 0; b < 300; ++b) {
    ASSERT_TRUE(
        a.extend({InodeNo{2}, StreamId{1, 0}, FileBlock{b}, 1}, m).ok());
    EXPECT_LE(a.sequential_window_blocks(InodeNo{2}, StreamId{1, 0}), 16u);
  }
}

TEST_F(OnDemandFixture, InterleavedStreamsStayContiguousPerRegion) {
  // The headline behaviour (Fig. 3): concurrent streams extending disjoint
  // regions each get contiguous placement.
  const u32 streams = 8;
  const u64 per_stream = 64;
  for (u64 r = 0; r < per_stream; ++r) {
    for (u32 p = 0; p < streams; ++p) {
      ASSERT_TRUE(write(p, static_cast<u64>(p) * per_stream + r).ok());
    }
  }
  // Mapped ≥ written: promoted windows may leave persistent unwritten tails.
  EXPECT_GE(map.mapped_blocks(), u64{streams} * per_stream);
  // A handful of extents per stream (first block + a few window joins), not
  // one per request: the 5-10× reduction of Table I.  Interleaved requests
  // would produce ~streams × per_stream extents under arrival-order
  // placement.
  EXPECT_LE(map.extent_count(), u64{streams} * 8);
  EXPECT_GT(alloc.stats().prealloc_promotions, u64{streams});
}

TEST_F(OnDemandFixture, RandomStreamGetsDemoted) {
  // Writes far apart → layout_miss each time; at the 4th miss the stream is
  // classified random and preallocation turns off.
  ASSERT_TRUE(write(1, 0).ok());
  ASSERT_TRUE(write(1, 1000).ok());
  ASSERT_TRUE(write(1, 2000).ok());
  ASSERT_TRUE(write(1, 3000).ok());
  EXPECT_FALSE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  ASSERT_TRUE(write(1, 4000).ok());
  EXPECT_TRUE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 0u);
  EXPECT_EQ(alloc.stats().prealloc_disabled, 1u);
  // Once random, no more reservations are made.
  ASSERT_TRUE(write(1, 5000).ok());
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 0u);
}

TEST_F(OnDemandFixture, SequentialStreamUnaffectedByRandomSibling) {
  // §III-B: "preallocation sequence of the sequential stream interposed by
  // random streams is not interrupted".
  for (u64 b = 0; b < 32; ++b) {
    ASSERT_TRUE(write(1, b).ok());                        // sequential
    ASSERT_TRUE(write(2, 100000 - b * 777).ok());         // random
  }
  EXPECT_FALSE(alloc.prealloc_disabled(InodeNo{1}, StreamId{1, 0}));
  EXPECT_TRUE(alloc.prealloc_disabled(InodeNo{1}, StreamId{2, 0}));
  // Sequential stream's region stays in a handful of runs (the random
  // sibling steals a few adjacent blocks early on), nowhere near the one
  // extent-per-request of arrival-order placement.
  u64 extents_in_region = 0;
  for (const auto& e : map.extents())
    if (e.file_off.v < 32) ++extents_in_region;
  EXPECT_LE(extents_in_region, 8u);
}

TEST_F(OnDemandFixture, CloseReleasesTemporaryButKeepsPersistent) {
  for (u64 b = 0; b < 10; ++b) ASSERT_TRUE(write(1, b).ok());
  const u64 mapped = map.mapped_blocks();
  EXPECT_GT(alloc.stats().reserved_blocks, 0u);
  alloc.close_file(InodeNo{1}, map);
  // Sequential (temporary) reservation returned…
  EXPECT_EQ(alloc.stats().reserved_blocks, 0u);
  // …but the current window persists — its unused remainder lands in the
  // map as unwritten extents ("preallocated blocks in the current window
  // are persistent across system reboot", §III-C).
  EXPECT_GE(map.mapped_blocks(), mapped);
  EXPECT_GE(mapped, 10u);
}

TEST_F(OnDemandFixture, OtherStreamsCannotAllocateInsideReservedWindow) {
  ASSERT_TRUE(write(1, 0, 4).ok());
  const u64 free_after = space.free_blocks();
  // The sequential window is carved out of free space immediately.
  EXPECT_EQ(space.total_blocks() - free_after,
            map.mapped_blocks() +
                alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}));
}

TEST_F(OnDemandFixture, WindowSizeScalesWithWriteSize) {
  // init size = write_size × scale (§III-C rule 1).
  ASSERT_TRUE(write(1, 0, 8).ok());
  EXPECT_EQ(alloc.sequential_window_blocks(InodeNo{1}, StreamId{1, 0}), 16u);
}

TEST_F(OnDemandFixture, Scale4RampsFaster) {
  AllocatorTuning t;
  t.scale = 4;
  OnDemandAllocator a(space, t);
  block::ExtentMap m;
  ASSERT_TRUE(
      a.extend({InodeNo{3}, StreamId{1, 0}, FileBlock{0}, 2}, m).ok());
  EXPECT_EQ(a.sequential_window_blocks(InodeNo{3}, StreamId{1, 0}), 8u);
}

TEST_F(OnDemandFixture, DeleteFileReturnsAllSpace) {
  for (u64 b = 0; b < 100; ++b) ASSERT_TRUE(write(1, b).ok());
  alloc.delete_file(InodeNo{1}, map);
  EXPECT_EQ(space.free_blocks(), space.total_blocks());
}

TEST_F(OnDemandFixture, WritesIntoPromotedWindowBypassAllocator) {
  // Fig. 3 T3: a write inside the current window hits neither trigger.
  ASSERT_TRUE(write(1, 0).ok());   // miss, window [1,3)
  ASSERT_TRUE(write(1, 1).ok());   // promotion → current [1,3), seq [3,7)
  const u64 misses = alloc.stats().layout_misses;
  const u64 promos = alloc.stats().prealloc_promotions;
  ASSERT_TRUE(write(1, 2).ok());   // inside current window
  EXPECT_EQ(alloc.stats().layout_misses, misses);
  EXPECT_EQ(alloc.stats().prealloc_promotions, promos);
}

// --- state-machine instants (obs::SpanCollector) ---------------------------

/// One (inode, stream)'s records, oldest first.
std::vector<obs::SpanRecord> stream_events(const obs::SpanCollector& c,
                                           InodeNo ino, StreamId sid) {
  std::vector<obs::SpanRecord> out;
  for (const obs::SpanRecord& r : c.spans())
    if (r.inode == ino.v && r.stream == sid.key()) out.push_back(r);
  return out;
}

obs::Config ring_of(std::size_t capacity) {
  obs::Config cfg;
  cfg.span_capacity = capacity;
  return cfg;
}

TEST_F(OnDemandFixture, InstantsRecordExactTransitionSequence) {
  obs::SpanCollector spans(ring_of(64));
  alloc.set_spans(&spans);

  // Fig. 3 walked with default tuning (scale=2, miss_threshold=4):
  ASSERT_TRUE(write(1, 0).ok());     // miss: seed seq window [1,3)
  ASSERT_TRUE(write(1, 1).ok());     // promote: current [1,3), seq 4 blocks
  ASSERT_TRUE(write(1, 2).ok());     // inside current window — no event
  ASSERT_TRUE(write(1, 3).ok());     // promote: seq window ramps to 8
  ASSERT_TRUE(write(1, 1000).ok());  // miss 1 (re-seed)
  ASSERT_TRUE(write(1, 2000).ok());  // miss 2
  ASSERT_TRUE(write(1, 3000).ok());  // miss 3
  ASSERT_TRUE(write(1, 4000).ok());  // miss 4 → demote

  const struct {
    std::string_view name;
    u64 arg0, arg1;
  } expected[] = {
      {"alloc.layout_miss", 0, 1},      {"alloc.pre_alloc_layout", 2, 4},
      {"alloc.pre_alloc_layout", 4, 8}, {"alloc.layout_miss", 1000, 1},
      {"alloc.layout_miss", 2000, 1},   {"alloc.layout_miss", 3000, 1},
      {"alloc.layout_miss", 4000, 1},   {"alloc.stream_demote", 4, 2},
  };
  // Nothing but the allocator records into this collector.
  const auto evs = spans.spans();
  ASSERT_EQ(evs.size(), std::size(expected));
  for (std::size_t i = 0; i < evs.size(); ++i) {
    EXPECT_TRUE(evs[i].instant()) << "event " << i;
    EXPECT_EQ(evs[i].name, expected[i].name) << "event " << i;
    EXPECT_EQ(evs[i].inode, 1u) << "event " << i;
    EXPECT_EQ(evs[i].stream, (StreamId{1, 0}).key()) << "event " << i;
    // Layout-miss args: (logical block, length); promotion args: (promoted
    // current window, newly reserved seq window); demotion: (misses,
    // the 2-block window the third miss re-seeded, now released).
    EXPECT_EQ(evs[i].arg0, expected[i].arg0) << "event " << i;
    EXPECT_EQ(evs[i].arg1, expected[i].arg1) << "event " << i;
  }
  // The demotion records the miss count that crossed the threshold.
  EXPECT_EQ(evs[7].arg0, tuning.miss_threshold);
}

TEST_F(OnDemandFixture, InstantLazyFreeOnClose) {
  obs::SpanCollector spans(ring_of(64));
  alloc.set_spans(&spans);
  for (u64 b = 0; b < 4; ++b) ASSERT_TRUE(write(1, b).ok());
  ASSERT_GT(alloc.stats().reserved_blocks, 0u);
  alloc.close_file(InodeNo{1}, map);
  const auto evs = spans.spans();
  ASSERT_FALSE(evs.empty());
  EXPECT_EQ(evs.back().name, "alloc.lazy_free");
  EXPECT_GT(evs.back().arg0, 0u);  // blocks returned to free space
  EXPECT_EQ(evs.back().inode, 1u);
  EXPECT_EQ(evs.back().stream, (StreamId{1, 0}).key());
}

TEST_F(OnDemandFixture, InstantsIsolateStreamsOfASharedFile) {
  // Scripted shared-file write: three streams interleave on inode 1.
  // Filtering the one ring on (inode, stream) shows every stream running
  // the identical miss → promote ramp, untouched by its neighbours.
  obs::SpanCollector spans(ring_of(256));
  alloc.set_spans(&spans);
  const u64 per_stream = 16;
  for (u64 r = 0; r < per_stream; ++r)
    for (u32 p = 0; p < 3; ++p)
      ASSERT_TRUE(write(p, static_cast<u64>(p) * per_stream + r).ok());
  ASSERT_EQ(spans.dropped(), 0u);
  std::size_t seen = 0;
  for (u32 p = 0; p < 3; ++p) {
    const auto evs = stream_events(spans, InodeNo{1}, StreamId{p, 0});
    ASSERT_GE(evs.size(), 3u) << "stream " << p;
    seen += evs.size();
    EXPECT_EQ(evs[0].name, "alloc.layout_miss");
    EXPECT_EQ(evs[1].name, "alloc.pre_alloc_layout");
    for (std::size_t i = 1; i < evs.size(); ++i)
      EXPECT_EQ(evs[i].name, "alloc.pre_alloc_layout")
          << "stream " << p << " event " << i;
  }
  // The three per-stream views partition the ring.
  EXPECT_EQ(seen, spans.size());
  EXPECT_TRUE(stream_events(spans, InodeNo{2}, StreamId{1, 0}).empty());
}

TEST_F(OnDemandFixture, InstantRingStaysBounded) {
  obs::SpanCollector spans(ring_of(8));
  alloc.set_spans(&spans);
  for (u64 b = 0; b < 400; ++b) ASSERT_TRUE(write(1, b).ok());
  EXPECT_LE(spans.size(), 8u);
  // Every miss and promotion was recorded; whatever the ring could not
  // retain is accounted for as dropped.
  EXPECT_EQ(alloc.stats().prealloc_promotions + alloc.stats().layout_misses,
            spans.dropped() + spans.size());
  EXPECT_GT(spans.dropped(), 0u);
  // What remains is the chronological tail with contiguous span ids.
  const auto evs = spans.spans();
  for (std::size_t i = 1; i < evs.size(); ++i)
    EXPECT_EQ(evs[i].span_id, evs[i - 1].span_id + 1);
}

}  // namespace
}  // namespace mif::alloc
