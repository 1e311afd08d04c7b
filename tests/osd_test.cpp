// Unit tests for striping math and the storage target data path.
#include <gtest/gtest.h>

#include "obs/span.hpp"
#include "osd/storage_target.hpp"
#include "osd/striping.hpp"

namespace mif::osd {
namespace {

TEST(Striping, TargetRoundRobinByUnit) {
  StripeLayout l{4, 16};
  EXPECT_EQ(target_of(l, FileBlock{0}), 0u);
  EXPECT_EQ(target_of(l, FileBlock{15}), 0u);
  EXPECT_EQ(target_of(l, FileBlock{16}), 1u);
  EXPECT_EQ(target_of(l, FileBlock{63}), 3u);
  EXPECT_EQ(target_of(l, FileBlock{64}), 0u);
}

TEST(Striping, LocalOffsetsCompact) {
  StripeLayout l{4, 16};
  // Global stripe row 1, target 0: local row 1.
  EXPECT_EQ(to_local(l, FileBlock{64}).v, 16u);
  EXPECT_EQ(to_local(l, FileBlock{0}).v, 0u);
  EXPECT_EQ(to_local(l, FileBlock{17}).v, 1u);  // target 1, first row
}

TEST(Striping, SlicesCoverRangeExactlyOnce) {
  StripeLayout l{3, 8};
  auto slices = slices_for(l, FileBlock{5}, 40);
  u64 covered = 0;
  u64 expect_next = 5;
  for (const auto& s : slices) {
    EXPECT_EQ(s.global_start.v, expect_next);
    expect_next += s.count;
    covered += s.count;
    EXPECT_EQ(s.target, target_of(l, s.global_start));
    EXPECT_EQ(s.local_start.v, to_local(l, s.global_start).v);
  }
  EXPECT_EQ(covered, 40u);
}

TEST(Striping, SingleTargetDegeneratesToIdentity) {
  StripeLayout l{1, 16};
  auto slices = slices_for(l, FileBlock{100}, 100);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].local_start.v, 100u);
  EXPECT_EQ(slices[0].count, 100u);
}

TEST(Striping, SubUnitRequestIsOneSlice) {
  StripeLayout l{5, 16};
  auto slices = slices_for(l, FileBlock{18}, 4);
  ASSERT_EQ(slices.size(), 1u);
  EXPECT_EQ(slices[0].target, 1u);
}

struct TargetFixture : ::testing::Test {
  TargetConfig cfg() {
    TargetConfig c;
    c.allocator = alloc::AllocatorMode::kOnDemand;
    return c;
  }
  StorageTarget t{cfg()};
};

TEST_F(TargetFixture, WriteAllocatesAndSubmitsIo) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 64).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_written, 64u);
  EXPECT_EQ(t.extent_count(InodeNo{1}), 1u);
}

TEST_F(TargetFixture, ReadFollowsMapping) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 32).ok());
  t.drain();
  ASSERT_TRUE(t.read(InodeNo{1}, FileBlock{0}, 32).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_read, 32u);
}

TEST_F(TargetFixture, ReadOfHoleIsFree) {
  ASSERT_TRUE(t.read(InodeNo{42}, FileBlock{0}, 100).ok());
  t.drain();
  EXPECT_EQ(t.disk().stats().blocks_read, 0u);
}

TEST_F(TargetFixture, PreallocateThenStaticBehaviour) {
  TargetConfig c;
  c.allocator = alloc::AllocatorMode::kStatic;
  StorageTarget st(c);
  ASSERT_TRUE(st.preallocate(InodeNo{1}, 128).ok());
  EXPECT_EQ(st.extent_count(InodeNo{1}), 1u);
  ASSERT_TRUE(st.write(InodeNo{1}, StreamId{1, 0}, FileBlock{64}, 8).ok());
  EXPECT_LE(st.extent_count(InodeNo{1}), 3u);  // split around written range
}

TEST_F(TargetFixture, DeleteFileReleasesSpace) {
  const u64 free0 = t.space().free_blocks();
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 64).ok());
  EXPECT_LT(t.space().free_blocks(), free0);
  t.delete_file(InodeNo{1});
  EXPECT_EQ(t.space().free_blocks(), free0);
  EXPECT_EQ(t.extent_count(InodeNo{1}), 0u);
}

TEST_F(TargetFixture, CloseFileDropsReservations) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 4).ok());
  EXPECT_GT(t.allocator().stats().reserved_blocks, 0u);
  t.close_file(InodeNo{1});
  EXPECT_EQ(t.allocator().stats().reserved_blocks, 0u);
}

TEST_F(TargetFixture, ExtentsSnapshotMatchesCount) {
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 16).ok());
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{2, 0}, FileBlock{100}, 16).ok());
  EXPECT_EQ(t.extents(InodeNo{1}).size(), t.extent_count(InodeNo{1}));
}

TEST_F(TargetFixture, SpansSurviveReformat) {
  // A reformat rebuilds the allocator; the attached collector must follow
  // it, or the replacement spindle's state machine goes dark.
  obs::SpanCollector spans;
  t.set_spans(&spans, obs::make_track(0, 0));
  auto misses = [&] {
    u64 n = 0;
    for (const obs::SpanRecord& r : spans.spans())
      if (r.name == "alloc.layout_miss") ++n;
    return n;
  };
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 4).ok());
  const u64 before = misses();
  ASSERT_GT(before, 0u);
  t.reset_contents();
  ASSERT_TRUE(t.write(InodeNo{1}, StreamId{1, 0}, FileBlock{0}, 4).ok());
  EXPECT_GT(misses(), before);
  EXPECT_EQ(misses(), before + t.allocator().stats().layout_misses);
}

}  // namespace
}  // namespace mif::osd
