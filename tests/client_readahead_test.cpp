// Tests for the client-side readahead and buffering added to ClientFs: the
// Lustre-style mechanism that turns an application's small sequential reads
// into large per-region fetches.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "core/pfs.hpp"
#include "util/rng.hpp"

namespace mif::client {
namespace {

core::ClusterConfig cfg_with_ra(u64 max_blocks) {
  core::ClusterConfig cfg;
  cfg.num_targets = 2;
  cfg.stripe.unit_blocks = 64;
  cfg.target.allocator = alloc::AllocatorMode::kStatic;
  cfg.client_readahead_max_blocks = max_blocks;
  return cfg;
}

struct ReadaheadFixture : ::testing::Test {
  core::ParallelFileSystem fs{cfg_with_ra(256)};
  ClientFs client{fs.connect(ClientId{1})};
  FileHandle fh;

  void SetUp() override {
    auto h = client.create("/data");
    ASSERT_TRUE(h);
    fh = *h;
    ASSERT_TRUE(fs.preallocate(fh.ino, 4096).ok());  // 16 MiB, contiguous
    ASSERT_TRUE(client.write(fh, 0, 0, 4096 * kBlockSize).ok());
    fs.drain_data();
    fs.reset_data_stats();
  }
};

TEST_F(ReadaheadFixture, FirstReadFetchesExactlyWhatWasAsked) {
  ASSERT_TRUE(client.read(fh, 0, 8 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 8u);
}

TEST_F(ReadaheadFixture, SequentialReadsPrefetchAhead) {
  ASSERT_TRUE(client.read(fh, 0, 8 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 8 * kBlockSize, 8 * kBlockSize).ok());
  fs.drain_data();
  // The second (sequential) read pulled a window beyond the 16 asked-for
  // blocks.
  EXPECT_GT(fs.data_stats().blocks_read, 16u);
  EXPECT_GT(client.stats().readahead_blocks, 0u);
}

TEST_F(ReadaheadFixture, PrefetchedDataIsNotReFetched) {
  // Walk the file sequentially; total disk traffic must stay ~file size,
  // not file size × window overshoot.
  for (u64 off = 0; off < 2048; off += 8) {
    ASSERT_TRUE(client.read(fh, off * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  const u64 read = fs.data_stats().blocks_read;
  EXPECT_GE(read, 2048u);
  EXPECT_LE(read, 2048u + 512u);  // at most one overshoot window beyond
  EXPECT_GT(client.stats().readahead_hits, 0u);
}

TEST_F(ReadaheadFixture, RandomReadsDoNotPrefetch) {
  ASSERT_TRUE(client.read(fh, 0, 4 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 1000 * kBlockSize, 4 * kBlockSize).ok());
  ASSERT_TRUE(client.read(fh, 500 * kBlockSize, 4 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 12u);
  EXPECT_EQ(client.stats().readahead_blocks, 0u);
}

TEST_F(ReadaheadFixture, WindowIsCapped) {
  for (u64 off = 0; off < 4000; off += 8) {
    ASSERT_TRUE(client.read(fh, off * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  // Even after a long run, traffic never exceeded file + one max window.
  EXPECT_LE(fs.data_stats().blocks_read, 4096u + 256u);
}

TEST_F(ReadaheadFixture, TwoInterleavedStreamsTrackIndependently) {
  // Stream A at the file head, stream B in the middle, interleaved: both
  // must be detected as sequential.
  for (u64 step = 0; step < 64; ++step) {
    ASSERT_TRUE(client.read(fh, step * 8 * kBlockSize, 8 * kBlockSize).ok());
    ASSERT_TRUE(
        client.read(fh, (2048 + step * 8) * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  EXPECT_GT(client.stats().readahead_hits, 32u);
}

TEST_F(ReadaheadFixture, FailedPrefetchIsNotServedFromTheBuffer) {
  ASSERT_TRUE(client.read(fh, 0, 8 * kBlockSize).ok());
  fs.target(0).inject_fault(1, 1);
  // The demand read [8,16) succeeds; its prefetch of [16,32) fails.
  EXPECT_EQ(client.read(fh, 8 * kBlockSize, 8 * kBlockSize).error(),
            Errc::kIo);
  fs.drain_data();
  fs.reset_data_stats();
  // Nothing of the failed prefetch may be handed over as buffered data.
  ASSERT_TRUE(client.read(fh, 16 * kBlockSize, 8 * kBlockSize).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 8u);
}

// Per-block reference model of ClientFs::read: a set of buffered
// (ino, block) pairs and the sequential-window rules.  It counts the blocks
// a read must fetch from the targets and the readahead counters.  The
// 2^20-block buffer cap is left out: these tests never come near it.
class ReadaheadModel {
 public:
  explicit ReadaheadModel(u64 max_window) : max_window_(max_window) {}

  void read(u64 ino, u64 first, u64 last) {
    auto it = cursors_.find({ino, first});
    const bool sequential = it != cursors_.end() && max_window_ > 0;
    fetch(ino, first, last, /*consume=*/true);
    Cursor cur{last, last - first};
    if (sequential) {
      cur = it->second;
      cursors_.erase(it);
      cur.window = std::min(std::max(cur.window * 2, last - first),
                            max_window_);
      if (last <= cur.prefetched_until) ++hits;
      if (last + cur.window / 2 > cur.prefetched_until) {
        const u64 want_until = last + cur.window;
        const u64 from = std::max(last, cur.prefetched_until);
        fetch(ino, from, want_until, /*consume=*/false);
        readahead_blocks += want_until - from;
        cur.prefetched_until = want_until;
      }
    } else if (max_window_ == 0) {
      return;
    }
    if (cursors_.size() < 4096) cursors_[{ino, last}] = cur;
  }

  u64 fetched{0};
  u64 readahead_blocks{0};
  u64 hits{0};

 private:
  struct Cursor {
    u64 prefetched_until;
    u64 window;
  };

  void fetch(u64 ino, u64 first, u64 last, bool consume) {
    for (u64 b = first; b < last; ++b) {
      if (buffered_.contains({ino, b})) {
        if (consume) buffered_.erase({ino, b});
      } else {
        if (!consume) buffered_.insert({ino, b});
        ++fetched;
      }
    }
  }

  u64 max_window_;
  std::set<std::pair<u64, u64>> buffered_;
  std::map<std::pair<u64, u64>, Cursor> cursors_;
};

struct ModelFixture : ::testing::Test {
  static constexpr u64 kWindow = 64;
  static constexpr u64 kFileBlocks = 1024;
  core::ParallelFileSystem fs{cfg_with_ra(kWindow)};
  ClientFs client{fs.connect(ClientId{1})};
  std::vector<FileHandle> files;
  ReadaheadModel model{kWindow};

  void SetUp() override {
    for (const char* path : {"/a", "/b", "/c"}) {
      auto h = client.create(path);
      ASSERT_TRUE(h);
      ASSERT_TRUE(fs.preallocate(h->ino, kFileBlocks).ok());
      ASSERT_TRUE(client.write(*h, 0, 0, kFileBlocks * kBlockSize).ok());
      files.push_back(*h);
    }
    fs.drain_data();
    fs.reset_data_stats();
  }

  /// Read [first, first+n) of file `f` through the client and the model,
  /// then compare blocks fetched from the targets and both counters.
  void read_and_compare(std::size_t f, u64 first, u64 n) {
    ASSERT_TRUE(
        client.read(files[f], first * kBlockSize, n * kBlockSize).ok());
    model.read(files[f].ino.v, first, first + n);
    fs.drain_data();
    ASSERT_EQ(fs.data_stats().blocks_read, model.fetched)
        << "file " << f << " read [" << first << ", " << first + n << ")";
    ASSERT_EQ(client.stats().readahead_blocks, model.readahead_blocks);
    ASSERT_EQ(client.stats().readahead_hits, model.hits);
  }
};

TEST_F(ModelFixture, RandomStreamsMatchPerBlockModel) {
  mif::Rng rng(7);
  // Keep every read and its prefetch inside the written blocks, so the
  // targets count each fetched block.
  constexpr u64 kMaxStart = kFileBlocks - kWindow - 16;
  std::vector<u64> next(files.size(), 0);
  for (int step = 0; step < 3000; ++step) {
    const std::size_t f = rng.uniform(0, files.size() - 1);
    const u64 n = rng.uniform(1, 16);
    if (rng.chance(0.15) || next[f] > kMaxStart) {
      // Jump: anywhere, sometimes back into the buffered range.
      next[f] = rng.chance(0.5) ? rng.uniform(0, kMaxStart)
                                : next[f] - std::min<u64>(next[f],
                                                          rng.uniform(0, 80));
    }
    ASSERT_NO_FATAL_FAILURE(read_and_compare(f, next[f], n));
    next[f] += n;
  }
  EXPECT_GT(model.hits, 100u);
  EXPECT_GT(model.readahead_blocks, 1000u);
}

TEST_F(ModelFixture, SegmentPrefetchIsConsumedByTheNextSegmentsReader) {
  // The N-1 checkpoint read pattern: one reader streams segment [0, 128)
  // and prefetches past its end; a reader of the next segment then finds
  // its first blocks buffered and reads them with no target read.
  for (u64 b = 0; b < 128; b += 4)
    ASSERT_NO_FATAL_FAILURE(read_and_compare(0, b, 4));
  const u64 before = fs.data_stats().blocks_read;
  ASSERT_NO_FATAL_FAILURE(read_and_compare(0, 128, 4));
  EXPECT_EQ(fs.data_stats().blocks_read, before);
  for (u64 b = 132; b < 256; b += 4)
    ASSERT_NO_FATAL_FAILURE(read_and_compare(0, b, 4));
}

TEST(ReadaheadCap, FullBufferClipsAndThenStopsBuffering) {
  // Abandoned sequential streams over a never-written file fill the
  // buffer to 8 blocks short of the 2^20-block cap (their reads map no
  // disk blocks, so they leave the disk counters alone).
  core::ParallelFileSystem fs(cfg_with_ra(u64{1} << 16));
  auto client = fs.connect(ClientId{1});
  auto far = client.create("/far");
  auto data = client.create("/data");
  ASSERT_TRUE(far && data);
  for (u64 s = 0; s < 16; ++s) {
    const u64 n = s < 15 ? 32768 : 32764;  // each prefetches 2n blocks
    const u64 at = s * 131072;
    ASSERT_TRUE(client.read(*far, at * kBlockSize, n * kBlockSize).ok());
    ASSERT_TRUE(
        client.read(*far, (at + n) * kBlockSize, n * kBlockSize).ok());
  }
  ASSERT_EQ(client.stats().readahead_blocks, (u64{1} << 20) - 8);
  ASSERT_TRUE(client.write(*data, 0, 0, 1024 * kBlockSize).ok());
  fs.drain_data();
  fs.reset_data_stats();

  // Target blocks per read of /data, 8 blocks at a time from block 0.
  // [8,16) prefetches [16,32) but only [16,24) fits; every later prefetch
  // buffers only as many blocks as consuming reads freed.
  std::vector<u64> fetched;
  for (u64 b = 0; b < 48; b += 8) {
    const u64 before = fs.data_stats().blocks_read;
    ASSERT_TRUE(client.read(*data, b * kBlockSize, 8 * kBlockSize).ok());
    fs.drain_data();
    fetched.push_back(fs.data_stats().blocks_read - before);
  }
  EXPECT_EQ(fetched, (std::vector<u64>{8, 24, 24, 48, 72, 144}));
}

TEST(ReadaheadDisabled, ZeroMaxMeansRawReads) {
  core::ParallelFileSystem fs(cfg_with_ra(0));
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("/raw");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 256 * kBlockSize).ok());
  fs.drain_data();
  fs.reset_data_stats();
  for (u64 off = 0; off < 256; off += 8) {
    ASSERT_TRUE(client.read(*fh, off * kBlockSize, 8 * kBlockSize).ok());
  }
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_read, 256u);
  EXPECT_EQ(client.stats().readahead_blocks, 0u);
}

TEST(ReadaheadPlacementInteraction, ReadaheadShrinksRequestStream) {
  // With readahead on, the storage targets see far fewer, larger requests
  // for the same sequential scan.
  auto queued_reads = [](u64 ra_blocks) {
    core::ParallelFileSystem fs(cfg_with_ra(ra_blocks));
    auto client = fs.connect(ClientId{1});
    auto fh = client.create("/scan");
    EXPECT_TRUE(fh.ok());
    EXPECT_TRUE(client.write(*fh, 0, 0, 2048 * kBlockSize).ok());
    fs.drain_data();
    u64 before = 0;
    for (std::size_t t = 0; t < fs.num_targets(); ++t)
      before += fs.target(t).io().stats().queued;
    for (u64 off = 0; off < 2048; off += 4) {
      EXPECT_TRUE(client.read(*fh, off * kBlockSize, 4 * kBlockSize).ok());
    }
    fs.drain_data();
    u64 after = 0;
    for (std::size_t t = 0; t < fs.num_targets(); ++t)
      after += fs.target(t).io().stats().queued;
    return after - before;
  };
  const u64 with_ra = queued_reads(256);
  const u64 without_ra = queued_reads(0);
  EXPECT_LT(with_ra, without_ra / 4);
}

}  // namespace
}  // namespace mif::client
