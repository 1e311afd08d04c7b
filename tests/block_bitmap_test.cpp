// Unit + property tests for the free-space bitmap.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <vector>

#include "block/bitmap.hpp"
#include "util/rng.hpp"

namespace mif::block {
namespace {

TEST(Bitmap, StartsAllFree) {
  Bitmap b(1000);
  EXPECT_EQ(b.size(), 1000u);
  EXPECT_EQ(b.free_blocks(), 1000u);
  EXPECT_FALSE(b.is_set(0));
  EXPECT_FALSE(b.is_set(999));
}

TEST(Bitmap, SetAndClearRangeRoundTrip) {
  Bitmap b(256);
  b.set_range(10, 50);
  EXPECT_EQ(b.free_blocks(), 206u);
  EXPECT_TRUE(b.is_set(10));
  EXPECT_TRUE(b.is_set(59));
  EXPECT_FALSE(b.is_set(9));
  EXPECT_FALSE(b.is_set(60));
  b.clear_range(10, 50);
  EXPECT_EQ(b.free_blocks(), 256u);
}

TEST(Bitmap, RangeFreeDetectsCollisions) {
  Bitmap b(128);
  b.set_range(64, 1);
  EXPECT_TRUE(b.range_free(0, 64));
  EXPECT_FALSE(b.range_free(60, 8));
  EXPECT_TRUE(b.range_free(65, 63));
  EXPECT_FALSE(b.range_free(120, 100));  // beyond the end
}

TEST(Bitmap, FreeRunAtMeasuresRuns) {
  Bitmap b(128);
  b.set_range(10, 5);
  EXPECT_EQ(b.free_run_at(0, 128), 10u);
  EXPECT_EQ(b.free_run_at(15, 128), 113u);
  EXPECT_EQ(b.free_run_at(0, 4), 4u);  // capped
  EXPECT_EQ(b.free_run_at(10, 128), 0u);
}

TEST(Bitmap, FindRunHonoursGoal) {
  Bitmap b(1024);
  auto r = b.find_run(500, 10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 500u);
}

TEST(Bitmap, FindRunWrapsAround) {
  Bitmap b(128);
  b.set_range(64, 64);  // only [0, 64) free
  auto r = b.find_run(100, 10);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(*r, 0u);
}

TEST(Bitmap, FindRunFailsWhenFragmented) {
  Bitmap b(100);
  // Free space in runs of at most 4: every 5th block used.
  for (u64 i = 4; i < 100; i += 5) b.set_range(i, 1);
  EXPECT_FALSE(b.find_run(0, 5).has_value());
  EXPECT_TRUE(b.find_run(0, 4).has_value());
}

TEST(Bitmap, FindRunBestPrefersFullWant) {
  Bitmap b(200);
  b.set_range(10, 1);  // short run [0,10), long run [11,200)
  auto r = b.find_run_best(0, 1, 50);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->start.v, 11u);
  EXPECT_EQ(r->length, 50u);
}

TEST(Bitmap, FindRunBestDegradesToLongestRun) {
  Bitmap b(100);
  for (u64 i = 8; i < 100; i += 9) b.set_range(i, 1);  // runs of 8
  auto r = b.find_run_best(0, 2, 64);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->length, 8u);
}

TEST(Bitmap, FindRunBestRespectsMin) {
  Bitmap b(16);
  for (u64 i = 1; i < 16; i += 2) b.set_range(i, 1);  // runs of 1
  EXPECT_FALSE(b.find_run_best(0, 2, 8).has_value());
}

// Property: a randomized allocate/free exercise never corrupts the free
// count and find_run never returns an occupied range.
TEST(BitmapProperty, RandomAllocFreeKeepsInvariants) {
  mif::Rng rng(11);
  Bitmap b(4096);
  std::vector<std::pair<u64, u64>> live;
  for (int iter = 0; iter < 2000; ++iter) {
    if (live.empty() || rng.chance(0.6)) {
      const u64 len = rng.uniform(1, 64);
      auto r = b.find_run(rng.uniform(0, 4095), len);
      if (!r) continue;
      ASSERT_TRUE(b.range_free(*r, len));
      b.set_range(*r, len);
      live.emplace_back(*r, len);
    } else {
      const std::size_t i = rng.uniform(0, live.size() - 1);
      b.clear_range(live[i].first, live[i].second);
      live[i] = live.back();
      live.pop_back();
    }
  }
  u64 used = 0;
  for (const auto& [start, len] : live) used += len;
  EXPECT_EQ(b.free_blocks(), 4096u - used);
}

// Naive reference for the run searches: the free-run length at every bit,
// measured bit by bit, and a scan of goal..size() then 0..goal in order.
// find_run is the first position whose run reaches `len`; find_run_best is
// the first position whose run reaches want_len, else the first of the
// longest runs >= min_len.
class RunReference {
 public:
  explicit RunReference(const std::vector<bool>& used)
      : run_(used.size() + 1, 0) {
    for (u64 p = used.size(); p-- > 0;)
      run_[p] = used[p] ? 0 : run_[p + 1] + 1;
  }

  std::optional<u64> first_fit(u64 goal, u64 len) const {
    if (len == 0 || len > size()) return std::nullopt;
    for (u64 p : order(goal)) {
      if (run_[p] >= len) return p;
    }
    return std::nullopt;
  }

  std::optional<BlockRange> best_fit(u64 goal, u64 min_len,
                                     u64 want_len) const {
    if (min_len == 0) min_len = 1;
    std::optional<BlockRange> best;
    for (u64 p : order(goal)) {
      if (run_[p] >= want_len) return BlockRange{DiskBlock{p}, want_len};
      if (run_[p] >= min_len && (!best || run_[p] > best->length))
        best = BlockRange{DiskBlock{p}, run_[p]};
    }
    return best;
  }

 private:
  u64 size() const { return run_.size() - 1; }
  std::vector<u64> order(u64 goal) const {
    std::vector<u64> o;
    for (u64 p = goal; p < size(); ++p) o.push_back(p);
    for (u64 p = 0; p < std::min(goal, size()); ++p) o.push_back(p);
    return o;
  }

  std::vector<u64> run_;
};

/// A Bitmap holding exactly `used`, set one maximal used run at a time.
Bitmap make_bitmap(const std::vector<bool>& used) {
  Bitmap b(used.size());
  for (u64 p = 0; p < used.size();) {
    if (!used[p]) {
      ++p;
      continue;
    }
    u64 e = p;
    while (e < used.size() && used[e]) ++e;
    b.set_range(p, e - p);
    p = e;
  }
  return b;
}

void expect_matches_reference(const std::vector<bool>& used, u64 goal,
                              u64 min_len, u64 len) {
  const Bitmap b = make_bitmap(used);
  const RunReference ref(used);
  SCOPED_TRACE(::testing::Message() << "size=" << used.size() << " goal="
                                    << goal << " min=" << min_len
                                    << " len=" << len);
  EXPECT_EQ(b.find_run(goal, len), ref.first_fit(goal, len));
  const auto got = b.find_run_best(goal, min_len, len);
  const auto want = ref.best_fit(goal, min_len, len);
  ASSERT_EQ(got.has_value(), want.has_value());
  if (got) {
    EXPECT_EQ(got->start.v, want->start.v);
    EXPECT_EQ(got->length, want->length);
  }
}

/// Marks [start, start+len) used (clipped to the bitmap).
void mark(std::vector<bool>& used, u64 start, u64 len) {
  for (u64 p = start; p < start + len && p < used.size(); ++p) used[p] = true;
}

// Property: on random bitmaps both run searches return exactly what the
// naive first-fit and best-fit references return.  Each shape aims at a
// case a bounded probe could get wrong.
TEST(BitmapReference, MostlyFreeRunsFarLongerThanLen) {
  mif::Rng rng(21);
  for (int iter = 0; iter < 400; ++iter) {
    const u64 n = rng.uniform(1, 3000);
    std::vector<bool> used(n, false);
    for (u64 k = rng.uniform(0, 4); k > 0; --k)
      mark(used, rng.uniform(0, n - 1), rng.uniform(1, 8));
    const u64 len = rng.chance(0.7) ? rng.uniform(1, 16) : rng.uniform(1, n);
    expect_matches_reference(used, rng.uniform(0, n - 1), rng.uniform(0, len),
                             len);
  }
}

TEST(BitmapReference, DenseRandomBitmaps) {
  mif::Rng rng(22);
  for (int iter = 0; iter < 400; ++iter) {
    const u64 n = rng.uniform(1, 700);
    const double p = rng.uniform01();
    std::vector<bool> used(n);
    for (u64 i = 0; i < n; ++i) used[i] = rng.chance(p);
    const u64 len = rng.uniform(1, 24);
    expect_matches_reference(used, rng.uniform(0, n - 1), rng.uniform(0, len),
                             len);
  }
}

TEST(BitmapReference, RunsEndingExactlyAtSize) {
  mif::Rng rng(23);
  for (int iter = 0; iter < 300; ++iter) {
    const u64 n = rng.uniform(2, 1000);
    const u64 tail = rng.uniform(1, n - 1);  // free tail [n - tail, n)
    std::vector<bool> used(n, false);
    mark(used, 0, n - tail);
    for (u64 i = 0; i + 1 < n - tail; ++i) used[i] = rng.chance(0.7);
    used[n - tail - 1] = true;
    // tail - 1 (at least 1), tail or tail + 1.
    const u64 len = std::max<u64>(1, tail + rng.uniform(0, 2) - 1);
    const u64 goal = rng.chance(0.5) ? n - tail : rng.uniform(0, n - 1);
    expect_matches_reference(used, goal, rng.uniform(0, len), len);
  }
}

TEST(BitmapReference, RunStraddlingGoalFoundInWrapPass) {
  mif::Rng rng(24);
  for (int iter = 0; iter < 300; ++iter) {
    // One free run [s, e) around the goal; the part from the goal on is
    // too short, so only the wrap pass can return s.
    const u64 n = rng.uniform(8, 1500);
    const u64 s = rng.uniform(0, n - 3);
    const u64 e = rng.uniform(s + 2, n);
    std::vector<bool> used(n, true);
    for (u64 i = s; i < e; ++i) used[i] = false;
    const u64 goal = rng.uniform(s + 1, e - 1);
    const u64 len = rng.uniform(e - goal + 1, e - s);
    EXPECT_EQ(make_bitmap(used).find_run(goal, len), std::optional<u64>{s});
    expect_matches_reference(used, goal, rng.uniform(0, len), len);
    for (u64 k = rng.uniform(1, 3); k > 0; --k)  // a few short decoys
      used[rng.uniform(0, n - 1)] = false;
    expect_matches_reference(used, goal, rng.uniform(0, len), len);
  }
}

TEST(BitmapReference, RunsCrossingWordBoundaries) {
  mif::Rng rng(25);
  for (int iter = 0; iter < 300; ++iter) {
    // Free runs that start a few bits before a 64-bit word boundary and end
    // a few bits after one, separated by single used bits.
    const u64 words = rng.uniform(2, 12);
    const u64 n = words * 64 + rng.uniform(0, 63);
    std::vector<bool> used(n, true);
    for (u64 w = 1; w < words; w += rng.uniform(1, 3)) {
      const u64 s = w * 64 - rng.uniform(1, 8);
      const u64 e = std::min<u64>(n, w * 64 + rng.uniform(1, 130));
      for (u64 i = s; i < e; ++i) used[i] = false;
    }
    const u64 len = rng.uniform(1, 200);
    expect_matches_reference(used, rng.uniform(0, n - 1), rng.uniform(0, len),
                             len);
  }
}

TEST(BitmapReference, LenEqualsSize) {
  mif::Rng rng(26);
  for (u64 n : {1u, 63u, 64u, 65u, 128u, 1000u}) {
    std::vector<bool> used(n, false);
    const u64 goal = rng.uniform(0, n - 1);
    expect_matches_reference(used, goal, n, n);
    expect_matches_reference(used, goal, 1, n);
    EXPECT_EQ(make_bitmap(used).find_run(goal, n), std::optional<u64>{0});
    used[rng.uniform(0, n - 1)] = true;  // one used bit: no full-size run
    expect_matches_reference(used, goal, 1, n);
    EXPECT_FALSE(make_bitmap(used).find_run(goal, n).has_value());
  }
}

TEST(BitmapReference, WantLenBeyondSizeReturnsLongestRun) {
  std::vector<bool> used(300, false);
  mark(used, 100, 1);
  mark(used, 250, 1);
  for (u64 want : {u64{301}, u64{1} << 40, ~u64{0}}) {
    expect_matches_reference(used, 120, 1, want);
    const auto r = make_bitmap(used).find_run_best(120, 1, want);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->start.v, 101u);
    EXPECT_EQ(r->length, 149u);
  }
}

// A goal past the end wraps straight to block 0: the search covers the
// whole bitmap once and returns, on full and on partly free bitmaps alike.
TEST(BitmapReference, GoalBeyondSizeWrapsToStart) {
  mif::Rng rng(27);
  for (int iter = 0; iter < 300; ++iter) {
    const u64 n = rng.uniform(1, 700);
    const double p = iter % 3 == 0 ? 1.0 : rng.uniform01();
    std::vector<bool> used(n);
    for (u64 i = 0; i < n; ++i) used[i] = rng.chance(p);
    const u64 len = rng.uniform(1, 24);
    expect_matches_reference(used, rng.uniform(n + 1, 2 * n),
                             rng.uniform(0, len), len);
  }
  std::vector<bool> full(100, true);
  EXPECT_FALSE(make_bitmap(full).find_run(150, 4).has_value());
  EXPECT_FALSE(make_bitmap(full).find_run_best(150, 1, 4).has_value());
  std::vector<bool> tail_free(100, true);
  for (u64 i = 90; i < 100; ++i) tail_free[i] = false;
  EXPECT_EQ(make_bitmap(tail_free).find_run(200, 4), std::optional<u64>{90});
}

}  // namespace
}  // namespace mif::block
