#include "block/bitmap.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mif::block {

namespace {
constexpr u64 kWordBits = 64;

/// End of a bounded run probe at `b`: b + len, clamped to `size` without
/// overflowing for huge lengths.
u64 probe_end(u64 b, u64 len, u64 size) {
  return size - b > len ? b + len : size;
}
}  // namespace

Bitmap::Bitmap(u64 blocks)
    : words_((blocks + kWordBits - 1) / kWordBits, 0),
      size_(blocks),
      free_(blocks) {}

bool Bitmap::is_set(u64 bit) const {
  assert(bit < size_);
  return (words_[bit / kWordBits] >> (bit % kWordBits)) & 1u;
}

void Bitmap::set_range(u64 start, u64 len) {
  assert(start + len <= size_);
  assert(range_free(start, len));
  for (u64 b = start; b < start + len; ++b)
    words_[b / kWordBits] |= u64{1} << (b % kWordBits);
  free_ -= len;
}

void Bitmap::clear_range(u64 start, u64 len) {
  assert(start + len <= size_);
  for (u64 b = start; b < start + len; ++b) {
    assert(is_set(b));
    words_[b / kWordBits] &= ~(u64{1} << (b % kWordBits));
  }
  free_ += len;
}

bool Bitmap::range_free(u64 start, u64 len) const {
  if (start + len > size_) return false;
  return free_run_at(start, len) >= len;
}

u64 Bitmap::free_run_at(u64 start, u64 max_len) const {
  u64 run = 0;
  u64 b = start;
  while (run < max_len && b < size_) {
    // Fast path: whole free word.
    if (b % kWordBits == 0 && max_len - run >= kWordBits &&
        b + kWordBits <= size_ && words_[b / kWordBits] == 0) {
      run += kWordBits;
      b += kWordBits;
      continue;
    }
    if (is_set(b)) break;
    ++run;
    ++b;
  }
  return run;
}

u64 Bitmap::next_free(u64 from) const {
  u64 b = from;
  while (b < size_) {
    const u64 w = words_[b / kWordBits] >> (b % kWordBits);
    if (w == ~u64{0} >> (b % kWordBits) && (b % kWordBits) == 0) {
      b += kWordBits;  // fully used word
      continue;
    }
    if (!((w)&1u)) return b;
    // Skip the used run inside this word.
    const u64 trailing_used = static_cast<u64>(std::countr_one(w));
    b += trailing_used;
    if (trailing_used == 0) ++b;  // defensive; cannot happen
  }
  return size_;
}

u64 Bitmap::next_used(u64 from, u64 limit) const {
  u64 b = from;
  while (b < limit) {
    const u64 idx = b / kWordBits;
    const u64 w = words_[idx] >> (b % kWordBits);
    if (w == 0) {
      b = (idx + 1) * kWordBits;  // fully free from here in this word
      continue;
    }
    return std::min(b + static_cast<u64>(std::countr_zero(w)), limit);
  }
  return limit;
}

std::optional<u64> Bitmap::find_run(u64 goal, u64 len) const {
  if (len == 0 || len > size_) return std::nullopt;
  auto scan = [&](u64 from, u64 to) -> std::optional<u64> {
    u64 b = from;
    while (b < to) {
      b = next_free(b);
      if (b >= to) break;
      // Probe only as far as `len`: a longer run is no better here.
      const u64 run_end = next_used(b, probe_end(b, len, size_));
      if (run_end - b >= len) return b;
      b = run_end;
    }
    return std::nullopt;
  };
  if (auto r = scan(goal, size_)) return r;
  // The wrap pass stops at size_ too: past it next_free/next_used return
  // size_ forever, so a goal beyond the bitmap would never end the scan.
  if (goal > 0) return scan(0, std::min(goal, size_));
  return std::nullopt;
}

u64 Bitmap::add_free_runs(Histogram& h) const {
  u64 runs = 0;
  u64 b = 0;
  while (b < size_) {
    b = next_free(b);
    if (b >= size_) break;
    const u64 run_end = next_used(b, size_);
    h.add(run_end - b);
    ++runs;
    b = run_end;
  }
  return runs;
}

std::optional<BlockRange> Bitmap::find_run_best(u64 goal, u64 min_len,
                                                u64 want_len) const {
  if (min_len == 0) min_len = 1;
  std::optional<BlockRange> best;
  auto scan = [&](u64 from, u64 to) -> bool {
    u64 b = from;
    while (b < to) {
      b = next_free(b);
      if (b >= to) break;
      // Probe only as far as want_len; a shorter run is measured exactly.
      const u64 run_end = next_used(b, probe_end(b, want_len, size_));
      const u64 run = run_end - b;
      if (run >= want_len) {
        best = BlockRange{DiskBlock{b}, want_len};
        return true;  // first full-size run wins (locality to goal)
      }
      if (run >= min_len && (!best || run > best->length)) {
        best = BlockRange{DiskBlock{b}, run};
      }
      b = run_end;
    }
    return false;
  };
  if (!scan(goal, size_) && goal > 0) scan(0, std::min(goal, size_));
  return best;
}

}  // namespace mif::block
