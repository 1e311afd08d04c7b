#include "block/buffer_cache.hpp"

#include <algorithm>
#include <vector>

#include "obs/span.hpp"

namespace mif::block {

BufferCache::BufferCache(sim::IoScheduler& io, u64 capacity_blocks)
    : io_(io), capacity_(capacity_blocks) {}

void BufferCache::touch(u64 block) {
  auto it = map_.find(block);
  lru_.erase(it->second.lru_pos);
  lru_.push_front(block);
  it->second.lru_pos = lru_.begin();
}

void BufferCache::insert(u64 block, bool dirty) {
  if (capacity_ == 0) return;
  while (map_.size() >= capacity_) evict_one();
  lru_.push_front(block);
  map_[block] = Entry{lru_.begin(), dirty};
}

void BufferCache::evict_one() {
  const u64 victim = lru_.back();
  auto it = map_.find(victim);
  const bool dirty = it->second.dirty;
  if (dirty) {
    io_.submit({sim::IoKind::kWrite, DiskBlock{victim}, 1});
    ++stats_.writebacks;
  }
  map_.erase(it);
  lru_.pop_back();
  ++stats_.evictions;
  if (spans_) spans_->instant("cache.evict", victim, dirty ? 1 : 0);
}

void BufferCache::read(DiskBlock start, u64 len) {
  // Coalesce the missing sub-ranges into as few disk requests as possible.
  u64 miss_start = kNoBlock;
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (auto it = map_.find(b); it != map_.end()) {
      ++stats_.hits;
      touch(b);
      if (miss_start != kNoBlock) {
        io_.submit({sim::IoKind::kRead, DiskBlock{miss_start}, b - miss_start});
        miss_start = kNoBlock;
      }
    } else {
      ++stats_.misses;
      insert(b, /*dirty=*/false);
      if (miss_start == kNoBlock) miss_start = b;
    }
  }
  if (miss_start != kNoBlock) {
    io_.submit(
        {sim::IoKind::kRead, DiskBlock{miss_start}, start.v + len - miss_start});
  }
}

void BufferCache::write(DiskBlock start, u64 len) {
  if (capacity_ == 0) {
    io_.submit({sim::IoKind::kWrite, start, len});
    ++stats_.writebacks;
    return;
  }
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (auto it = map_.find(b); it != map_.end()) {
      ++stats_.hits;
      it->second.dirty = true;
      touch(b);
    } else {
      ++stats_.misses;
      insert(b, /*dirty=*/true);
    }
  }
}

void BufferCache::install(DiskBlock start, u64 len) {
  if (capacity_ == 0) return;
  for (u64 b = start.v; b < start.v + len; ++b) {
    if (auto it = map_.find(b); it != map_.end()) {
      touch(b);
    } else {
      insert(b, /*dirty=*/false);
    }
  }
}

void BufferCache::write_sync(DiskBlock start, u64 len) {
  write(start, len);
  if (capacity_ == 0) return;
  // Flush just this range.
  for (u64 b = start.v; b < start.v + len; ++b) {
    auto it = map_.find(b);
    if (it != map_.end() && it->second.dirty) it->second.dirty = false;
  }
  io_.submit({sim::IoKind::kWrite, start, len});
  ++stats_.writebacks;
}

void BufferCache::flush() {
  std::vector<u64> dirty;
  for (auto& [block, entry] : map_) {
    if (entry.dirty) {
      dirty.push_back(block);
      entry.dirty = false;
    }
  }
  std::sort(dirty.begin(), dirty.end());
  // Emit maximal contiguous runs.
  std::size_t i = 0;
  while (i < dirty.size()) {
    std::size_t j = i + 1;
    while (j < dirty.size() && dirty[j] == dirty[j - 1] + 1) ++j;
    io_.submit({sim::IoKind::kWrite, DiskBlock{dirty[i]}, j - i});
    ++stats_.writebacks;
    i = j;
  }
}

void BufferCache::invalidate_all() {
  flush();
  io_.drain();
  lru_.clear();
  map_.clear();
}

}  // namespace mif::block
