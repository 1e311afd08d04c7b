// Block buffer cache (LRU, write-back).
//
// The MDS "satisfies requests from its local cache as much as possible"
// (§IV); what the paper measures is the *miss* traffic that reaches the
// disk.  This cache sits between the metadata file system and a disk's
// IoScheduler.  Payload bytes are not stored — the simulation only needs
// residency and dirtiness to decide which accesses become disk requests.
#pragma once

#include <list>
#include <unordered_map>

#include "sim/io_scheduler.hpp"
#include "util/types.hpp"

namespace mif::obs {
class SpanCollector;
}

namespace mif::block {

struct CacheStats {
  u64 hits{0};
  u64 misses{0};
  u64 writebacks{0};
  u64 evictions{0};
  double hit_ratio() const {
    const u64 n = hits + misses;
    return n ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

class BufferCache {
 public:
  /// `capacity_blocks == 0` disables caching entirely (every access goes to
  /// disk) — used by benches that model cold-cache synchronous metadata.
  BufferCache(sim::IoScheduler& io, u64 capacity_blocks);

  /// Read [start, start+len); issues disk reads for the non-resident subset.
  void read(DiskBlock start, u64 len);

  /// Dirty [start, start+len) in cache (allocating entries as needed).
  void write(DiskBlock start, u64 len);

  /// Write-through convenience: dirty then immediately flush that range.
  void write_sync(DiskBlock start, u64 len);

  /// Make [start, start+len) resident and CLEAN without any disk traffic.
  /// Used by journaled writers: the journal owns persistence (log +
  /// checkpoint), the cache only needs to know the blocks are up to date so
  /// subsequent reads hit.
  void install(DiskBlock start, u64 len);

  /// Flush all dirty blocks (sorted ascending so the scheduler can merge).
  void flush();

  /// Drop every entry (clean or dirty-after-flush); models memory pressure
  /// or a remount between benchmark phases.
  void invalidate_all();

  const CacheStats& stats() const { return stats_; }
  CacheStats snapshot() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  u64 resident_blocks() const { return map_.size(); }

  /// Attach a span collector: every eviction records a `cache.evict`
  /// instant (nullptr detaches).
  void set_spans(obs::SpanCollector* spans) { spans_ = spans; }

 private:
  struct Entry {
    std::list<u64>::iterator lru_pos;
    bool dirty{false};
  };

  void touch(u64 block);
  void insert(u64 block, bool dirty);
  void evict_one();

  sim::IoScheduler& io_;
  obs::SpanCollector* spans_{nullptr};
  u64 capacity_;
  std::list<u64> lru_;  // front = most recent
  std::unordered_map<u64, Entry> map_;
  CacheStats stats_;
};

}  // namespace mif::block
