// File-block allocator strategies.
//
// Four policies behind one interface, matching the paper's evaluation modes:
//   * Vanilla      — no preallocation; every extend grabs blocks wherever the
//                    global cursor sits (Table I "Vanilla").
//   * Reservation  — ext4-style per-INODE reservation window (the baseline
//                    both Lustre and original Redbud use, §I/§II-B).
//   * Static       — fallocate: the whole file is persistently preallocated
//                    up-front, requiring foreknowledge of its size (§I).
//   * OnDemand     — the paper's contribution (§III): per-STREAM current +
//                    sequential windows with layout_miss / pre_alloc_layout
//                    triggers and adaptive window sizing.
//
// An allocator mutates the file's ExtentMap directly: extend() guarantees
// that after it returns, the logical range of the write is mapped to disk
// blocks and marked written.  How contiguous that mapping is — and therefore
// how the file reads back — is entirely the strategy's doing.
#pragma once

#include <memory>
#include <mutex>

#include "block/block_types.hpp"
#include "block/free_space.hpp"
#include "obs/span.hpp"
#include "util/result.hpp"
#include "util/types.hpp"

namespace mif::alloc {

struct AllocContext {
  InodeNo inode{};
  StreamId stream{};
  FileBlock logical{};
  u64 count{0};  // blocks
};

struct AllocatorStats {
  u64 extends{0};            // extend() calls
  u64 fresh_allocations{0};  // calls into the free-space manager
  u64 allocated_blocks{0};
  u64 layout_misses{0};      // on-demand trigger (or window resets elsewhere)
  u64 prealloc_promotions{0};// pre_alloc_layout hits
  u64 reserved_blocks{0};    // currently temporarily reserved (seq windows)
  u64 released_blocks{0};    // unwritten blocks given back (close/trim)
  u64 prealloc_disabled{0};  // streams demoted to no-prealloc (miss threshold)
};

enum class AllocatorMode { kVanilla, kReservation, kStatic, kOnDemand };
std::string_view to_string(AllocatorMode m);

class FileAllocator {
 public:
  explicit FileAllocator(block::FreeSpace& space) : space_(space) {}
  virtual ~FileAllocator() = default;

  FileAllocator(const FileAllocator&) = delete;
  FileAllocator& operator=(const FileAllocator&) = delete;

  /// Ensure [ctx.logical, ctx.logical + ctx.count) is mapped and written in
  /// `map`.  Thread-safe: strategies lock their private state; the
  /// underlying groups lock themselves.  The caller serialises access to any
  /// single file's `map` (the OSD holds a per-file lock).
  Status extend(const AllocContext& ctx, block::ExtentMap& map);

  /// fallocate-style persistent preallocation of [0, total_blocks).
  /// Only meaningful for kStatic; others return kInvalid.
  virtual Status preallocate(InodeNo inode, block::ExtentMap& map,
                             u64 total_blocks);

  /// Release temporary reservations held on behalf of this file and trim
  /// never-written preallocated tails.  Called on last close.
  virtual void close_file(InodeNo inode, block::ExtentMap& map);

  /// Return every block of the file (mapped or reserved) to free space.
  void delete_file(InodeNo inode, block::ExtentMap& map);

  virtual AllocatorStats stats() const;
  block::FreeSpace& space() { return space_; }
  virtual AllocatorMode mode() const = 0;

  /// Attach a span collector for state-machine instants (alloc.layout_miss,
  /// alloc.pre_alloc_layout, alloc.stream_demote, alloc.lazy_free).
  /// nullptr (the default) detaches; the write path then pays one branch.
  void set_spans(obs::SpanCollector* spans) { spans_ = spans; }

 protected:
  /// Strategy hook: map the currently-unmapped logical hole
  /// [logical, logical+count) for this stream.  Must insert written extents.
  virtual Status allocate_fresh(const AllocContext& ctx, FileBlock logical,
                                u64 count, block::ExtentMap& map) = 0;

  /// Allocate possibly-scattered runs near `goal` and insert them as written
  /// extents starting at `logical`.  Shared fallback for every strategy.
  Status allocate_near(DiskBlock goal, FileBlock logical, u64 count,
                       block::ExtentMap& map);

  /// Reasonable allocation goal for a file: just past its last mapped block,
  /// or a per-inode home group when the file is empty.
  DiskBlock goal_for(InodeNo inode, const block::ExtentMap& map) const;

  /// Record an instant if a span collector is attached.
  void emit(std::string_view name, InodeNo inode, StreamId stream,
            u64 arg0 = 0, u64 arg1 = 0) {
    if (spans_) spans_->instant(name, inode, stream, arg0, arg1);
  }

  block::FreeSpace& space_;
  // Recursive: strategy hooks run under the lock and may call shared helpers
  // (allocate_near) that also account stats under it.
  mutable std::recursive_mutex mu_;
  AllocatorStats stats_;
  obs::SpanCollector* spans_{nullptr};
};

/// Factory used by the storage target.
struct AllocatorTuning {
  // Reservation strategy.
  u64 reservation_blocks{64};  // 256 KiB, near the ext4 default window
  // On-demand strategy (§III-C).
  u64 scale{2};                       // window growth factor (2 or 4)
  u64 max_preallocation_blocks{2048}; // 8 MiB cap, "tunable"
  u32 miss_threshold{4};              // misses before a stream is "random"
};

std::unique_ptr<FileAllocator> make_allocator(AllocatorMode mode,
                                              block::FreeSpace& space,
                                              AllocatorTuning tuning = {});

}  // namespace mif::alloc
