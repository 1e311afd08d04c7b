// Storage target (OST / IO server): one data disk behind a merging
// scheduler, a PAG-partitioned free-space manager, and a pluggable file
// allocator — the place where MiF's on-demand preallocation lives ("in some
// parallel file systems, allocator is located in their IO servers", §I).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>

#include "alloc/allocator.hpp"
#include "sim/disk.hpp"
#include "sim/io_scheduler.hpp"

namespace mif::obs {
class MetricsRegistry;
class Histo;
class SpanCollector;
}

namespace mif::osd {

struct TargetConfig {
  sim::DiskGeometry geometry{};
  u32 alloc_groups{8};
  alloc::AllocatorMode allocator{alloc::AllocatorMode::kReservation};
  alloc::AllocatorTuning tuning{};
  /// Bounded read queue (block-layer nr_requests scale).
  std::size_t scheduler_queue{256};
  /// Write-back depth: the OSS page cache keeps ~100 MB of dirty data per
  /// spindle and flushes it in long per-region runs, so interleaved write
  /// streams amortise positioning far better than readers can.
  std::size_t writeback_queue{4096};
};

class StorageTarget {
 public:
  explicit StorageTarget(TargetConfig cfg = {});

  /// Extend-and-write [logical, logical+count) of the target-local subfile
  /// of `inode` on behalf of `stream`.  Allocates through the configured
  /// strategy and submits the data writes.
  Status write(InodeNo inode, StreamId stream, FileBlock logical, u64 count);

  /// Read [logical, logical+count); unmapped holes read nothing (zeroes).
  Status read(InodeNo inode, FileBlock logical, u64 count);

  /// Batched write: the runs of one rpc::BlockWriteRequest envelope, applied
  /// in order.  One fault-injection check covers the whole envelope (a wire
  /// message fails as a unit); each run still takes its own allocator
  /// decision, so placement is identical to issuing the runs one by one.
  Status write_runs(InodeNo inode, StreamId stream,
                    std::span<const BlockRun> runs);

  /// Batched read of several runs (one rpc::BlockReadRequest envelope).
  Status read_runs(InodeNo inode, std::span<const BlockRun> runs);

  /// fallocate the local subfile to `total_blocks`.
  Status preallocate(InodeNo inode, u64 total_blocks);

  /// Release the allocator's temporary reservations for this file.
  void close_file(InodeNo inode);

  /// Free all blocks of the file.
  void delete_file(InodeNo inode);

  /// Extents currently mapping the local subfile.
  u64 extent_count(InodeNo inode) const;
  /// All extents (diagnostics / layout shipping).
  std::vector<block::Extent> extents(InodeNo inode) const;

  /// Visit every local subfile inode (sorted — callers that rebuild from
  /// this enumeration must be deterministic).  The repair service's source
  /// of truth for what survives on this target.
  void for_each_file(const std::function<void(InodeNo)>& fn) const;

  /// Disk replacement after a kill-OSD fault: every subfile mapping and the
  /// whole free-space/allocator state are discarded (the new spindle is
  /// freshly formatted), while the disk's simulated clock and stats stay
  /// monotone — the replacement arrives at the time the cluster has
  /// reached, it does not rewind history.  Subfile entries survive as
  /// zero-extent shells rather than being erased, so a FileState reference
  /// held across the swap stays valid.  Must run at a safe point with no
  /// writer concurrently inside the allocator (the kill path fires it from
  /// the transport caller's thread).
  void reset_contents();

  // --- fault injection ------------------------------------------------------
  /// After `after_ops` further data operations, the next `count` operations
  /// fail with kIo before touching allocator or disk.  Models a transient
  /// device/path fault; callers must see the error and the target must stay
  /// consistent.
  void inject_fault(u64 after_ops, u64 count);
  u64 injected_failures() const { return failures_seen_; }

  // --- integrity verification ----------------------------------------------
  struct VerifyReport {
    u64 files{0};
    u64 extents{0};
    u64 mapped_blocks{0};
    u64 reserved_blocks{0};
    u64 used_blocks{0};
    bool overlap_free{true};
    bool space_accounted{true};
    bool ok() const { return overlap_free && space_accounted; }
  };
  /// fsck-style pass: no physical block owned twice across all files, and
  /// every used block is owned by a file mapping or an allocator
  /// reservation.
  VerifyReport verify() const;

  // --- observability -------------------------------------------------------
  /// Attach a span collector: allocator decisions record `alloc.decide`
  /// (plus the allocator's state-machine instants), and the data disk
  /// records `disk.*` on span track `track` (nullptr detaches).  The
  /// scheduler's aggregated `io.queue_wait` spans get their own lane
  /// (track + 64) so their cumulative wait clock never interleaves with the
  /// disk's real timeline on one viewer lane.
  void set_spans(obs::SpanCollector* spans, u32 track) {
    spans_ = spans;
    alloc_->set_spans(spans);
    disk_.set_spans(spans, track);
    io_.set_spans(spans, track + 64);
  }

  /// Attach cost attribution: the scheduler stamps submitters and splits
  /// merged dispatches back to them (see sim::IoScheduler::set_attribution).
  void set_attribution(obs::Attribution* attrib) {
    io_.set_attribution(attrib);
  }

  /// Publish this target's counters under `<prefix>.…`: disk, scheduler,
  /// allocator, free-space gauges and the per-file extent-count histogram.
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const;

  /// Merge every local subfile's extent count into a (cluster-level)
  /// histogram — the Table I "Seg Counts" distribution.
  void add_extent_counts(obs::Histo& h) const;

  // --- timeline gauges ------------------------------------------------------
  // Instantaneous views for the flight recorder (obs/timeline.hpp).  Each
  // takes the lock guarding the state it reads, so they are safe to call
  // from a sampling thread while data-path threads run.
  /// Requests currently queued in the elevator (pre-merge).
  std::size_t queue_depth() const;
  /// This target's simulated clock (ms since mount).
  double sim_now_ms() const;
  /// Fraction of simulated time the disk spent positioning/transferring.
  double busy_fraction() const;
  /// Current head position (absolute block).
  u64 head_block() const;
  /// Visit every local subfile's extent count (fragmentation-lens source;
  /// same locking as add_extent_counts).
  void for_each_extent_count(const std::function<void(u64)>& fn) const;

  void drain() {
    std::lock_guard lock(io_mu_);
    io_.drain();
  }
  double elapsed_ms() const { return disk_.now_ms(); }

  sim::Disk& disk() { return disk_; }
  const sim::Disk& disk() const { return disk_; }
  sim::IoScheduler& io() { return io_; }
  block::FreeSpace& space() { return *space_; }
  alloc::FileAllocator& allocator() { return *alloc_; }
  const alloc::FileAllocator& allocator() const { return *alloc_; }

 private:
  struct FileState {
    block::ExtentMap map;
    mutable std::mutex mu;
  };
  FileState& file(InodeNo inode);

  TargetConfig cfg_;
  obs::SpanCollector* spans_{nullptr};
  sim::Disk disk_;
  /// The scheduler (and the disk behind it) is single-threaded state; all
  /// submissions and drains serialise here.
  mutable std::mutex io_mu_;
  sim::IoScheduler io_;
  std::unique_ptr<block::FreeSpace> space_;
  std::unique_ptr<alloc::FileAllocator> alloc_;
  mutable std::mutex files_mu_;
  std::unordered_map<u64, std::unique_ptr<FileState>> files_;

  /// Returns true if this operation should fail (fault injection).
  bool fault_fires();
  mutable std::mutex fault_mu_;
  u64 fault_after_{0};
  u64 fault_count_{0};
  u64 failures_seen_{0};
};

}  // namespace mif::osd
