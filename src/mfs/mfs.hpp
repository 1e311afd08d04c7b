// Metadata file system (MFS): the storage stack behind one metadata server.
//
// Owns a simulated disk, its merging scheduler, a buffer cache, a
// write-ahead journal and one of the two directory-layout engines, and
// exposes a path-based namespace API.  "Metadata server collectively manages
// the storage of metadata, assisted by a dedicated metadata file system"
// (§V-A) — this is that MFS; the MDS wraps it with RPC and CPU accounting.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "block/buffer_cache.hpp"
#include "block/free_space.hpp"
#include "block/journal.hpp"
#include "mfs/embedded_dir.hpp"
#include "mfs/layout.hpp"
#include "mfs/normal_dir.hpp"
#include "obs/span.hpp"
#include "sim/disk.hpp"
#include "sim/io_scheduler.hpp"

namespace mif::obs {
class MetricsRegistry;
}

namespace mif::mfs {

struct MfsConfig {
  DirectoryMode mode{DirectoryMode::kNormal};
  LookupDiscipline discipline{LookupDiscipline::kLinearScan};
  sim::DiskGeometry geometry{};
  u64 cache_blocks{8192};        // 32 MiB of metadata cache
  u64 journal_area_blocks{8192}; // 32 MiB journal
  /// jbd checkpoints are lazy — they run when journal space gets tight, not
  /// per handful of operations.  (A wrap of the journal area forces one
  /// regardless of this setting.)
  u64 checkpoint_interval{512};
  u64 journal_commit_batch{16};  // jbd-style compound-transaction batching
  u32 alloc_groups{8};
  sim::ReadaheadConfig readahead{};
  NormalLayoutConfig normal{};
  EmbeddedLayoutConfig embedded{};
  /// Synchronous metadata: drain the disk queue after every operation (the
  /// Fig. 8 MDS configuration).  Off = writes batch until finish().
  bool sync_ops{true};
};

class Mfs {
 public:
  explicit Mfs(MfsConfig cfg = {});

  // --- path API (charges lookup traffic along the walk) ------------------
  Result<InodeNo> mkdir(std::string_view path);
  Result<InodeNo> create(std::string_view path);
  Result<InodeNo> resolve(std::string_view path);
  Status stat(std::string_view path);
  Status utime(std::string_view path);
  Result<std::vector<DirEntry>> readdir(std::string_view path,
                                        bool plus = false);
  Status unlink(std::string_view path);
  Result<InodeNo> rename(std::string_view from, std::string_view to);

  // --- handle API (no lookup charge; used by the MDS fast paths) ---------
  DirLayout& layout() { return *layout_; }
  Inode* find(InodeNo ino) { return layout_->find(ino); }

  /// Persist a file's grown extent mapping.
  Status sync_file_layout(InodeNo file, u64 extent_count);
  Status getlayout(InodeNo file);

  /// Checkpoint the journal and flush everything to disk.
  void finish();

  // --- observability ------------------------------------------------------
  sim::Disk& disk() { return disk_; }
  sim::IoScheduler& io() { return io_; }
  block::BufferCache& cache() { return *cache_; }
  block::Journal& journal() { return *journal_; }
  block::FreeSpace& space() { return *space_; }
  const MfsConfig& config() const { return cfg_; }

  /// Requests dispatched to the disk so far (the paper's Fig. 8 metric,
  /// "intercepting the disk access in the general block layer").
  u64 disk_accesses() const { return io_.stats().dispatched; }
  double elapsed_ms() const { return disk_.now_ms(); }
  void reset_io_stats();

  /// Metadata disk's span track *lane* (data disks take lanes 0..N-1 in
  /// their own namespace; compare with obs::track_lane).
  static constexpr u32 kMdsDiskTrack = 255;

  /// Attach a span collector to the metadata stack: journal commits /
  /// checkpoints, buffer-cache `cache.evict` instants and the metadata
  /// disk's mechanical phases (nullptr detaches).  Claims its own track
  /// namespace per attachment.
  void set_spans(obs::SpanCollector* spans) {
    journal_->set_spans(spans);
    cache_->set_spans(spans);
    const u32 inst = spans ? spans->reserve_track_namespace() : 0;
    disk_.set_spans(spans, obs::make_track(inst, kMdsDiskTrack));
  }

  /// Publish cache/journal/disk/scheduler counters under `<prefix>.…`.
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const;

 private:
  struct Walk {
    InodeNo parent{};
    std::string leaf;
  };
  Result<Walk> walk_to_parent(std::string_view path);
  void sync_point();

  MfsConfig cfg_;
  sim::Disk disk_;
  sim::IoScheduler io_;
  std::unique_ptr<block::FreeSpace> space_;
  std::unique_ptr<block::BufferCache> cache_;
  std::unique_ptr<block::Journal> journal_;
  std::unique_ptr<DirLayout> layout_;
};

/// Split "a/b/c" into components; leading/duplicate slashes are tolerated.
std::vector<std::string_view> split_path(std::string_view path);

}  // namespace mif::mfs
