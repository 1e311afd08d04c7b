#include "osd/storage_target.hpp"

#include <algorithm>

#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::osd {

StorageTarget::StorageTarget(TargetConfig cfg)
    : cfg_(cfg),
      disk_(cfg.geometry),
      io_(disk_, cfg.scheduler_queue, cfg.writeback_queue) {
  space_ = std::make_unique<block::FreeSpace>(
      DiskBlock{0}, cfg_.geometry.capacity_blocks, cfg_.alloc_groups);
  alloc_ = alloc::make_allocator(cfg_.allocator, *space_, cfg_.tuning);
}

StorageTarget::FileState& StorageTarget::file(InodeNo inode) {
  std::lock_guard lock(files_mu_);
  auto& slot = files_[inode.v];
  if (!slot) slot = std::make_unique<FileState>();
  return *slot;
}

void StorageTarget::inject_fault(u64 after_ops, u64 count) {
  std::lock_guard lock(fault_mu_);
  fault_after_ = after_ops;
  fault_count_ = count;
}

bool StorageTarget::fault_fires() {
  std::lock_guard lock(fault_mu_);
  if (fault_count_ == 0) return false;
  if (fault_after_ > 0) {
    --fault_after_;
    return false;
  }
  --fault_count_;
  ++failures_seen_;
  return true;
}

StorageTarget::VerifyReport StorageTarget::verify() const {
  VerifyReport report;
  std::vector<std::pair<u64, u64>> phys;
  {
    std::lock_guard lock(files_mu_);
    report.files = files_.size();
    for (const auto& [ino, state] : files_) {
      std::lock_guard flock(state->mu);
      for (const block::Extent& e : state->map.extents()) {
        phys.emplace_back(e.disk_off.v, e.length);
        ++report.extents;
        report.mapped_blocks += e.length;
      }
    }
  }
  std::sort(phys.begin(), phys.end());
  for (std::size_t i = 1; i < phys.size(); ++i) {
    if (phys[i].first < phys[i - 1].first + phys[i - 1].second) {
      report.overlap_free = false;
      break;
    }
  }
  report.reserved_blocks = alloc_->stats().reserved_blocks;
  report.used_blocks =
      cfg_.geometry.capacity_blocks - space_->free_blocks();
  report.space_accounted =
      report.used_blocks == report.mapped_blocks + report.reserved_blocks;
  return report;
}

void StorageTarget::export_metrics(obs::MetricsRegistry& reg,
                                   std::string_view prefix) const {
  obs::publish(reg, obs::join_key(prefix, "disk"), disk_.stats());
  reg.stat(obs::join_key(prefix, "disk.position_ms"))
      .merge_from(disk_.position_times_ms());
  obs::publish(reg, obs::join_key(prefix, "io"), io_.stats());
  obs::publish(reg, obs::join_key(prefix, "alloc"), alloc_->stats());
  reg.gauge(obs::join_key(prefix, "space.free_blocks"))
      .set(static_cast<double>(space_->free_blocks()));
  reg.gauge(obs::join_key(prefix, "space.total_blocks"))
      .set(static_cast<double>(space_->total_blocks()));
  reg.gauge(obs::join_key(prefix, "space.utilisation"))
      .set(space_->utilisation());
  add_extent_counts(reg.histogram(obs::join_key(prefix, "extents_per_file")));
}

void StorageTarget::add_extent_counts(obs::Histo& h) const {
  std::lock_guard lock(files_mu_);
  for (const auto& [ino, state] : files_) {
    std::lock_guard flock(state->mu);
    h.add(state->map.extent_count());
  }
}

std::size_t StorageTarget::queue_depth() const {
  std::lock_guard lock(io_mu_);
  return io_.queue_depth();
}

double StorageTarget::sim_now_ms() const {
  std::lock_guard lock(io_mu_);
  return disk_.now_ms();
}

double StorageTarget::busy_fraction() const {
  std::lock_guard lock(io_mu_);
  const double now = disk_.now_ms();
  return now > 0.0 ? disk_.stats().busy_ms() / now : 0.0;
}

u64 StorageTarget::head_block() const {
  std::lock_guard lock(io_mu_);
  return disk_.head().v;
}

void StorageTarget::for_each_extent_count(
    const std::function<void(u64)>& fn) const {
  std::lock_guard lock(files_mu_);
  for (const auto& [ino, state] : files_) {
    std::lock_guard flock(state->mu);
    fn(state->map.extent_count());
  }
}

Status StorageTarget::write(InodeNo inode, StreamId stream, FileBlock logical,
                            u64 count) {
  const BlockRun run{logical, count};
  return write_runs(inode, stream, std::span<const BlockRun>(&run, 1));
}

Status StorageTarget::write_runs(InodeNo inode, StreamId stream,
                                 std::span<const BlockRun> runs) {
  if (fault_fires()) return Errc::kIo;
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  for (const BlockRun& run : runs) {
    alloc::AllocContext ctx{inode, stream, run.start, run.count};
    {
      obs::ScopedSpan span(spans_, "alloc.decide", inode.v, run.count);
      if (Status s = alloc_->extend(ctx, f.map); !s) return s;
    }
    // Submit the data writes along the physical runs the placement produced
    // — this is where fragmentation turns into positioning time.
    std::lock_guard io_lock(io_mu_);
    for (const block::BlockRange& r : f.map.map_range(run.start, run.count)) {
      io_.submit({sim::IoKind::kWrite, r.start, r.length});
    }
  }
  return {};
}

Status StorageTarget::read(InodeNo inode, FileBlock logical, u64 count) {
  const BlockRun run{logical, count};
  return read_runs(inode, std::span<const BlockRun>(&run, 1));
}

Status StorageTarget::read_runs(InodeNo inode,
                                std::span<const BlockRun> runs) {
  if (fault_fires()) return Errc::kIo;
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  std::lock_guard io_lock(io_mu_);
  for (const BlockRun& run : runs) {
    for (const block::BlockRange& r : f.map.map_range(run.start, run.count)) {
      io_.submit({sim::IoKind::kRead, r.start, r.length});
    }
  }
  return {};
}

Status StorageTarget::preallocate(InodeNo inode, u64 total_blocks) {
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  return alloc_->preallocate(inode, f.map, total_blocks);
}

void StorageTarget::close_file(InodeNo inode) {
  FileState& f = file(inode);
  std::lock_guard lock(f.mu);
  alloc_->close_file(inode, f.map);
}

void StorageTarget::delete_file(InodeNo inode) {
  std::unique_ptr<FileState> victim;
  {
    std::lock_guard lock(files_mu_);
    auto it = files_.find(inode.v);
    if (it == files_.end()) return;
    victim = std::move(it->second);
    files_.erase(it);
  }
  std::lock_guard lock(victim->mu);
  alloc_->delete_file(inode, victim->map);
}

u64 StorageTarget::extent_count(InodeNo inode) const {
  std::lock_guard lock(files_mu_);
  auto it = files_.find(inode.v);
  if (it == files_.end()) return 0;
  std::lock_guard flock(it->second->mu);
  return it->second->map.extent_count();
}

std::vector<block::Extent> StorageTarget::extents(InodeNo inode) const {
  std::lock_guard lock(files_mu_);
  auto it = files_.find(inode.v);
  if (it == files_.end()) return {};
  std::lock_guard flock(it->second->mu);
  return it->second->map.extents();
}

void StorageTarget::for_each_file(
    const std::function<void(InodeNo)>& fn) const {
  std::vector<u64> inos;
  {
    std::lock_guard lock(files_mu_);
    inos.reserve(files_.size());
    for (const auto& [ino, state] : files_) inos.push_back(ino);
  }
  std::sort(inos.begin(), inos.end());
  for (u64 ino : inos) fn(InodeNo{ino});
}

void StorageTarget::reset_contents() {
  {
    std::lock_guard lock(io_mu_);
    io_.drain();
  }
  std::lock_guard lock(files_mu_);
  for (auto& [ino, state] : files_) {
    std::lock_guard flock(state->mu);
    state->map = block::ExtentMap{};
  }
  // The allocator must die before the free space it references: its
  // destructor releases outstanding reservations back into that space.
  alloc_.reset();
  space_ = std::make_unique<block::FreeSpace>(
      DiskBlock{0}, cfg_.geometry.capacity_blocks, cfg_.alloc_groups);
  alloc_ = alloc::make_allocator(cfg_.allocator, *space_, cfg_.tuning);
  alloc_->set_spans(spans_);
}

}  // namespace mif::osd
