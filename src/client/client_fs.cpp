#include "client/client_fs.hpp"

#include "core/pfs.hpp"
#include "obs/attrib.hpp"
#include "obs/export.hpp"
#include "obs/span.hpp"

namespace mif::client {

ClientFs::ClientFs(core::ParallelFileSystem& fs, ClientId id)
    : fs_(&fs), id_(id) {}

void ClientFs::export_metrics(obs::MetricsRegistry& reg,
                              std::string_view prefix) const {
  obs::publish(reg, prefix, stats_);
}

Result<FileHandle> ClientFs::create(std::string_view path) {
  obs::ScopedSpan span(fs_->spans(), "client.create", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  auto ino = fs_->rpc().create(path);
  if (!ino) return ino.error();
  ++stats_.opens;
  return FileHandle{*ino, std::string(path)};
}

Result<FileHandle> ClientFs::open(std::string_view path) {
  obs::ScopedSpan span(fs_->spans(), "client.open", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  ++stats_.opens;
  const std::string key(path);
  if (layout_cache_.contains(key)) {
    // Layout already cached from an earlier open; the resolve envelope is a
    // free revalidation of the cached handle (traits(kResolve).free).
    ++stats_.layout_cache_hits;
    auto ino = fs_->rpc().resolve(path);
    if (!ino) return ino.error();
    return FileHandle{*ino, key};
  }
  auto r = fs_->rpc().open_getlayout(path);
  if (!r) return r.error();
  layout_cache_[key] = r->extent_count;
  return FileHandle{r->ino, key};
}

Result<FileHandle> ClientFs::rename(std::string_view from,
                                    std::string_view to) {
  obs::ScopedSpan span(fs_->spans(), "client.rename", id_.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  auto ino = fs_->rpc().rename(from, to);
  if (!ino) return ino.error();
  // A cross-shard rename mints a new inode; drop the stale cached layout so
  // the next open re-fetches under the new name.
  layout_cache_.erase(std::string(from));
  return FileHandle{*ino, std::string(to)};
}

Status ClientFs::write(const FileHandle& fh, u32 pid, u64 offset_bytes,
                       u64 len_bytes) {
  std::vector<rpc::Ticket> tickets;
  Status issued = write_async(fh, pid, offset_bytes, len_bytes, tickets);
  Status drained = drain(tickets);
  return issued.ok() ? drained : issued;
}

u64 ClientFs::list_io_runs() const { return fs_->config().list_io_max_runs; }

Status ClientFs::issue_ranges(const FileHandle& fh, bool write,
                              StreamId stream,
                              std::span<const util::ByteRange> ranges,
                              std::vector<rpc::Ticket>& out) {
  // Per-block mode issues each stripe slice as its own group, in slice
  // order.  List mode merges every target's slices into one run set, so a
  // region spanning several stripe rounds (or a whole set of ranges) costs
  // one envelope per target instead of one per slice.
  const bool list_mode = list_io_runs() > 0;
  std::map<u32, std::vector<BlockRun>> per_target;
  for (const util::ByteRange& r : ranges) {
    if (r.len == 0) continue;
    const u64 first = r.offset / kBlockSize;
    const u64 last = (r.end() + kBlockSize - 1) / kBlockSize;
    for (const osd::StripeSlice& s :
         osd::slices_for(fs_->stripe(), FileBlock{first}, last - first)) {
      const BlockRun run{s.local_start, s.count};
      if (list_mode) {
        util::append_run(per_target[s.target], run);
      } else if (Status st =
                     issue_group(fh, write, stream, s.target, {&run, 1}, out);
                 !st) {
        return st;
      }
    }
  }
  for (const auto& [target, runs] : per_target) {
    if (Status st = issue_group(fh, write, stream, target, runs, out); !st)
      return st;
  }
  return {};
}

Status ClientFs::issue_group(const FileHandle& fh, bool write, StreamId stream,
                             u32 target, std::span<const BlockRun> runs,
                             std::vector<rpc::Ticket>& out) {
  if (!replicas_on())
    return issue_chunks(write, fh.ino, stream, target, runs, out);
  if (!write) {
    auto routed = route_read(target, fh.ino);
    if (!routed) return routed.error();
    return issue_chunks(false, routed->second, stream, routed->first, runs,
                        out);
  }
  // Replica fan: the same local runs go to the primary and to every copy's
  // rotated target, under the tagged subfile ino (the copies keep the
  // primary's local addresses — the invariant degraded reads rely on).
  const redundancy::Policy& pol = fs_->redundancy_policy();
  redundancy::HealthMap& health = fs_->health();
  redundancy::Stats& red = fs_->redundancy_stats();
  u32 issued = 0;
  Status first{};
  for (u32 c = 0; c <= pol.copies(); ++c) {
    const u32 t =
        c == 0 ? target : redundancy::copy_target(fs_->stripe(), target, c);
    if (!health.alive(t)) {
      // Skip the dead copy: surviving replicas carry the data and the
      // repair service re-converges the replacement later.
      if (c == 0) red.degraded_writes.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const InodeNo ino =
        c == 0 ? fh.ino : redundancy::replica_ino(fh.ino, c);
    if (c > 0) red.replica_writes.fetch_add(1, std::memory_order_relaxed);
    if (Status st = issue_chunks(true, ino, stream, t, runs, out);
        !st && first.ok()) {
      first = st;
    }
    ++issued;
  }
  if (issued == 0) {
    red.lost_routes.fetch_add(1, std::memory_order_relaxed);
    return Errc::kIo;
  }
  return first;
}

Status ClientFs::issue_chunks(bool write, InodeNo ino, StreamId stream,
                              u32 target, std::span<const BlockRun> runs,
                              std::vector<rpc::Ticket>& out) {
  rpc::Client& rpc = fs_->rpc();
  const u64 max_runs = std::max<u64>(list_io_runs(), 1);
  for (std::size_t at = 0; at < runs.size(); at += max_runs) {
    const std::span<const BlockRun> chunk =
        runs.subspan(at, std::min<std::size_t>(max_runs, runs.size() - at));
    u64 blocks = 0;
    for (const BlockRun& r : chunk) blocks += r.count;
    obs::ScopedSpan unit(fs_->spans(), "osd.stripe_unit", target, blocks);
    const rpc::Ticket t = write
                              ? rpc.write_runs_async(target, ino, stream, chunk)
                              : rpc.read_runs_async(target, ino, chunk);
    if (auto r = rpc.completions().try_take(t)) {
      // Completed at issue (the sync chain): a failure stops issuing before
      // the next chunk, exactly like a blocking loop.
      if (!*r) return r->error();
    } else {
      out.push_back(t);
    }
  }
  return {};
}

bool ClientFs::replicas_on() const {
  return fs_->redundancy_policy().enabled();
}

Result<std::pair<u32, InodeNo>> ClientFs::route_read(u32 target, InodeNo ino) {
  redundancy::HealthMap& health = fs_->health();
  if (health.alive(target)) return std::pair{target, ino};
  // Degraded read: the copies hold the same local block addresses under the
  // tagged subfile ino, so re-routing is a pure (target, ino) swap.
  const redundancy::Policy& pol = fs_->redundancy_policy();
  redundancy::Stats& red = fs_->redundancy_stats();
  for (u32 c = 1; c <= pol.copies(); ++c) {
    const u32 t = redundancy::copy_target(fs_->stripe(), target, c);
    if (health.alive(t)) {
      red.degraded_reads.fetch_add(1, std::memory_order_relaxed);
      return std::pair{t, redundancy::replica_ino(ino, c)};
    }
  }
  red.lost_routes.fetch_add(1, std::memory_order_relaxed);
  return Errc::kIo;
}

Status ClientFs::write_async(const FileHandle& fh, u32 pid, u64 offset_bytes,
                             u64 len_bytes, std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || len_bytes == 0) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.write", fh.ino.v, len_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  const util::ByteRange range{offset_bytes, len_bytes};
  if (Status st = issue_ranges(fh, /*write=*/true, StreamId{id_.v, pid},
                               {&range, 1}, out);
      !st)
    return st;
  ++stats_.writes;
  stats_.bytes_written += len_bytes;
  note_writes(fh, 1);
  return {};
}

void ClientFs::note_writes(const FileHandle& fh, u64 n) {
  // Periodic layout shipping: every so many writes the client pushes the
  // file's grown extent list to the MDS, which pays CPU to merge and index
  // it — the continual cost Table I correlates with fragmentation.
  u32& since = writes_since_report_[fh.ino.v];
  since += static_cast<u32>(n);
  if (since >= 64) {
    since = 0;
    (void)fs_->rpc().report_extents(fh.ino, remote_extents(fh.ino));
  }
}

Status ClientFs::drain(std::vector<rpc::Ticket>& tickets) {
  // Give time-based transport layers (QoS token refill) a chance to release
  // backlogged work before we block on the tickets it may be holding.
  fs_->rpc().pump();
  Status first{};
  for (const rpc::Ticket& t : tickets) {
    if (Status st = fs_->rpc().wait(t); !st && first.ok()) first = st;
  }
  tickets.clear();
  return first;
}

u64 ClientFs::remote_extents(InodeNo ino) {
  // Ask every target for its local subfile's extent count — what a client
  // really does before shipping a layout (it cannot read server memory).
  u64 n = 0;
  for (u32 t = 0; t < fs_->num_targets(); ++t) {
    n += fs_->rpc().target_extents(t, ino).value_or(0);
  }
  return n;
}

Status ClientFs::read_blocks(const FileHandle& fh, u64 first, u64 last) {
  // Issue every slice before claiming any completion, so reads (including
  // readahead top-ups) overlap across the striped targets too.
  std::vector<rpc::Ticket> pending;
  const util::ByteRange range{first * kBlockSize, (last - first) * kBlockSize};
  Status issued =
      issue_ranges(fh, /*write=*/false, StreamId{}, {&range, 1}, pending);
  Status drained = drain(pending);
  return issued.ok() ? drained : issued;
}

namespace {

/// The byte ranges of a strided pattern: `count` pieces of `piece_bytes`,
/// starts `stride_bytes` apart.
std::vector<util::ByteRange> strided_ranges(u64 offset_bytes, u64 piece_bytes,
                                            u64 stride_bytes, u64 count) {
  std::vector<util::ByteRange> ranges(count);
  for (u64 i = 0; i < count; ++i) {
    ranges[i] = {offset_bytes + i * stride_bytes, piece_bytes};
  }
  return ranges;
}

u64 total_bytes(std::span<const util::ByteRange> ranges) {
  u64 total = 0;
  for (const util::ByteRange& r : ranges) total += r.len;
  return total;
}

}  // namespace

Status ClientFs::write_strided(const FileHandle& fh, u32 pid, u64 offset_bytes,
                               u64 piece_bytes, u64 stride_bytes, u64 count) {
  if (!fh.valid() || piece_bytes == 0 || count == 0) return Errc::kInvalid;
  if (list_io_runs() == 0) {
    // Per-block mode: exactly the caller loop this API replaces.
    for (u64 i = 0; i < count; ++i) {
      if (Status st =
              write(fh, pid, offset_bytes + i * stride_bytes, piece_bytes);
          !st)
        return st;
    }
    return {};
  }
  obs::ScopedSpan span(fs_->spans(), "client.write_strided", fh.ino.v,
                       count * piece_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  std::vector<rpc::Ticket> tickets;
  Status issued = issue_ranges(
      fh, /*write=*/true, StreamId{id_.v, pid},
      strided_ranges(offset_bytes, piece_bytes, stride_bytes, count), tickets);
  Status drained = drain(tickets);
  stats_.writes += count;
  stats_.bytes_written += count * piece_bytes;
  note_writes(fh, count);
  return issued.ok() ? drained : issued;
}

Status ClientFs::read_strided(const FileHandle& fh, u64 offset_bytes,
                              u64 piece_bytes, u64 stride_bytes, u64 count) {
  if (!fh.valid() || piece_bytes == 0 || count == 0) return Errc::kInvalid;
  if (list_io_runs() == 0) {
    for (u64 i = 0; i < count; ++i) {
      if (Status st = read(fh, offset_bytes + i * stride_bytes, piece_bytes);
          !st)
        return st;
    }
    return {};
  }
  obs::ScopedSpan span(fs_->spans(), "client.read_strided", fh.ino.v,
                       count * piece_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  std::vector<rpc::Ticket> tickets;
  Status issued = issue_ranges(
      fh, /*write=*/false, StreamId{},
      strided_ranges(offset_bytes, piece_bytes, stride_bytes, count), tickets);
  Status drained = drain(tickets);
  stats_.reads += count;
  stats_.bytes_read += count * piece_bytes;
  return issued.ok() ? drained : issued;
}

Status ClientFs::write_ranges_async(const FileHandle& fh, u32 pid,
                                    std::span<const util::ByteRange> ranges,
                                    std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || list_io_runs() == 0) return Errc::kInvalid;
  const u64 total = total_bytes(ranges);
  if (total == 0) return {};
  obs::ScopedSpan span(fs_->spans(), "client.write", fh.ino.v, total);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  if (Status st =
          issue_ranges(fh, /*write=*/true, StreamId{id_.v, pid}, ranges, out);
      !st)
    return st;
  ++stats_.writes;
  stats_.bytes_written += total;
  return {};
}

Status ClientFs::read_ranges_async(const FileHandle& fh,
                                   std::span<const util::ByteRange> ranges,
                                   std::vector<rpc::Ticket>& out) {
  if (!fh.valid() || list_io_runs() == 0) return Errc::kInvalid;
  const u64 total = total_bytes(ranges);
  if (total == 0) return {};
  obs::ScopedSpan span(fs_->spans(), "client.read", fh.ino.v, total);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  if (Status st = issue_ranges(fh, /*write=*/false, StreamId{}, ranges, out);
      !st)
    return st;
  ++stats_.reads;
  stats_.bytes_read += total;
  return {};
}

void ClientFs::buffer_run(BufferedRuns::iterator next, u64 ino, u64 start,
                          u64 end) {
  end = std::min(end, start + (kMaxBufferedBlocks - buffered_blocks_));
  if (start >= end) return;
  buffered_blocks_ += end - start;
  if (next != buffered_.begin()) {
    auto prev = std::prev(next);
    if (prev->first.first == ino && prev->second == start) {
      prev->second = end;  // extend the run that ends where this one starts
      return;
    }
  }
  buffered_.emplace_hint(next, std::pair{ino, start}, end);
}

ClientFs::BufferedRuns::iterator ClientFs::drop_run(BufferedRuns::iterator it,
                                                    u64 start, u64 end) {
  const auto [ino, run_start] = it->first;
  const u64 run_end = it->second;
  buffered_blocks_ -= end - start;
  if (run_start < start) {
    it->second = start;
    ++it;
  } else {
    it = buffered_.erase(it);
  }
  if (end < run_end)
    it = buffered_.emplace_hint(it, std::pair{ino, end}, run_end);
  return it;
}

Status ClientFs::fetch_range(const FileHandle& fh, u64 first, u64 last,
                             bool consume) {
  const u64 ino = fh.ino.v;
  // First run that could overlap [first, last): the one starting at or
  // before `first` when it reaches past it, else the next one.
  auto it = buffered_.upper_bound({ino, first});
  if (it != buffered_.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first == ino && prev->second > first) it = prev;
  }
  u64 pos = first;
  while (pos < last) {
    const bool run_here = it != buffered_.end() && it->first.first == ino &&
                          it->first.second < last;
    const u64 gap_end = run_here ? std::max(it->first.second, pos) : last;
    if (pos < gap_end) {
      if (Status st = read_blocks(fh, pos, gap_end); !st) return st;
      if (!consume) buffer_run(it, ino, pos, gap_end);
      pos = gap_end;
    }
    if (!run_here) break;
    const u64 end = std::min(it->second, last);
    it = consume ? drop_run(it, pos, end) : std::next(it);
    pos = end;
  }
  return {};
}

Status ClientFs::read(const FileHandle& fh, u64 offset_bytes, u64 len_bytes) {
  if (!fh.valid() || len_bytes == 0) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.read", fh.ino.v, len_bytes);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kData});
  const u64 first = offset_bytes / kBlockSize;
  const u64 last = (offset_bytes + len_bytes + kBlockSize - 1) / kBlockSize;
  ++stats_.reads;
  stats_.bytes_read += len_bytes;

  const u64 max_window = fs_->config().client_readahead_max_blocks;
  auto it = cursors_.find(block_key(fh.ino, first));
  const bool sequential = it != cursors_.end() && max_window > 0;

  // Hand the requested range to the application (buffered blocks served
  // from the readahead buffer, the rest from the targets).
  if (Status st = fetch_range(fh, first, last, /*consume=*/true); !st)
    return st;

  ReadCursor cur{last, last - first};
  if (sequential) {
    // Sequential continuation: double the window and prefetch ahead, as a
    // Lustre client would for a striped file region.
    cur = it->second;
    cursors_.erase(it);
    cur.window = std::min(std::max(cur.window * 2, last - first), max_window);
    if (last <= cur.prefetched_until) ++stats_.readahead_hits;
    // Hysteresis: top up only when the stream has consumed half the window,
    // so prefetch goes out in window-sized batches rather than per read.
    if (last + cur.window / 2 > cur.prefetched_until) {
      const u64 want_until = last + cur.window;
      const u64 from = std::max(last, cur.prefetched_until);
      if (Status st = fetch_range(fh, from, want_until, /*consume=*/false);
          !st)
        return st;
      stats_.readahead_blocks += want_until - from;
      cur.prefetched_until = want_until;
    }
  } else if (max_window == 0) {
    return {};
  }
  if (cursors_.size() < 4096)
    cursors_[block_key(fh.ino, last)] = cur;
  return {};
}

Status ClientFs::close(const FileHandle& fh) {
  if (!fh.valid()) return Errc::kInvalid;
  obs::ScopedSpan span(fs_->spans(), "client.close", fh.ino.v);
  obs::ScopedPrincipal who({id_.v, obs::OpClass::kMeta});
  fs_->close_file(fh.ino);
  // Ship the final layout to the MDS; it persists the mapping and pays CPU
  // per extent — fragmented files are expensive here (Table I).
  const u64 extents = remote_extents(fh.ino);
  layout_cache_[fh.path] = extents;
  return fs_->rpc().report_extents(fh.ino, extents);
}

}  // namespace mif::client
