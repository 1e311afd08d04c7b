// Client-side file system.
//
// One ClientFs per cluster node; write streams are (client id, thread pid)
// pairs exactly as the paper's allocator identifies them (§III-A).  The
// client congregates common operation pairs (open-getlayout) to reduce MDS
// interaction (§V-A) and keeps a layout cache so repeated opens of the same
// file do not re-fetch extents.
//
// Every data access lowers through one path, issue_ranges: byte ranges →
// stripe slices → target-local run groups (one per slice in per-block mode,
// one merged group per target in list mode) → replica fan or route →
// envelopes chunked at list_io_max_runs, whose block/strided/list shape
// rpc::Client chooses.  The entry points differ only in span name, stats
// and whether they drain.
#pragma once

#include <map>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rpc/transport.hpp"
#include "util/result.hpp"
#include "util/runs.hpp"
#include "util/types.hpp"

namespace mif::core {
class ParallelFileSystem;
}
namespace mif::obs {
class MetricsRegistry;
}

namespace mif::client {

struct FileHandle {
  InodeNo ino{};
  std::string path;
  bool valid() const { return ino.valid(); }
};

struct ClientStats {
  u64 opens{0};
  u64 layout_cache_hits{0};
  u64 writes{0};
  u64 reads{0};
  u64 bytes_written{0};
  u64 bytes_read{0};
  u64 readahead_hits{0};      // reads fully served from prefetched data
  u64 readahead_blocks{0};    // blocks fetched ahead of the application
};

class ClientFs {
 public:
  ClientFs(core::ParallelFileSystem& fs, ClientId id);

  /// Create a file through the MDS and open it.
  Result<FileHandle> create(std::string_view path);

  /// Aggregated open-getlayout; hits the layout cache when this client
  /// already holds the layout.
  Result<FileHandle> open(std::string_view path);

  /// Rename `from` to `to` through the MDS.  Under a sharded mount a rename
  /// that crosses shard boundaries runs the two-phase protocol inside the
  /// transport; either way the returned handle is the entry at `to`.
  Result<FileHandle> rename(std::string_view from, std::string_view to);

  /// Write [offset, offset+len) bytes from the given thread.  Offsets and
  /// lengths are rounded outward to block granularity (the simulation
  /// tracks placement, not payload).  Internally issue-then-drain: every
  /// striped slice is issued as a ticket before any completion is claimed,
  /// so an async transport overlaps the slices across targets.
  Status write(const FileHandle& fh, u32 pid, u64 offset_bytes,
               u64 len_bytes);

  /// Issue the striped writes for [offset, offset+len) WITHOUT draining;
  /// outstanding tickets are appended to `out` for a later drain().  The
  /// collective writer uses this to keep a whole round's chunks in flight.
  /// Tickets that complete at issue (the sync chain) are claimed inline, so
  /// a failure there stops issuing exactly like the blocking loop did.
  Status write_async(const FileHandle& fh, u32 pid, u64 offset_bytes,
                     u64 len_bytes, std::vector<rpc::Ticket>& out);

  /// Strided write: `count` pieces of `piece_bytes`, starts `stride_bytes`
  /// apart.  With list I/O off this is exactly a caller loop of write();
  /// with list I/O on the whole pattern lowers into one list/datatype
  /// envelope per storage target (the MPI-IO datatype path).
  Status write_strided(const FileHandle& fh, u32 pid, u64 offset_bytes,
                       u64 piece_bytes, u64 stride_bytes, u64 count);

  /// Strided read, same lowering as write_strided (no readahead involved —
  /// the pattern is explicit).
  Status read_strided(const FileHandle& fh, u64 offset_bytes, u64 piece_bytes,
                      u64 stride_bytes, u64 count);

  /// List-I/O issue of a set of byte ranges: lowers the union into at most
  /// one envelope per storage target per list_io_max_runs runs, through the
  /// async path.  The collective aggregators' write arm.  Requires list I/O
  /// to be mounted (kInvalid otherwise).
  Status write_ranges_async(const FileHandle& fh, u32 pid,
                            std::span<const util::ByteRange> ranges,
                            std::vector<rpc::Ticket>& out);
  /// Read-side twin of write_ranges_async.
  Status read_ranges_async(const FileHandle& fh,
                           std::span<const util::ByteRange> ranges,
                           std::vector<rpc::Ticket>& out);

  /// Claim every ticket in `tickets` (clearing it); returns the first error
  /// in completion order — the sticky-error semantics of the sync path.
  Status drain(std::vector<rpc::Ticket>& tickets);

  /// Read [offset, offset+len) bytes.  Sequential streams are detected and
  /// prefetched Lustre-client-style: the window doubles while the stream
  /// stays sequential (up to max_readahead_blocks), so the storage targets
  /// see large per-region reads instead of the application's small front.
  Status read(const FileHandle& fh, u64 offset_bytes, u64 len_bytes);

  /// Close: releases allocator reservations on every target and reports the
  /// final layout to the MDS (which pays CPU per extent, Table I).
  Status close(const FileHandle& fh);

  ClientId id() const { return id_; }
  const ClientStats& stats() const { return stats_; }
  ClientStats snapshot() const { return stats_; }
  void reset_stats() { stats_ = {}; }
  /// Publish this client's counters under `<prefix>.…` into the registry.
  void export_metrics(obs::MetricsRegistry& reg,
                      std::string_view prefix) const;
  core::ParallelFileSystem& fs() { return *fs_; }

 private:
  /// Issue block reads [first, last) to the striped targets and drain them.
  Status read_blocks(const FileHandle& fh, u64 first, u64 last);

  /// list_io_max_runs from the mount config; 0 = per-block mode.
  u64 list_io_runs() const;

  /// The one data lowering: the byte `ranges` (rounded outward to blocks)
  /// → target-local run groups → replica fan or route → chunked envelopes.
  /// Per-block mode makes every stripe slice its own group, in slice
  /// order; list mode merges each target's adjacent runs into one group,
  /// in ascending target order.  Tickets that complete at issue are
  /// claimed inline; the first failure stops issuing.
  Status issue_ranges(const FileHandle& fh, bool write, StreamId stream,
                      std::span<const util::ByteRange> ranges,
                      std::vector<rpc::Ticket>& out);
  /// One group's destinations: without replication the target itself.
  /// With it, a write fans to the primary and every alive replica copy (a
  /// dead primary degrades the write; repair re-converges it later) and a
  /// read routes to the first alive copy (redundancy.degraded_reads).
  Status issue_group(const FileHandle& fh, bool write, StreamId stream,
                     u32 target, std::span<const BlockRun> runs,
                     std::vector<rpc::Ticket>& out);
  /// Ship one destination's runs through rpc::Client's run-shaped stubs,
  /// chunked at list_io_max_runs (one run per envelope in per-block mode),
  /// each chunk under an osd.stripe_unit span.  `ino` is the primary or a
  /// redundancy::replica_ino-tagged subfile.
  Status issue_chunks(bool write, InodeNo ino, StreamId stream, u32 target,
                      std::span<const BlockRun> runs,
                      std::vector<rpc::Ticket>& out);

  /// Count `n` writes toward the periodic layout report and ship the
  /// file's extent count to the MDS every 64.
  void note_writes(const FileHandle& fh, u64 n);

  /// True when the mount replicates (cfg.redundancy.replicas >= 2).
  bool replicas_on() const;
  /// Health-aware read routing: a dead primary resolves to the first alive
  /// copy's (target, tagged ino); kIo when every copy is gone.
  Result<std::pair<u32, InodeNo>> route_read(u32 target, InodeNo ino);

  /// Sum the file's extent counts across all targets via get_extents
  /// envelopes (what a layout report ships to the MDS).
  u64 remote_extents(InodeNo ino);

  /// Fetch [first, last), skipping blocks already sitting in the client's
  /// readahead buffer.  Each missing gap is one read_blocks call, issued in
  /// ascending order; the first failed gap ends the walk.  `consume` = the
  /// application is reading these blocks now (buffered ones are handed over
  /// and dropped); otherwise this is a prefetch and each gap is buffered
  /// once its read succeeds.
  Status fetch_range(const FileHandle& fh, u64 first, u64 last, bool consume);

  /// Readahead buffer: disjoint block runs per file, keyed by (ino, start)
  /// and mapped to the exclusive end.  Holds at most kMaxBufferedBlocks
  /// blocks in total.
  using BufferedRuns = std::map<std::pair<u64, u64>, u64>;
  static constexpr u64 kMaxBufferedBlocks = u64{1} << 20;

  /// Buffer [start, end) of `ino`, a gap no run overlaps, clipped to the
  /// room left under the cap.  `next` is the first run after the gap; a run
  /// of the same file ending at `start` is extended in place.
  void buffer_run(BufferedRuns::iterator next, u64 ino, u64 start, u64 end);
  /// Drop [start, end) from run `it`, which covers it, keeping the parts of
  /// the run outside; returns the run after the dropped span.
  BufferedRuns::iterator drop_run(BufferedRuns::iterator it, u64 start,
                                  u64 end);

  struct ReadCursor {
    u64 prefetched_until{0};  // exclusive block bound already fetched
    u64 window{0};            // current readahead window (blocks)
  };

  static u64 block_key(InodeNo ino, u64 block) {
    return ino.v * 0x9e3779b97f4a7c15ULL + block * 0xff51afd7ed558ccdULL;
  }

  core::ParallelFileSystem* fs_;
  ClientId id_;
  std::unordered_map<std::string, u64> layout_cache_;  // path -> extent count
  /// Sequential-read detectors: key = (ino, next expected block).
  std::unordered_map<u64, ReadCursor> cursors_;
  /// Blocks prefetched but not yet consumed by the application.
  BufferedRuns buffered_;
  u64 buffered_blocks_{0};  // blocks held in buffered_, <= kMaxBufferedBlocks
  /// Writes since the last periodic layout report, per file.
  std::unordered_map<u64, u32> writes_since_report_;
  ClientStats stats_;
};

}  // namespace mif::client
