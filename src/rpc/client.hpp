// rpc::Client — the typed stub callers use instead of server method calls.
//
// Each method builds a request envelope, sends it through the transport,
// and unwraps the expected response alternative.  Metadata ops are one
// method per operation.  The client data path has exactly two entries,
// write_runs_async and read_runs_async: ClientFs hands them a chunk of
// target-local runs and the stub picks the envelope shape (block, strided
// or list) — the only place that rule lives.  The remaining data methods
// are the whole-file ops core::ParallelFileSystem fans out and the sync
// list I/O the repair service copies with.  ClientFs, workloads and benches
// all speak to servers exclusively through this class; nothing above the
// transport ever touches a server object's RPC surface directly.
#pragma once

#include <span>
#include <string_view>
#include <vector>

#include "rpc/envelope.hpp"
#include "rpc/transport.hpp"

namespace mif::rpc {

class Client {
 public:
  /// Stub bound to one transport; metadata ops go to MDS `mds_index`.
  explicit Client(Transport& transport, u32 mds_index = 0)
      : transport_(&transport), mds_(mds_at(mds_index)) {}

  // --- metadata ops (client ↔ MDS) -----------------------------------------
  Result<InodeNo> mkdir(std::string_view path);
  Result<InodeNo> create(std::string_view path);
  Status stat(std::string_view path);
  Status utime(std::string_view path);
  Status unlink(std::string_view path);
  Result<InodeNo> rename(std::string_view from, std::string_view to);
  /// Revalidate a cached handle (free — no wire message, see OpTraits).
  Result<InodeNo> resolve(std::string_view path);
  Result<OpenGetLayoutResponse> open_getlayout(std::string_view path);
  Result<std::vector<mfs::DirEntry>> readdir(std::string_view path);
  Result<std::vector<mfs::DirEntry>> readdir_stats(std::string_view path);
  Status report_extents(InodeNo ino, u64 extent_count);

  // --- data ops (client ↔ storage target) ----------------------------------
  /// List I/O: one envelope moves every run in one server pass (the repair
  /// service's rebuild copies).
  Status write_list(u32 target, InodeNo ino, StreamId stream,
                    std::vector<BlockRun> runs);
  Status read_list(u32 target, InodeNo ino, std::vector<BlockRun> runs);
  Result<u64> target_extents(u32 target, InodeNo ino);
  Status delete_file(u32 target, InodeNo ino);

  // --- async data ops: issue a ticket, drain via completions() -------------
  // The striped data path issues many of these before claiming any result,
  // so an async transport keeps a window in flight across the targets.
  /// Ship a non-empty chunk of target-local `runs` in ONE envelope whose
  /// shape follows the runs: a single run is a kBlockWrite, a regular
  /// pattern (util::as_strided) a constant-size kWriteStrided, anything
  /// else a kWriteList.  Chunking to an envelope size is the caller's job.
  Ticket write_runs_async(u32 target, InodeNo ino, StreamId stream,
                          std::span<const BlockRun> runs);
  /// Read-side twin: kBlockRead, kReadStrided or kReadList.
  Ticket read_runs_async(u32 target, InodeNo ino,
                         std::span<const BlockRun> runs);
  Ticket preallocate_async(u32 target, InodeNo ino, u64 total_blocks);
  Ticket close_file_async(u32 target, InodeNo ino);
  Ticket delete_file_async(u32 target, InodeNo ino);

  /// The transport chain's completion queue (drain point for the tickets
  /// above).
  CompletionQueue& completions() { return transport_->completions(); }
  /// Claim one ticket's result as a Status, blocking the modeled timeline.
  Status wait(const Ticket& t) {
    Result<Response> r = completions().wait(t);
    return to_status(r);
  }

  /// Push out anything a buffering transport still holds; surfaces deferred
  /// errors.
  Status flush() { return transport_->flush(); }

  /// Let time-based layers (QoS token refill) act on clock progress without
  /// forcing a flush.
  void pump() { transport_->pump(); }

  Transport& transport() { return *transport_; }
  u32 mds_index() const { return mds_.index; }

 private:
  template <typename T>
  Result<T> expect(Result<Response> r) {
    if (!r) return r.error();
    if (T* v = std::get_if<T>(&*r)) return std::move(*v);
    return Errc::kInvalid;  // transport returned the wrong alternative
  }
  Status to_status(const Result<Response>& r) {
    return r ? Status{} : Status{r.error()};
  }

  Transport* transport_;
  Address mds_;
};

}  // namespace mif::rpc
