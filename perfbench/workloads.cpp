#include "workloads.hpp"

#include <algorithm>
#include <set>

#include "osd/striping.hpp"

namespace perfbench {

namespace {

using mif::client::ClientFs;
using mif::client::FileHandle;
using mif::core::ClusterConfig;
using mif::core::ParallelFileSystem;

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The mount every workload uses: MiF's two techniques on the default
/// synchronous in-process transport.
ClusterConfig mif_mount() {
  ClusterConfig cfg;
  cfg.target.allocator = mif::alloc::AllocatorMode::kOnDemand;
  cfg.mds.mfs.mode = mif::mfs::DirectoryMode::kEmbedded;
  return cfg;
}

std::vector<ClientFs> connect(ParallelFileSystem& fs, u32 sessions) {
  std::vector<ClientFs> clients;
  clients.reserve(sessions);
  for (u32 i = 0; i < sessions; ++i)
    clients.push_back(fs.connect(mif::ClientId{1 + i}));
  return clients;
}

/// Brackets the measured phase: counter snapshot, tracing attachment and
/// the host and simulated clocks at its start.
class Measure {
 public:
  Measure(Round& r, ParallelFileSystem& fs,
          const std::vector<ClientFs>& clients)
      : r_(r), fs_(fs), clients_(clients) {
    if (r_.rec.failed() > 0)
      r_.errors.push_back("setup call failed: " + r_.rec.first_failure());
    r_.setup_s = cpu_seconds() - r_.setup_start;
    r_.rec.reset();
    before_ = snapshot(fs_, clients_);
    fs_.set_spans(r_.spans);
    r_.rec.set_tracing(r_.spans, &r_.ledger);
    data0_ = fs_.data_elapsed_ms();
    meta0_ = fs_.mds().fs().elapsed_ms();
    t0_ = cpu_seconds();
  }

  double data_ms() const { return fs_.data_elapsed_ms() - data0_; }

  /// End the timed phase and record the per-layer deltas over it; returns
  /// simulated seconds (the slower of the data and metadata timelines).
  /// Checks that issue calls of their own run after this.
  double stop() {
    r_.measure_s = cpu_seconds() - t0_;
    r_.rec.set_tracing(nullptr, nullptr);
    fs_.set_spans(nullptr);
    const double meta_ms = fs_.mds().fs().elapsed_ms() - meta0_;
    const double data_ms = this->data_ms();
    const Snapshot after = snapshot(fs_, clients_);
    auto at = [](const Snapshot& s, const std::string& k) {
      const auto it = s.find(k);
      return it == s.end() ? 0.0 : it->second;
    };
    auto d = [&](const std::string& k) { return at(after, k) - at(before_, k); };
    auto& det = r_.det;
    const double ops = static_cast<double>(r_.rec.ops());
    det["ops"] = ops;
    det["op_error_frac"] =
        ratio(static_cast<double>(r_.rec.failed()),
              static_cast<double>(r_.rec.attempted()));
    det["client.readahead_hit_frac"] =
        ratio(d("client.readahead_hits"), d("client.reads"));
    det["rpc.envelopes_per_op"] =
        ratio(d("rpc.meta.count") + d("rpc.data.count"), ops);
    det["rpc.net_ms"] = d("rpc.net.data.time_ms") + d("rpc.net.meta.time_ms");
    det["mds.cpu_ms"] = d("mds.cpu_ms");
    det["mds.extent_ops"] = d("mds.extent_ops");
    const double hits = d("mds.mfs.cache.hits");
    det["mfs.cache.hit_ratio"] = ratio(hits, hits + d("mds.mfs.cache.misses"));
    det["mfs.cache.evictions"] = d("mds.mfs.cache.evictions");
    det["mfs.disk.accesses_per_op"] =
        ratio(d("mds.mfs.io.dispatched"), d("mds.rpcs"));
    det["mfs.disk.busy_ms"] = d("mds.mfs.disk.busy_ms");
    det["mfs.disk.blocks_read"] = d("mds.mfs.disk.blocks_read");
    det["mfs.disk.blocks_written"] = d("mds.mfs.disk.blocks_written");
    det["mfs.journal.blocks_per_txn"] =
        ratio(d("mds.mfs.journal.journal_blocks"),
              d("mds.mfs.journal.transactions"));
    const double pre = d("alloc.ondemand.pre_alloc_layout");
    det["alloc.window_hit_frac"] =
        ratio(pre, pre + d("alloc.ondemand.layout_miss"));
    const double moved_mb =
        (d("sim.disk.blocks_read") + d("sim.disk.blocks_written")) *
        static_cast<double>(mif::kBlockSize) / 1e6;
    det["sim.positionings_per_MB"] = ratio(d("sim.disk.positionings"), moved_mb);
    double merged = 0.0;
    double queued = 0.0;
    for (std::size_t t = 0; t < fs_.num_targets(); ++t) {
      const std::string p = "osd." + std::to_string(t) + ".io.";
      merged += d(p + "merged");
      queued += d(p + "queued");
    }
    det["sim.io.merge_frac"] = ratio(merged, queued);
    det["sim.disk.seek_ms"] = d("sim.disk.seek_ms");
    det["sim.disk.rotation_ms"] = d("sim.disk.rotation_ms");
    det["sim.disk.transfer_ms"] = d("sim.disk.transfer_ms");
    return std::max(data_ms, meta_ms) / 1000.0;
  }

  /// End-of-round checks shared by every workload: extents per live file,
  /// fsck of every target and of the namespace, and the block probe.
  /// `live` = every file the generator expects to exist.
  void finish(const std::vector<mif::InodeNo>& live) {
    std::vector<float> extents;
    double extent_sum = 0.0;
    for (mif::InodeNo ino : live) {
      extents.push_back(static_cast<float>(fs_.file_extents(ino)));
      extent_sum += extents.back();
    }
    auto& det = r_.det;
    det["alloc.extents_per_file.mean"] =
        ratio(extent_sum, static_cast<double>(live.size()));
    det["alloc.extents_per_file.p99"] = percentile(extents, 0.99);

    for (std::size_t t = 0; t < fs_.num_targets(); ++t) {
      if (!fs_.target(t).verify().ok())
        r_.errors.push_back("osd." + std::to_string(t) + " verify() failed");
    }
    if (!fs_.mds().fs().layout().verify().ok())
      r_.errors.push_back("MFS namespace verify() failed");

    // The probe reads through const calls only; prove it moved nothing.
    const Snapshot before_probe = snapshot(fs_, clients_);
    r_.probe = probe_block_layer(fs_, r_.seed ^ 0x70b3ULL);
    if (!r_.probe.error.empty())
      r_.errors.push_back("block probe: " + r_.probe.error);
    for (const auto& [k, v] : snapshot(fs_, clients_)) {
      const auto it = before_probe.find(k);
      if (it == before_probe.end() || it->second != v) {
        r_.errors.push_back("block probe changed " + k);
        break;
      }
    }
    det["block.data.find_run.found"] = static_cast<double>(r_.probe.data_found);
    det["block.data.free_runs"] = static_cast<double>(r_.probe.data_free_runs);
    det["block.data.utilisation"] = r_.probe.data_utilisation;
    det["block.meta.free_runs"] = static_cast<double>(r_.probe.meta_free_runs);
  }

 private:
  Round& r_;
  ParallelFileSystem& fs_;
  const std::vector<ClientFs>& clients_;
  Snapshot before_;
  double data0_{0.0};
  double meta0_{0.0};
  double t0_{0.0};
};

// ---- shared_ckpt ---------------------------------------------------------------
// N-1 checkpoint (Fig. 1(a)/6a, Table I): 64 write streams extend one shared
// file with interleaved 4 KiB requests, then 1024 segment readers read it
// back with client readahead on.

constexpr u32 kCkptSessions = 16;
constexpr u32 kCkptPids = 4;
constexpr u64 kCkptStreamBlocks = 2048;  // 8 MiB per stream on average
constexpr u64 kCkptJitterBlocks = 256;   // ± 1 MiB, in whole stripe units
constexpr u64 kCkptReaders = 1024;
constexpr u64 kCkptReadBlocks = 4;      // 16 KiB read requests

/// True when the written extents of the target-local subfiles map exactly
/// [0, expected) with no hole: every block written reads back from a
/// mapped block.  Unwritten preallocation past the end is allowed.
bool covers_exactly(ParallelFileSystem& fs, mif::InodeNo ino,
                    u64 file_blocks) {
  std::vector<u64> expected(fs.num_targets(), 0);
  for (const auto& s :
       mif::osd::slices_for(fs.stripe(), mif::FileBlock{0}, file_blocks))
    expected[s.target] = std::max(expected[s.target], s.local_start.v + s.count);
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    auto ext = fs.target(t).extents(ino);
    std::sort(ext.begin(), ext.end(), [](const auto& a, const auto& b) {
      return a.file_off.v < b.file_off.v;
    });
    u64 next = 0;
    for (const auto& e : ext) {
      if (e.flags & mif::block::kExtentUnwritten) continue;
      if (e.file_off.v != next) return false;
      next = e.file_end();
    }
    if (next != expected[t]) return false;
  }
  return true;
}

void shared_ckpt(Round& r) {
  Gen gen(r.seed);
  r.setup_start = cpu_seconds();
  ClusterConfig cfg = mif_mount();
  cfg.num_targets = 5;
  cfg.stripe = {5, 16};
  ParallelFileSystem fs(cfg);
  auto clients = connect(fs, kCkptSessions);
  const std::string path = numbered("/ckpt.", gen.next() % 100000) + ".odb";
  auto fh = r.rec.call(Call::kClientCreate, [&] { return clients[0].create(path); });
  if (!fh) {
    r.errors.push_back("shared_ckpt: create failed");
    return;
  }

  Measure m(r, fs, clients);
  // Write phase: stream s (pid s % 4 of session s / 4) extends its own
  // region; at each arrival slot every stream with data left issues its
  // next 4 KiB request, in a seed-shuffled order.
  constexpr u32 kStreams = kCkptSessions * kCkptPids;
  std::vector<u64> len(kStreams);
  std::vector<u64> start(kStreams);
  u64 file_blocks = 0;
  for (u32 s = 0; s < kStreams; ++s) {
    len[s] = kCkptStreamBlocks - kCkptJitterBlocks +
             gen.uniform(0, 2 * kCkptJitterBlocks / 16) * 16;
    start[s] = file_blocks;
    file_blocks += len[s];
  }
  std::vector<u32> order(kStreams);
  for (u32 s = 0; s < kStreams; ++s) order[s] = s;
  const u64 longest = *std::max_element(len.begin(), len.end());
  for (u64 k = 0; k < longest; ++k) {
    gen.shuffle(order);
    for (u32 s : order) {
      if (k >= len[s]) continue;
      r.rec.run(Call::kClientWrite, [&] {
        return clients[s / kCkptPids].write(*fh, s % kCkptPids,
                                            (start[s] + k) * mif::kBlockSize,
                                            mif::kBlockSize);
      });
    }
  }
  r.rec.run(Call::kClientClose, [&] { return clients[0].close(*fh); });
  r.rec.run(Call::kSimDrain, [&] { fs.drain_data(); });
  const double write_ms = m.data_ms();

  // Read phase: reader i streams the i-th 1/1024 of the file in 16 KiB
  // requests from session i % 16; readers interleave in a seed-shuffled
  // order per slot.
  std::vector<FileHandle> handles;
  for (auto& c : clients) {
    auto h = r.rec.call(Call::kClientOpen, [&] { return c.open(path); });
    handles.push_back(h ? *h : FileHandle{});
  }
  auto seg_start = [&](u64 i) { return i * file_blocks / kCkptReaders; };
  std::vector<u32> readers(kCkptReaders);
  for (u32 i = 0; i < kCkptReaders; ++i) readers[i] = i;
  for (u64 k = 0; k < file_blocks / kCkptReaders + 1; k += kCkptReadBlocks) {
    gen.shuffle(readers);
    for (u32 i : readers) {
      const u64 first = seg_start(i) + k;
      const u64 end = seg_start(i + 1);
      if (first >= end) continue;
      const u64 n = std::min(kCkptReadBlocks, end - first);
      r.rec.run(Call::kClientRead, [&] {
        return clients[i % kCkptSessions].read(handles[i % kCkptSessions],
                                               first * mif::kBlockSize,
                                               n * mif::kBlockSize);
      });
    }
  }
  r.rec.run(Call::kSimDrain, [&] { fs.drain_data(); });
  const double read_ms = m.data_ms() - write_ms;
  r.rec.run(Call::kJournalFinish, [&] { fs.finish_mds(); });
  const double sim_s = m.stop();

  const double mb = static_cast<double>(file_blocks * mif::kBlockSize) / 1e6;
  r.det["sim_ops_per_s"] = ratio(static_cast<double>(r.rec.ops()), sim_s);
  r.det["sim_write_MBps"] = ratio(mb, write_ms / 1000.0);
  r.det["sim_read_MBps"] = ratio(mb, read_ms / 1000.0);
  if (!covers_exactly(fs, fh->ino, file_blocks))
    r.errors.push_back("shared_ckpt: file blocks do not read back as written");
  u64 read_bytes = 0;
  for (const auto& c : clients) read_bytes += c.stats().bytes_read;
  if (read_bytes != file_blocks * mif::kBlockSize)
    r.errors.push_back("shared_ckpt: bytes read back != bytes written");
  m.finish({fh->ino});
}

// ---- smallfile_churn -----------------------------------------------------------
// PostMark shape (Fig. 10): a pool of small files across 100 directories,
// then transactions pairing a create or delete with a read or an append.

constexpr u32 kChurnDirs = 100;
constexpr u32 kChurnSessions = 4;
constexpr u32 kChurnPool = 10000;
constexpr u32 kChurnTransactions = 40000;
constexpr u64 kChurnMinBytes = 512;
constexpr u64 kChurnMaxBytes = 16384;

struct LiveFile {
  u32 dir{0};
  std::string name;
  mif::InodeNo ino{};
  u64 size{0};
};

std::string churn_dir(u32 d) { return numbered("pm", d); }

u64 blocks_for(u64 bytes) {
  return (bytes + mif::kBlockSize - 1) / mif::kBlockSize;
}

void smallfile_churn(Round& r) {
  Gen gen(r.seed);
  r.setup_start = cpu_seconds();
  ClusterConfig cfg = mif_mount();
  cfg.num_targets = 4;
  cfg.mds.mfs.cache_blocks = 4096;
  ParallelFileSystem fs(cfg);
  auto clients = connect(fs, kChurnSessions);
  Recorder& rec = r.rec;

  std::vector<LiveFile> live;
  u64 serial = 0;
  double written = 0.0;
  double read = 0.0;
  auto make_file = [&](ClientFs& c) {
    LiveFile f;
    f.dir = static_cast<u32>(gen.pick(kChurnDirs));
    f.name = numbered("f", serial++);
    const std::string path = churn_dir(f.dir) + "/" + f.name;
    auto fh = rec.call(Call::kClientCreate, [&] { return c.create(path); });
    if (!fh) return;
    f.ino = fh->ino;
    f.size = gen.uniform(kChurnMinBytes, kChurnMaxBytes);
    rec.run(Call::kClientWrite, [&] { return c.write(*fh, 0, 0, f.size); });
    rec.run(Call::kClientClose, [&] { return c.close(*fh); });
    written += static_cast<double>(f.size);
    live.push_back(std::move(f));
  };

  for (u32 d = 0; d < kChurnDirs; ++d)
    rec.run(Call::kMdsMkdir, [&] { return fs.rpc().mkdir(churn_dir(d)); });
  for (u32 i = 0; i < kChurnPool; ++i) make_file(clients[i % kChurnSessions]);

  Measure m(r, fs, clients);
  written = 0.0;
  // Exactly as many creates as deletes, and reads as appends, per 100.
  Deck create_or_delete(gen, {50, 50});
  Deck read_or_append(gen, {50, 50});
  for (u32 t = 0; t < kChurnTransactions; ++t) {
    ClientFs& c = clients[gen.pick(kChurnSessions)];
    if (create_or_delete.draw() == 0 || live.empty()) {
      make_file(c);
    } else {
      const std::size_t i = gen.pick(live.size());
      const LiveFile& f = live[i];
      rec.run(Call::kMdsUnlink,
               [&] { return fs.rpc().unlink(churn_dir(f.dir) + "/" + f.name); });
      rec.run(Call::kOsdDeleteFile, [&] { fs.delete_file(f.ino); });
      live[i] = std::move(live.back());
      live.pop_back();
    }
    if (live.empty()) continue;
    LiveFile& f = live[gen.pick(live.size())];
    const bool do_read = read_or_append.draw() == 0;
    const u64 grow = gen.uniform(kChurnMinBytes, kChurnMaxBytes);
    auto fh = rec.call(Call::kClientOpen,
                       [&] { return c.open(churn_dir(f.dir) + "/" + f.name); });
    if (!fh) continue;
    if (do_read) {
      rec.run(Call::kClientRead, [&] { return c.read(*fh, 0, f.size); });
      read += static_cast<double>(f.size);
    } else {
      rec.run(Call::kClientWrite, [&] { return c.write(*fh, 0, f.size, grow); });
      rec.run(Call::kClientClose, [&] { return c.close(*fh); });
      f.size += grow;
      written += static_cast<double>(grow);
    }
  }
  rec.run(Call::kSimDrain, [&] { fs.drain_data(); });
  rec.run(Call::kJournalFinish, [&] { fs.finish_mds(); });
  const double sim_s = m.stop();

  r.det["sim_ops_per_s"] = ratio(static_cast<double>(rec.ops()), sim_s);
  r.det["sim_write_MBps"] = ratio(written / 1e6, sim_s);
  r.det["sim_read_MBps"] = ratio(read / 1e6, sim_s);

  // The namespace must hold exactly the generator's live set, and every
  // live file's data must be mapped over its whole size.
  std::vector<std::set<std::string>> expect(kChurnDirs);
  std::vector<mif::InodeNo> inos;
  bool sizes_ok = true;
  for (const LiveFile& f : live) {
    expect[f.dir].insert(f.name);
    inos.push_back(f.ino);
    u64 mapped = 0;
    for (std::size_t t = 0; t < fs.num_targets(); ++t) {
      for (const auto& e : fs.target(t).extents(f.ino)) mapped += e.length;
    }
    sizes_ok = sizes_ok && mapped == blocks_for(f.size);
  }
  if (!sizes_ok)
    r.errors.push_back("smallfile_churn: mapped blocks differ from file sizes");
  for (u32 d = 0; d < kChurnDirs; ++d) {
    auto entries = fs.rpc().readdir(churn_dir(d));
    std::set<std::string> got;
    if (entries) {
      for (const auto& e : *entries) got.insert(e.name);
    }
    if (!entries || got != expect[d]) {
      r.errors.push_back("smallfile_churn: readdir of " + churn_dir(d) +
                         " differs from the expected live set");
      break;
    }
  }
  m.finish(inos);
}

// ---- aged_meta -----------------------------------------------------------------
// Aged Metarates shape (Fig. 8/9): create/delete churn ages a 512 MiB
// metadata volume to ~75 %, then 10 sessions each run one Metarates pass
// inside an aged directory.

constexpr u32 kAgedFilesPerRound = 10000;
constexpr u64 kAgedExtents = 64;
// Each round's directory reserves 1/8 of the volume up front (embedded
// content doubling), so utilisation moves in steps of 12.5 %: six rounds
// reach 75 %.  A seventh would leave the measured phase too little room.
constexpr double kAgedTarget = 0.75;
constexpr u32 kAgedSessions = 10;
// Metarates (src/workload/metarates.hpp) runs create, utime, readdir-stat
// and delete phases over 5 000 files per client directory.  One pass per
// session keeps its proportions: per file one create, one stat, one utime
// and one unlink, in a seed-shuffled order, then one readdir_stats of the
// directory.
constexpr u32 kMetaratesFiles = 5000;
// The phase fails if a directory ever drops below this share of its aged
// size: creates and unlinks balance per pass, so it never should.
constexpr double kAgedMinDirFrac = 0.9;

std::string aged_dir(u32 round) { return numbered("age", round); }

void aged_meta(Round& r) {
  Gen gen(r.seed);
  r.setup_start = cpu_seconds();
  ClusterConfig cfg = mif_mount();
  cfg.mds.mfs.geometry.capacity_blocks = 128 * 1024;  // 512 MiB
  cfg.mds.mfs.journal_area_blocks = 4096;
  cfg.mds.mfs.cache_blocks = 512;                      // 2 MiB
  cfg.mds.mfs.alloc_groups = 4;
  ParallelFileSystem fs(cfg);
  const std::vector<ClientFs> clients;
  Recorder& rec = r.rec;
  mif::rpc::Client& rpc = fs.rpc();

  // Aging churn: each round fills a directory, gives every file a spilled
  // 64-extent mapping, then deletes about half of them.
  std::vector<std::vector<std::string>> live;
  while (fs.mds().fs().space().utilisation() < kAgedTarget &&
         rec.failed() == 0) {
    const u32 round = static_cast<u32>(live.size());
    const std::string dir = aged_dir(round);
    rec.run(Call::kMdsMkdir, [&] { return rpc.mkdir(dir); });
    std::vector<std::string> names;
    for (u32 f = 0; f < kAgedFilesPerRound; ++f) {
      names.push_back(numbered("f", f));
      auto ino = rec.call(Call::kMdsCreate,
                          [&] { return rpc.create(dir + "/" + names.back()); });
      if (!ino) break;
      rec.run(Call::kMdsReportExtents,
               [&] { return rpc.report_extents(*ino, kAgedExtents); });
    }
    std::vector<std::string> kept;
    for (std::string& n : names) {
      if (gen.chance(0.5)) {
        rec.run(Call::kMdsUnlink, [&] { return rpc.unlink(dir + "/" + n); });
      } else {
        kept.push_back(std::move(n));
      }
    }
    live.push_back(std::move(kept));
  }
  rec.run(Call::kJournalFinish, [&] { fs.finish_mds(); });
  const u32 rounds = static_cast<u32>(live.size());
  r.det["aged.rounds"] = rounds;
  r.det["aged.utilisation"] = fs.mds().fs().space().utilisation();

  Measure m(r, fs, clients);
  // Session s works in the s-th most recent aged directory.  At each
  // arrival slot every session issues the next op of its pass, in a
  // seed-shuffled order.
  std::vector<u32> dir_of(kAgedSessions);
  for (u32 s = 0; s < kAgedSessions; ++s) dir_of[s] = rounds - 1 - s % rounds;
  std::vector<std::size_t> min_size(rounds);
  for (u32 d = 0; d < rounds; ++d) min_size[d] = live[d].size();
  const std::vector<std::size_t> aged_size = min_size;
  enum { kCreate, kStat, kUtime, kUnlink, kReaddirStats };
  std::vector<Deck> pass;
  for (u32 s = 0; s < kAgedSessions; ++s)
    pass.emplace_back(gen, std::vector<u32>{kMetaratesFiles, kMetaratesFiles,
                                            kMetaratesFiles, kMetaratesFiles});
  std::vector<u64> serial(kAgedSessions, 0);
  std::vector<u32> order(kAgedSessions);
  for (u32 s = 0; s < kAgedSessions; ++s) order[s] = s;
  constexpr u32 kPerFileOps = 4 * kMetaratesFiles;
  for (u32 k = 0; k <= kPerFileOps; ++k) {
    gen.shuffle(order);
    for (u32 s : order) {
      const u32 d = dir_of[s];
      std::vector<std::string>& names = live[d];
      const std::string dir = aged_dir(d) + "/";
      const u32 kind =
          k < kPerFileOps ? pass[s].draw() : static_cast<u32>(kReaddirStats);
      if (kind == kCreate || names.empty()) {
        names.push_back(numbered("m", s) + numbered("_", serial[s]++));
        rec.run(Call::kMdsCreate, [&] { return rpc.create(dir + names.back()); });
      } else if (kind == kStat) {
        const std::string& n = names[gen.pick(names.size())];
        rec.run(Call::kMdsStat, [&] { return rpc.stat(dir + n); });
      } else if (kind == kUtime) {
        const std::string& n = names[gen.pick(names.size())];
        rec.run(Call::kMdsUtime, [&] { return rpc.utime(dir + n); });
      } else if (kind == kUnlink) {
        const std::size_t i = gen.pick(names.size());
        rec.run(Call::kMdsUnlink, [&] { return rpc.unlink(dir + names[i]); });
        names[i] = std::move(names.back());
        names.pop_back();
        min_size[d] = std::min(min_size[d], names.size());
      } else {
        rec.run(Call::kMdsReaddirStats,
                 [&] { return rpc.readdir_stats(aged_dir(d)); });
      }
    }
  }
  rec.run(Call::kJournalFinish, [&] { fs.finish_mds(); });
  const double sim_s = m.stop();

  r.det["sim_ops_per_s"] = ratio(static_cast<double>(rec.ops()), sim_s);
  // No data moves here: the simulated throughputs are the metadata disk's.
  const double mb = static_cast<double>(mif::kBlockSize) / 1e6;
  r.det["sim_write_MBps"] = ratio(r.det["mfs.disk.blocks_written"] * mb, sim_s);
  r.det["sim_read_MBps"] = ratio(r.det["mfs.disk.blocks_read"] * mb, sim_s);

  // Every directory a session touched must list exactly its live set and
  // have stayed near its aged size throughout.
  std::set<u32> touched(dir_of.begin(), dir_of.end());
  for (u32 d : touched) {
    if (static_cast<double>(min_size[d]) <
        kAgedMinDirFrac * static_cast<double>(aged_size[d])) {
      r.errors.push_back("aged_meta: " + aged_dir(d) +
                         " drained below its aged size");
      break;
    }
    auto entries = rpc.readdir(aged_dir(d));
    std::set<std::string> got;
    if (entries) {
      for (const auto& e : *entries) got.insert(e.name);
    }
    if (!entries || got != std::set<std::string>(live[d].begin(), live[d].end())) {
      r.errors.push_back("aged_meta: readdir of " + aged_dir(d) +
                         " differs from the expected live set");
      break;
    }
  }
  m.finish({});
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"shared_ckpt", shared_ckpt},
      {"smallfile_churn", smallfile_churn},
      {"aged_meta", aged_meta},
  };
  return all;
}

}  // namespace perfbench
