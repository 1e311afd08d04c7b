// Unit tests for the client file system against a small mounted cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/pfs.hpp"
#include "obs/span.hpp"
#include "rpc/envelope.hpp"
#include "util/rng.hpp"

namespace mif::client {
namespace {

core::ClusterConfig small_cluster(alloc::AllocatorMode mode) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.stripe.unit_blocks = 8;
  cfg.target.allocator = mode;
  return cfg;
}

struct ClientFixture : ::testing::Test {
  core::ParallelFileSystem fs{small_cluster(alloc::AllocatorMode::kOnDemand)};
};

TEST_F(ClientFixture, CreateWriteReadClose) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/data");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.read(*fh, 0, 1 << 20).ok());
  fs.drain_data();
  ASSERT_TRUE(c.close(*fh).ok());
  const auto stats = fs.data_stats();
  EXPECT_EQ(stats.blocks_written, (1u << 20) / kBlockSize);
  EXPECT_EQ(stats.blocks_read, (1u << 20) / kBlockSize);
  // data_stats() sums every target's disk; reset_data_stats() zeroes them.
  u64 per_target_requests = 0;
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_GT(fs.target(t).disk().stats().requests, 0u);
    per_target_requests += fs.target(t).disk().stats().requests;
  }
  EXPECT_EQ(stats.requests, per_target_requests);
  fs.reset_data_stats();
  EXPECT_EQ(fs.data_stats().requests, 0u);
  EXPECT_EQ(fs.data_stats().blocks_written, 0u);
  EXPECT_EQ(fs.data_stats().blocks_read, 0u);
}

TEST_F(ClientFixture, WritesStripeAcrossAllTargets) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/striped");
  ASSERT_TRUE(fh);
  // 3 stripe units × 3 targets.
  ASSERT_TRUE(c.write(*fh, 0, 0, 9 * 8 * kBlockSize).ok());
  fs.drain_data();
  for (std::size_t t = 0; t < fs.num_targets(); ++t) {
    EXPECT_EQ(fs.target(t).disk().stats().blocks_written, 24u)
        << "target " << t;
  }
}

TEST_F(ClientFixture, UnalignedWritesRoundToBlocks) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/odd");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 100, 50).ok());  // inside block 0
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 1u);
}

TEST_F(ClientFixture, ZeroLengthRejected) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/z");
  ASSERT_TRUE(fh);
  EXPECT_EQ(c.write(*fh, 0, 0, 0).error(), Errc::kInvalid);
  EXPECT_EQ(c.read(*fh, 0, 0).error(), Errc::kInvalid);
}

TEST_F(ClientFixture, OpenUsesLayoutCacheOnSecondOpen) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/cached");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c.close(*fh).ok());
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 1u);  // close primed the cache
  ASSERT_TRUE(c.open("/cached"));
  EXPECT_EQ(c.stats().layout_cache_hits, 2u);
}

TEST_F(ClientFixture, CloseReportsExtentsToMds) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/report");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 256 * 1024).ok());
  const u64 e0 = fs.mds().stats().extent_ops;
  ASSERT_TRUE(c.close(*fh).ok());
  EXPECT_GT(fs.mds().stats().extent_ops, e0);
  // And the MDS now serves the layout on open.
  auto c2 = fs.connect(ClientId{2});
  auto reopened = c2.open("/report");
  ASSERT_TRUE(reopened);
}

TEST_F(ClientFixture, OpenMissingFileFails) {
  auto c = fs.connect(ClientId{1});
  EXPECT_EQ(c.open("/missing").error(), Errc::kNotFound);
}

TEST_F(ClientFixture, StatsTrackTraffic) {
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/s");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(c.write(*fh, 0, 0, 8192).ok());
  ASSERT_TRUE(c.read(*fh, 0, 4096).ok());
  EXPECT_EQ(c.stats().bytes_written, 8192u);
  EXPECT_EQ(c.stats().bytes_read, 4096u);
  EXPECT_EQ(c.stats().writes, 1u);
  EXPECT_EQ(c.stats().reads, 1u);
}

TEST_F(ClientFixture, TwoClientsShareOneFile) {
  auto c1 = fs.connect(ClientId{1});
  auto c2 = fs.connect(ClientId{2});
  auto fh = c1.create("/shared");
  ASSERT_TRUE(fh);
  auto fh2 = c2.open("/shared");
  ASSERT_TRUE(fh2);
  ASSERT_TRUE(c1.write(*fh, 0, 0, 64 * 1024).ok());
  ASSERT_TRUE(c2.write(*fh2, 0, 64 * 1024, 64 * 1024).ok());
  fs.drain_data();
  EXPECT_EQ(fs.data_stats().blocks_written, 32u);
  EXPECT_GT(fs.file_extents(fh->ino), 0u);
}

// --- lowering contract -------------------------------------------------------
// Every client data access lowers through one path: byte ranges → stripe
// slices → per-target runs → replica fan → chunked envelopes.  These cases
// replay seeded random accesses on every lowering mode and compare the
// rpc.<op> spans the transport records — (op, target, wire bytes), in issue
// order — with a reference computed from the stripe layout alone.

struct Envelope {
  std::string op;  // rpc span name, e.g. "rpc.block_write"
  u64 target{0};
  u64 wire{0};
  bool operator==(const Envelope&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Envelope& e) {
  return os << e.op << "@" << e.target << ":" << e.wire;
}

bool is_data_span(std::string_view name) {
  for (rpc::Op op : {rpc::Op::kBlockWrite, rpc::Op::kBlockRead,
                     rpc::Op::kWriteList, rpc::Op::kReadList,
                     rpc::Op::kWriteStrided, rpc::Op::kReadStrided}) {
    if (rpc::traits(op).span == name) return true;
  }
  return false;
}

/// The data envelopes a collector saw, in issue (span-id) order.
std::vector<Envelope> issued_envelopes(const obs::SpanCollector& spans) {
  std::vector<obs::SpanRecord> recs = spans.spans();
  std::sort(recs.begin(), recs.end(),
            [](const auto& a, const auto& b) { return a.span_id < b.span_id; });
  std::vector<Envelope> out;
  for (const obs::SpanRecord& r : recs) {
    if (is_data_span(r.name))
      out.push_back({std::string(r.name), r.arg0, r.arg1});
  }
  return out;
}

/// The reference lowering, built from osd::slices_for, util::as_strided
/// and rpc::wire_bytes only.
struct LoweringReference {
  osd::StripeLayout stripe;
  u64 list_runs{0};
  u32 replicas{1};

  std::vector<Envelope> lower(
      bool write, const std::vector<util::ByteRange>& ranges) const {
    // Groups: one per stripe slice in per-block mode; one per target, its
    // adjacent local runs merged, in ascending target order in list mode.
    std::vector<std::pair<u32, std::vector<BlockRun>>> groups;
    std::map<u32, std::vector<BlockRun>> per_target;
    for (const util::ByteRange& r : ranges) {
      if (r.len == 0) continue;
      const u64 first = r.offset / kBlockSize;
      const u64 last = (r.end() + kBlockSize - 1) / kBlockSize;
      for (const osd::StripeSlice& s :
           osd::slices_for(stripe, FileBlock{first}, last - first)) {
        const BlockRun run{s.local_start, s.count};
        if (list_runs == 0) {
          groups.push_back({s.target, {run}});
          continue;
        }
        std::vector<BlockRun>& runs = per_target[s.target];
        if (!runs.empty() &&
            runs.back().start.v + runs.back().count == run.start.v) {
          runs.back().count += run.count;
        } else {
          runs.push_back(run);
        }
      }
    }
    for (auto& [t, runs] : per_target) groups.push_back({t, std::move(runs)});

    std::vector<Envelope> out;
    const u64 max_runs = std::max<u64>(list_runs, 1);
    for (const auto& [target, runs] : groups) {
      // Writes go to the primary and to copy c on (target + c) % width.
      for (u32 c = 0; c < (write ? replicas : 1u); ++c) {
        const u32 dest = (target + c) % stripe.width;
        for (std::size_t at = 0; at < runs.size(); at += max_runs) {
          const std::vector<BlockRun> chunk(
              runs.begin() + at,
              runs.begin() + std::min(runs.size(), at + max_runs));
          const rpc::Request req = envelope(write, chunk);
          out.push_back({std::string(rpc::traits(rpc::op_of(req)).span), dest,
                         rpc::wire_bytes(req)});
        }
      }
    }
    return out;
  }

  static rpc::Request envelope(bool write, const std::vector<BlockRun>& runs) {
    util::StridedRuns pat;
    if (runs.size() == 1) {
      if (write) return rpc::BlockWriteRequest{{}, {}, runs};
      return rpc::BlockReadRequest{{}, runs};
    }
    if (util::as_strided(runs, pat)) {
      if (write) {
        return rpc::WriteStridedRequest{{}, {}, pat.start, pat.count,
                                        pat.stride, pat.block_len};
      }
      return rpc::ReadStridedRequest{{}, pat.start, pat.count, pat.stride,
                                     pat.block_len};
    }
    if (write) return rpc::WriteListRequest{{}, {}, runs};
    return rpc::ReadListRequest{{}, runs};
  }
};

struct LoweringMount {
  u64 list_runs;
  u32 replicas;
};

class Lowering : public ::testing::TestWithParam<LoweringMount> {};

TEST_P(Lowering, RandomAccessesMatchReference) {
  const LoweringMount m = GetParam();
  core::ClusterConfig cfg;
  cfg.list_io_max_runs = m.list_runs;
  cfg.redundancy.replicas = m.replicas;
  cfg.client_readahead_max_blocks = 0;  // read() = exactly its own blocks
  core::ParallelFileSystem fs(cfg);
  obs::SpanCollector spans;
  fs.set_spans(&spans);
  const LoweringReference ref{fs.stripe(), m.list_runs, m.replicas};
  auto c = fs.connect(ClientId{1});
  auto fh = c.create("/lowered");
  ASSERT_TRUE(fh);

  mif::Rng rng(31 + m.list_runs * 7 + m.replicas);
  constexpr u64 kFileBlocks = 2048;
  std::map<std::string, u64> shapes;  // envelopes issued per rpc span name
  const auto any_offset = [&](u64 max_blocks) {
    return rng.uniform(0, max_blocks * kBlockSize - 1);
  };
  for (int iter = 0; iter < 120; ++iter) {
    spans.clear();
    std::vector<util::ByteRange> ranges;
    const bool write = rng.chance(0.5);
    Status st;
    std::string what;
    switch (rng.uniform(0, 3)) {
      case 0: {  // write() / read()
        const util::ByteRange r{any_offset(kFileBlocks),
                                rng.uniform(1, 300 * kBlockSize)};
        ranges.push_back(r);
        what = "plain";
        st = write ? c.write(*fh, 0, r.offset, r.len)
                   : c.read(*fh, r.offset, r.len);
        break;
      }
      case 1: {  // write_strided() / read_strided(): pieces never share a block
        const u64 offset = any_offset(64);
        const u64 piece = rng.uniform(1, 6 * kBlockSize);
        const u64 stride =
            rng.uniform((piece + kBlockSize - 1) / kBlockSize + 1, 100) *
            kBlockSize;
        const u64 count = rng.uniform(1, 19);
        for (u64 i = 0; i < count; ++i) {
          ranges.push_back({offset + i * stride, piece});
        }
        what = "strided";
        st = write ? c.write_strided(*fh, 0, offset, piece, stride, count)
                   : c.read_strided(*fh, offset, piece, stride, count);
        break;
      }
      default: {  // *_ranges_async(): disjoint ranges in any order
        std::vector<u64> slots(kFileBlocks / 32);
        for (u64 i = 0; i < slots.size(); ++i) slots[i] = i;
        for (u64 k = rng.uniform(1, 12); k > 0; --k) {
          const u64 pick = rng.uniform(0, slots.size() - 1);
          const u64 base = slots[pick] * 32 * kBlockSize;
          slots.erase(slots.begin() + static_cast<std::ptrdiff_t>(pick));
          const u64 off = base + rng.uniform(0, 8 * kBlockSize);
          const u64 len =
              rng.chance(0.1) ? 0 : rng.uniform(1, 20 * kBlockSize);
          ranges.push_back({off, len});
        }
        what = "ranges";
        std::vector<rpc::Ticket> tickets;
        st = write ? c.write_ranges_async(*fh, 0, ranges, tickets)
                   : c.read_ranges_async(*fh, ranges, tickets);
        if (m.list_runs == 0) {
          // The ranged APIs need a list mount: refused, nothing issued.
          EXPECT_EQ(st.error(), Errc::kInvalid);
          EXPECT_TRUE(issued_envelopes(spans).empty());
          continue;
        }
        if (st) st = c.drain(tickets);
        break;
      }
    }
    SCOPED_TRACE(::testing::Message() << "iter " << iter << " " << what
                                      << (write ? " write" : " read"));
    ASSERT_TRUE(st.ok());
    const std::vector<Envelope> got = issued_envelopes(spans);
    ASSERT_EQ(got, ref.lower(write, ranges));
    for (const Envelope& e : got) ++shapes[e.op];
  }
  // The random accesses reached every envelope shape the mount can emit.
  EXPECT_GT(shapes["rpc.block_write"], 0u);
  EXPECT_GT(shapes["rpc.block_read"], 0u);
  if (m.list_runs >= 2) {
    for (const char* op : {"rpc.list.write_strided", "rpc.list.read_strided",
                           "rpc.list.write", "rpc.list.read"}) {
      EXPECT_GT(shapes[op], 0u) << op;
    }
  } else {
    EXPECT_EQ(shapes.size(), 2u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mounts, Lowering,
    ::testing::Values(LoweringMount{0, 1}, LoweringMount{1, 1},
                      LoweringMount{2, 1}, LoweringMount{64, 1},
                      LoweringMount{0, 2}, LoweringMount{1, 2},
                      LoweringMount{2, 2}, LoweringMount{64, 2}),
    [](const ::testing::TestParamInfo<LoweringMount>& p) {
      return "list" + std::to_string(p.param.list_runs) + "_replicas" +
             std::to_string(p.param.replicas);
    });

}  // namespace
}  // namespace mif::client
