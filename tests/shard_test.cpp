// Sharded metadata service: placement map, inode tagging, whole-stack
// routing through shard::ShardedTransport (fan-out aggregation, per-shard
// colocation, namespace semantics under both placement policies, the §IV-D
// embedded-directory locality claim), the two-phase cross-shard rename
// (including a FaultTransport-injected failure between the phases +
// recovery), and the shard.* observability surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/pfs.hpp"
#include "obs/span.hpp"
#include "shard/map.hpp"
#include "shard/router.hpp"
#include "shard/transport.hpp"

namespace mif {
namespace {

core::ClusterConfig sharded_cfg(u32 shards, shard::Policy policy) {
  core::ClusterConfig cfg;
  cfg.num_targets = 3;
  cfg.mds.shards = shards;
  cfg.mds.placement = policy;
  return cfg;
}

// --- shard::Map -------------------------------------------------------------

TEST(ShardMap, DelegationIsRoundRobinAndIdempotent) {
  shard::Map map(3, shard::Policy::kSubtree);
  EXPECT_EQ(map.delegate("a"), 0u);
  EXPECT_EQ(map.delegate("b"), 1u);
  EXPECT_EQ(map.delegate("c"), 2u);
  EXPECT_EQ(map.delegate("d"), 0u);
  // Re-delegating an assigned name keeps its shard and burns no slot.
  EXPECT_EQ(map.delegate("b"), 1u);
  EXPECT_EQ(map.delegate("e"), 1u);
  EXPECT_TRUE(map.delegated("a"));
  EXPECT_FALSE(map.delegated("zzz"));
}

TEST(ShardMap, SubtreeOwnerFollowsTopLevelDelegation) {
  shard::Map map(4, shard::Policy::kSubtree);
  map.delegate("proj");
  map.delegate("home");
  EXPECT_EQ(map.owner_of("proj/src/a.c"), map.owner_of("proj/doc/b.txt"));
  EXPECT_EQ(map.owner_of("home/u1"), 1u);
  // Root and undelegated names fall back to shard 0.
  EXPECT_EQ(map.owner_of("/"), 0u);
  EXPECT_EQ(map.owner_of("loose.txt"), 0u);
}

TEST(ShardMap, HashOwnerIsStableAndSpread) {
  shard::Map map(4, shard::Policy::kHash);
  std::vector<u64> per_shard(4, 0);
  for (int i = 0; i < 256; ++i) {
    const std::string p = "dir/f" + std::to_string(i);
    const u32 owner = map.owner_of(p);
    EXPECT_EQ(owner, map.owner_of(p));  // stable
    ++per_shard[owner];
  }
  for (u64 n : per_shard) EXPECT_GT(n, 0u);
}

// --- inode tagging ----------------------------------------------------------

TEST(ShardRouter, InodeTagRoundTrips) {
  for (u32 shard : {0u, 1u, 3u, 200u}) {
    const InodeNo local{(u64{7} << 32) | 42};  // embedded dir<<32|slot shape
    const InodeNo tagged = shard::Router::tag(shard, local);
    EXPECT_EQ(shard::Router::shard_of(tagged), shard);
    EXPECT_EQ(shard::Router::untag(tagged).v, local.v);
    EXPECT_NE(tagged.v, local.v);
  }
  // Untagged numbers route to shard 0.
  EXPECT_EQ(shard::Router::shard_of(InodeNo{12345}), 0u);
}

TEST(ShardRouter, StatsImbalance) {
  shard::Router r(4, shard::Policy::kHash);
  for (int i = 0; i < 10; ++i) r.count_op(0);
  for (int i = 0; i < 10; ++i) r.count_op(1);
  for (int i = 0; i < 10; ++i) r.count_op(2);
  for (int i = 0; i < 10; ++i) r.count_op(3);
  EXPECT_DOUBLE_EQ(r.stats().imbalance(), 1.0);
  for (int i = 0; i < 40; ++i) r.count_op(2);
  EXPECT_GT(r.stats().imbalance(), 2.0);
}

// --- whole-stack routing ----------------------------------------------------

TEST(ShardedStack, SingleShardBuildsNoRouter) {
  core::ParallelFileSystem fs(sharded_cfg(1, shard::Policy::kSubtree));
  EXPECT_EQ(fs.transport().sharded(), nullptr);
  EXPECT_EQ(fs.mds_shards(), 1u);
}

TEST(ShardedStack, SubtreeKeepsDirectoryColocated) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kSubtree));
  ASSERT_EQ(fs.mds_shards(), 4u);
  for (int d = 0; d < 4; ++d) {
    ASSERT_TRUE(fs.rpc().mkdir("d" + std::to_string(d)));
  }
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(fs.rpc().create("d1/f" + std::to_string(i)));
  }
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // Round-robin delegation sent d<i> to shard i; every create under d1
  // stayed on shard 1 (1 mkdir + 12 creates = 13 ops), the others saw only
  // their own mkdir.
  const shard::ShardStats before = sharded->stats();
  ASSERT_EQ(before.ops_per_shard.size(), 4u);
  EXPECT_EQ(before.ops_per_shard[1], 13u);
  EXPECT_EQ(before.ops_per_shard[0], 1u);
  EXPECT_EQ(before.ops_per_shard[2], 1u);
  EXPECT_EQ(before.ops_per_shard[3], 1u);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_GT(fs.mds(s).stats().rpcs, 0u) << "shard " << s;
  }

  // An aggregated listing of one directory touches exactly ONE shard: no
  // fan-out is recorded.
  auto entries = fs.rpc().readdir_stats("d1");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 12u);
  EXPECT_EQ(sharded->stats().fanout_requests, before.fanout_requests);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok());
  }
}

TEST(ShardedStack, HashScattersAndFansOut) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("dir"));
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(fs.rpc().create("dir/f" + std::to_string(i)));
  }
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // Children scattered across every shard.
  const shard::ShardStats before = sharded->stats();
  for (u64 n : before.ops_per_shard) EXPECT_GT(n, 0u);
  EXPECT_LT(before.imbalance(), 2.0);

  // The aggregated listing must ask every shard — and still come back
  // merged and deduplicated.
  auto entries = fs.rpc().readdir_stats("dir");
  ASSERT_TRUE(entries);
  EXPECT_EQ(entries->size(), 64u);
  const shard::ShardStats after = sharded->stats();
  EXPECT_EQ(after.fanout_requests, before.fanout_requests + 3);
}

TEST(ShardedStack, DataPathRoundTripsUnderShardedMetadata) {
  for (auto policy : {shard::Policy::kSubtree, shard::Policy::kHash}) {
    core::ParallelFileSystem fs(sharded_cfg(3, policy));
    auto client = fs.connect(ClientId{1});
    ASSERT_TRUE(fs.rpc().mkdir("data"));
    auto fh = client.create("data/file.bin");
    ASSERT_TRUE(fh);
    // The ino that crossed the transport carries its home-shard tag.
    EXPECT_GT(fh->ino.v >> shard::Router::kTagShift, 0u);
    ASSERT_TRUE(client.write(*fh, 0, 0, 96 * kBlockSize).ok());
    ASSERT_TRUE(client.read(*fh, 0, 96 * kBlockSize).ok());
    ASSERT_TRUE(client.close(*fh).ok());
    fs.drain_data();
    auto reopened = client.open("data/file.bin");
    ASSERT_TRUE(reopened);
    EXPECT_EQ(reopened->ino.v, fh->ino.v);
    for (std::size_t t = 0; t < fs.num_targets(); ++t) {
      EXPECT_TRUE(fs.target(t).verify().ok());
    }
  }
}

// --- namespace semantics and placement (§IV-C/§IV-D) -----------------------

/// Embedded directories on every shard, as the §IV-D ablation mounts them.
core::ClusterConfig embedded_cfg(u32 shards, shard::Policy policy) {
  core::ClusterConfig cfg = sharded_cfg(shards, policy);
  cfg.mds.mfs.mode = mfs::DirectoryMode::kEmbedded;
  cfg.mds.mfs.cache_blocks = 1024;
  return cfg;
}

class ShardedPolicy : public ::testing::TestWithParam<shard::Policy> {};

TEST_P(ShardedPolicy, NamespaceSemanticsHold) {
  core::ParallelFileSystem fs(embedded_cfg(3, GetParam()));
  rpc::Client& rpc = fs.rpc();
  ASSERT_TRUE(rpc.mkdir("a"));
  ASSERT_TRUE(rpc.create("a/f"));
  EXPECT_TRUE(rpc.stat("a/f").ok());
  EXPECT_TRUE(rpc.utime("a/f").ok());
  EXPECT_TRUE(rpc.unlink("a/f").ok());
  EXPECT_EQ(rpc.stat("a/f").error(), Errc::kNotFound);
  EXPECT_EQ(rpc.unlink("a/f").error(), Errc::kNotFound);
  // The name can be recreated after deletion.
  EXPECT_TRUE(rpc.create("a/f"));
}

TEST_P(ShardedPolicy, DuplicateCreateIsRefused) {
  core::ParallelFileSystem fs(embedded_cfg(2, GetParam()));
  ASSERT_TRUE(fs.rpc().mkdir("giant"));
  ASSERT_TRUE(fs.rpc().create("giant/x"));
  EXPECT_EQ(fs.rpc().create("giant/x").error(), Errc::kExists);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, ShardedPolicy,
    ::testing::Values(shard::Policy::kSubtree, shard::Policy::kHash),
    [](const ::testing::TestParamInfo<shard::Policy>& info) {
      return std::string(to_string(info.param));
    });

TEST(ShardedStack, HashSpreadsAGiantDirectoryOverEveryShard) {
  core::ParallelFileSystem fs(embedded_cfg(4, shard::Policy::kHash));
  ASSERT_TRUE(fs.rpc().mkdir("giant"));
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(fs.rpc().create("giant/state." + std::to_string(i)));
  }
  // The skeleton is mirrored; each child lives on its hash owner only.
  u64 sum = 0;
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    auto part = fs.mds(s).readdir("giant");
    ASSERT_TRUE(part);
    EXPECT_GT(part->size(), 0u) << "shard " << s;
    sum += part->size();
  }
  EXPECT_EQ(sum, 2000u);
}

// The §IV-D claim, measured: the disk-access benefit of the aggregated
// readdir-stat survives subtree placement but not hash placement (scattered
// children mean several shards each sweep their own piece).
TEST(ShardedStack, EmbeddedBenefitSurvivesSubtreeNotHash) {
  auto run = [](shard::Policy policy) {
    core::ParallelFileSystem fs(embedded_cfg(4, policy));
    EXPECT_TRUE(fs.rpc().mkdir("big"));
    for (int i = 0; i < 2000; ++i)
      EXPECT_TRUE(fs.rpc().create("big/f" + std::to_string(i)));
    auto accesses = [&fs] {
      u64 n = 0;
      for (std::size_t s = 0; s < fs.mds_shards(); ++s)
        n += fs.mds(s).fs().disk_accesses();
      return n;
    };
    for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
      fs.mds(s).finish();
      fs.mds(s).fs().cache().invalidate_all();
    }
    const u64 a0 = accesses();
    EXPECT_TRUE(fs.rpc().readdir_stats("big"));
    fs.finish_mds();
    return accesses() - a0;
  };
  EXPECT_LT(run(shard::Policy::kSubtree), run(shard::Policy::kHash));
}

// --- rename -----------------------------------------------------------------

TEST(ShardedRename, WithinShardIsOneRpc) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kSubtree));
  ASSERT_TRUE(fs.rpc().mkdir("d0"));
  ASSERT_TRUE(fs.rpc().create("d0/old"));
  auto client = fs.connect(ClientId{1});
  auto moved = client.rename("d0/old", "d0/new");
  ASSERT_TRUE(moved);
  EXPECT_TRUE(fs.rpc().stat("d0/new").ok());
  EXPECT_EQ(fs.rpc().stat("d0/old").error(), Errc::kNotFound);
  const shard::ShardStats s = fs.transport().sharded()->stats();
  EXPECT_EQ(s.renames_local, 1u);
  EXPECT_EQ(s.renames_cross, 0u);
}

TEST(ShardedRename, AcrossShardsMovesEntryAndKeepsDataReachable) {
  core::ParallelFileSystem fs(sharded_cfg(3, shard::Policy::kSubtree));
  ASSERT_TRUE(fs.rpc().mkdir("src"));  // delegated to shard 0
  ASSERT_TRUE(fs.rpc().mkdir("dst"));  // delegated to shard 1
  auto client = fs.connect(ClientId{1});
  auto fh = client.create("src/data.bin");
  ASSERT_TRUE(fh);
  ASSERT_TRUE(client.write(*fh, 0, 0, 48 * kBlockSize).ok());
  ASSERT_TRUE(client.close(*fh).ok());
  fs.drain_data();

  auto moved = client.rename("src/data.bin", "dst/data.bin");
  ASSERT_TRUE(moved);
  EXPECT_NE(moved->ino.v, fh->ino.v);  // new inode on the target shard
  EXPECT_TRUE(fs.rpc().stat("dst/data.bin").ok());
  EXPECT_EQ(fs.rpc().stat("src/data.bin").error(), Errc::kNotFound);

  // The blocks stayed keyed by the old ino on the storage targets; the
  // alias chain keeps them reachable through the new handle.
  EXPECT_TRUE(client.read(*moved, 0, 48 * kBlockSize).ok());

  const shard::ShardStats s = fs.transport().sharded()->stats();
  EXPECT_EQ(s.renames_cross, 1u);
  EXPECT_EQ(s.rename_failures, 0u);
  // The journal records the committed protocol; nothing is pending.
  const auto journal = fs.transport().sharded()->router().journal_snapshot();
  ASSERT_EQ(journal.size(), 1u);
  EXPECT_EQ(journal[0].state, shard::RenameRecord::State::kCommitted);
  EXPECT_TRUE(fs.transport().sharded()->router().pending_renames().empty());
}

TEST(ShardedRename, FaultBetweenPhasesRollsBackWithoutOrphan) {
  core::ClusterConfig cfg = sharded_cfg(3, shard::Policy::kSubtree);
  cfg.rpc.inject_faults = true;
  core::ParallelFileSystem fs(cfg);
  ASSERT_TRUE(fs.rpc().mkdir("src"));
  ASSERT_TRUE(fs.rpc().mkdir("dst"));
  ASSERT_TRUE(fs.rpc().create("src/f"));
  auto* sharded = fs.transport().sharded();
  ASSERT_NE(sharded, nullptr);

  // A cross-shard rename sends resolve, create, unlink through the fault
  // layer in that order; let two through and drop the third — the protocol
  // dies exactly between create-on-target and tombstone-on-source.
  fs.transport().fault()->arm({.drop_after = 2, .drop_count = 1});
  auto client = fs.connect(ClientId{1});
  auto moved = client.rename("src/f", "dst/f");
  ASSERT_FALSE(moved);
  EXPECT_EQ(moved.error(), Errc::kIo);
  fs.transport().fault()->disarm();

  // Half-done: the source entry MUST remain resolvable ...
  EXPECT_TRUE(fs.rpc().stat("src/f").ok());
  // ... and the journal knows phase 1 landed but phase 2 did not.
  ASSERT_EQ(sharded->router().pending_renames().size(), 1u);
  EXPECT_EQ(sharded->stats().rename_failures, 1u);

  // Recovery unlinks the phase-1 copy on the target shard: no orphan inode
  // is left behind and the namespace is back to the pre-rename state.
  EXPECT_EQ(sharded->recover(), 1u);
  EXPECT_TRUE(sharded->router().pending_renames().empty());
  EXPECT_TRUE(fs.rpc().stat("src/f").ok());
  EXPECT_EQ(fs.rpc().stat("dst/f").error(), Errc::kNotFound);
  for (std::size_t s = 0; s < fs.mds_shards(); ++s) {
    EXPECT_TRUE(fs.mds(s).fs().layout().verify().ok());
  }

  // With the fault gone, the retry completes the move.
  auto retried = client.rename("src/f", "dst/f");
  ASSERT_TRUE(retried);
  EXPECT_TRUE(fs.rpc().stat("dst/f").ok());
  EXPECT_EQ(fs.rpc().stat("src/f").error(), Errc::kNotFound);
  EXPECT_EQ(sharded->stats().renames_recovered, 1u);
}

// --- observability ----------------------------------------------------------

TEST(ShardedObservability, MetricsAndSpansExport) {
  core::ParallelFileSystem fs(sharded_cfg(4, shard::Policy::kHash));
  obs::SpanCollector spans;
  fs.set_spans(&spans);
  ASSERT_TRUE(fs.rpc().mkdir("m"));
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(fs.rpc().create("m/f" + std::to_string(i)));
  }
  (void)fs.rpc().readdir_stats("m");
  fs.set_spans(nullptr);

  obs::MetricsRegistry reg;
  fs.export_metrics(reg);
  const std::string json = reg.to_json().dump(0);
  EXPECT_NE(json.find("\"shard.0.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.3.ops\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.fanout\""), std::string::npos);
  EXPECT_NE(json.find("\"shard.imbalance\""), std::string::npos);
  // Multi-shard mounts export per-shard MDS metrics.
  EXPECT_NE(json.find("\"mds.0."), std::string::npos);

  // The routed metadata calls recorded rpc.shard span phases.
  obs::MetricsRegistry span_reg;
  spans.export_metrics(span_reg);
  const std::string span_json = span_reg.to_json().dump(0);
  EXPECT_NE(span_json.find("span.rpc.shard"), std::string::npos);
}

}  // namespace
}  // namespace mif
