#include "dfs/mini_dfs.h"

#include <gtest/gtest.h>

#include <set>

#include "common/hash.h"
#include "common/random.h"
#include "mapreduce/fault.h"

namespace spq::dfs {
namespace {

std::vector<uint8_t> RandomBytes(std::size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint8_t> data(n);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextUint32(256));
  return data;
}

TEST(MiniDfsTest, WriteReadRoundTrip) {
  MiniDfs dfs({.num_datanodes = 4, .block_size = 100, .replication = 2});
  auto data = RandomBytes(1234, 7);
  ASSERT_TRUE(dfs.WriteFile("f", data).ok());
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(MiniDfsTest, EmptyFileRoundTrip) {
  MiniDfs dfs({.num_datanodes = 3, .block_size = 64, .replication = 3});
  ASSERT_TRUE(dfs.WriteFile("empty", {}).ok());
  auto read = dfs.ReadFile("empty");
  ASSERT_TRUE(read.ok());
  EXPECT_TRUE(read->empty());
  auto meta = dfs.GetMetadata("empty");
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->blocks.size(), 1u);  // one empty block, no special case
}

TEST(MiniDfsTest, FilesSplitIntoBlockSizedBlocks) {
  MiniDfs dfs({.num_datanodes = 4, .block_size = 100, .replication = 1});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(250, 1)).ok());
  auto meta = dfs.GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  ASSERT_EQ(meta->blocks.size(), 3u);
  EXPECT_EQ(meta->blocks[0].length, 100u);
  EXPECT_EQ(meta->blocks[1].length, 100u);
  EXPECT_EQ(meta->blocks[2].length, 50u);
  EXPECT_EQ(meta->size, 250u);
}

TEST(MiniDfsTest, ReplicasLandOnDistinctNodes) {
  MiniDfs dfs({.num_datanodes = 8, .block_size = 50, .replication = 3});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(500, 2)).ok());
  auto meta = dfs.GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  for (const auto& block : meta->blocks) {
    std::set<NodeId> nodes(block.replicas.begin(), block.replicas.end());
    EXPECT_EQ(nodes.size(), 3u) << "block " << block.block;
    for (NodeId n : nodes) {
      EXPECT_TRUE(dfs.datanode(n).Holds(block.block));
    }
  }
}

TEST(MiniDfsTest, WriteOnceSemantics) {
  MiniDfs dfs({.num_datanodes = 3});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(10, 3)).ok());
  EXPECT_TRUE(dfs.WriteFile("f", RandomBytes(10, 4)).IsInvalidArgument());
}

TEST(MiniDfsTest, ReadMissingFileIsNotFound) {
  MiniDfs dfs;
  EXPECT_TRUE(dfs.ReadFile("nope").status().IsNotFound());
  EXPECT_TRUE(dfs.GetMetadata("nope").status().IsNotFound());
}

TEST(MiniDfsTest, ReadBlockOutOfRange) {
  MiniDfs dfs({.num_datanodes = 3, .block_size = 100});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(50, 5)).ok());
  EXPECT_TRUE(dfs.ReadBlock("f", 1).status().IsOutOfRange());
}

TEST(MiniDfsTest, SurvivesReplicationMinusOneFailures) {
  MiniDfs dfs({.num_datanodes = 5, .block_size = 64, .replication = 3,
               .seed = 9});
  auto data = RandomBytes(1000, 6);
  ASSERT_TRUE(dfs.WriteFile("f", data).ok());
  // Kill two nodes — any block still has at least one live replica.
  dfs.datanode(0).Kill();
  dfs.datanode(1).Kill();
  EXPECT_EQ(dfs.alive_datanodes(), 3u);
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
}

TEST(MiniDfsTest, AllReplicasDeadIsIOError) {
  MiniDfs dfs({.num_datanodes = 3, .block_size = 64, .replication = 2});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(32, 7)).ok());
  for (NodeId n = 0; n < 3; ++n) dfs.datanode(n).Kill();
  EXPECT_TRUE(dfs.ReadFile("f").status().IsIOError());
}

TEST(MiniDfsTest, RestartedNodeServesAgain) {
  MiniDfs dfs({.num_datanodes = 3, .block_size = 64, .replication = 3});
  auto data = RandomBytes(128, 8);
  ASSERT_TRUE(dfs.WriteFile("f", data).ok());
  for (NodeId n = 0; n < 3; ++n) dfs.datanode(n).Kill();
  dfs.datanode(1).Restart();
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
}

TEST(MiniDfsTest, WriteFailsWithoutEnoughLiveNodes) {
  MiniDfs dfs({.num_datanodes = 3, .replication = 3});
  dfs.datanode(2).Kill();
  EXPECT_TRUE(dfs.WriteFile("f", RandomBytes(10, 9)).IsIOError());
}

TEST(MiniDfsTest, PlacementBalancesLoad) {
  MiniDfs dfs({.num_datanodes = 4, .block_size = 10, .replication = 1,
               .seed = 3});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(400, 10)).ok());  // 40 blocks
  // Least-loaded placement: every node ends up with ~10 blocks.
  for (NodeId n = 0; n < 4; ++n) {
    EXPECT_NEAR(static_cast<double>(dfs.datanode(n).num_blocks()), 10.0, 1.0);
  }
}

// ----- per-block CRC-32C: corruption is detected, never served -----

TEST(MiniDfsTest, CorruptReplicaDetectedAndFailedOver) {
  MiniDfs dfs({.num_datanodes = 4, .block_size = 64, .replication = 2,
               .seed = 3});
  auto data = RandomBytes(200, 21);
  ASSERT_TRUE(dfs.WriteFile("f", data).ok());
  auto meta = dfs.GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  for (const auto& block : meta->blocks) {
    ASSERT_TRUE(
        dfs.datanode(block.replicas[0]).CorruptReplica(block.block, 5).ok());
  }
  // Every read of a corrupted replica fails its CRC and fails over to the
  // intact copy — the data comes back bit-exact.
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_GE(dfs.corrupt_replicas_detected(), 1u);
}

TEST(MiniDfsTest, AllReplicasCorruptIsIOErrorNeverGarbage) {
  MiniDfs dfs({.num_datanodes = 3, .block_size = 128, .replication = 2});
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(100, 22)).ok());
  auto meta = dfs.GetMetadata("f");
  ASSERT_TRUE(meta.ok());
  for (NodeId node : meta->blocks[0].replicas) {
    ASSERT_TRUE(dfs.datanode(node).CorruptReplica(meta->blocks[0].block,
                                                  0).ok());
  }
  EXPECT_TRUE(dfs.ReadFile("f").status().IsIOError());
  EXPECT_TRUE(dfs.ReadBlock("f", 0).status().IsIOError());
  EXPECT_GE(dfs.corrupt_replicas_detected(), 2u);
}

TEST(MiniDfsTest, InjectedStorageFaultsDetectedByChecksums) {
  DfsOptions options{.num_datanodes = 6, .block_size = 128,
                     .replication = 3, .seed = 4};
  options.faults.storage_fault_prob = 0.3;
  options.faults.seed = 77;
  MiniDfs dfs(options);
  auto data = RandomBytes(1000, 23);  // 8 blocks, 24 replica writes/reads
  ASSERT_TRUE(dfs.WriteFile("f", data).ok());
  // Deterministic for this seed: faults were injected on some replicas,
  // every one was caught by the length/CRC check, and triple replication
  // kept each block readable — so the payload survives bit-exact.
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(*read, data);
  EXPECT_GT(dfs.faulty_replica_writes() + dfs.corrupt_replicas_detected(),
            0u);
}

// Every read-fault kind, injected on the view path (ReadFileView serves a
// single-block file straight from the replica): a faulted replica read
// must fail over, and whatever comes back — view, copy or block — is the
// bytes that were written, or an IOError. Never corrupt bytes.
TEST(MiniDfsTest, InjectedReadFaultsOnViewPathFailOverNeverCorrupt) {
  DfsOptions options{.num_datanodes = 6, .block_size = 4096,
                     .replication = 3, .seed = 5};
  options.faults.storage_fault_prob = 0.4;
  options.faults.seed = 91;
  MiniDfs dfs(options);
  std::vector<std::vector<uint8_t>> files;
  for (int i = 0; i < 60; ++i) {
    files.push_back(RandomBytes(1 + 37 * i, 100 + i));
    ASSERT_TRUE(dfs.WriteFile("f" + std::to_string(i), files.back()).ok());
  }
  // The read-site hash of mini_dfs.cc, to learn which kind each replica
  // read gets.
  auto read_fault = [&](BlockId block, NodeId node) {
    const uint64_t site =
        HashCombine(Mix64(block), Mix64(static_cast<uint64_t>(node) << 1));
    return mapreduce::StorageFaultAt(options.faults, site);
  };
  std::set<mapreduce::StorageFaultKind> kinds_failed_over;
  uint64_t served = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string name = "f" + std::to_string(i);
    const uint64_t detected_before = dfs.corrupt_replicas_detected();
    auto view = dfs.ReadFileView(name);
    auto meta = dfs.GetMetadata(name);
    ASSERT_TRUE(meta.ok());
    ASSERT_EQ(meta->blocks.size(), 1u);
    const auto first_kind =
        read_fault(meta->blocks[0].block, meta->blocks[0].replicas[0]);
    if (!view.ok()) {
      EXPECT_TRUE(view.status().IsIOError()) << view.status().ToString();
      EXPECT_TRUE(dfs.ReadFile(name).status().IsIOError());
      continue;
    }
    ++served;
    ASSERT_TRUE(view->block_crc().has_value());
    EXPECT_EQ(*view->block_crc(), meta->blocks[0].crc32c);
    EXPECT_EQ(std::vector<uint8_t>(view->data(), view->data() + view->size()),
              files[i])
        << name;
    auto copy = dfs.ReadFile(name);
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(*copy, files[i]) << name;
    auto block = dfs.ReadBlock(name, 0);
    ASSERT_TRUE(block.ok());
    EXPECT_EQ(*block, files[i]) << name;
    if (first_kind != mapreduce::StorageFaultKind::kNone) {
      // The first replica's read was faulted, yet the right bytes came
      // back: the fault was detected and the read failed over.
      EXPECT_GT(dfs.corrupt_replicas_detected(), detected_before) << name;
      kinds_failed_over.insert(first_kind);
    }
  }
  EXPECT_GT(served, 0u);
  EXPECT_EQ(kinds_failed_over.size(), 3u)
      << "every read-fault kind should have been exercised";
}

TEST(MiniDfsTest, ListAndDelete) {
  MiniDfs dfs;
  ASSERT_TRUE(dfs.WriteFile("a", RandomBytes(5, 11)).ok());
  ASSERT_TRUE(dfs.WriteFile("b", RandomBytes(5, 12)).ok());
  EXPECT_EQ(dfs.ListFiles().size(), 2u);
  EXPECT_TRUE(dfs.FileExists("a"));
  ASSERT_TRUE(dfs.DeleteFile("a").ok());
  EXPECT_FALSE(dfs.FileExists("a"));
  EXPECT_TRUE(dfs.DeleteFile("a").IsNotFound());
  EXPECT_EQ(dfs.ListFiles().size(), 1u);
}

TEST(MiniDfsTest, ReplicationClampedToClusterSize) {
  MiniDfs dfs({.num_datanodes = 2, .replication = 5});
  EXPECT_EQ(dfs.options().replication, 2u);
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(10, 13)).ok());
}

TEST(MiniDfsTest, DegenerateOptionsAreSanitized) {
  MiniDfs dfs({.num_datanodes = 0, .block_size = 0, .replication = 0});
  EXPECT_EQ(dfs.num_datanodes(), 1u);
  ASSERT_TRUE(dfs.WriteFile("f", RandomBytes(3, 14)).ok());
  auto read = dfs.ReadFile("f");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->size(), 3u);
}

}  // namespace
}  // namespace spq::dfs
