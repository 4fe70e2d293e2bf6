#ifndef SPQ_DFS_MINI_DFS_H_
#define SPQ_DFS_MINI_DFS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/statusor.h"
#include "dfs/block.h"
#include "dfs/datanode.h"
#include "mapreduce/fault.h"

namespace spq::dfs {

/// \brief Cluster configuration (the HDFS knobs of Section 2.1 / 7.1:
/// block size and replication factor 3 in the paper's deployment).
struct DfsOptions {
  uint32_t num_datanodes = 16;
  uint64_t block_size = 4 << 20;  // 4 MiB (scaled down from HDFS's 128 MB)
  uint32_t replication = 3;
  uint64_t seed = 1;  // replica placement randomness
  /// Deterministic storage fault injection (FaultSpec::storage_fault_prob):
  /// per-replica torn/corrupt writes and short/corrupt reads, keyed by
  /// (block, node, direction). Every injected fault is detected by the
  /// per-block CRC-32C + length check and handled by replica failover; a
  /// block is unreadable only when every replica is faulted.
  mapreduce::FaultSpec faults;
};

/// \brief A whole file read through replica verification
/// (MiniDfs::ReadFileView), for callers that decode the bytes in place.
///
/// A single-block file is a view of the replica that passed the length +
/// CRC-32C check — no copy. The view stays valid while its MiniDfs lives:
/// a DataNode never moves, frees or changes a stored replica after Put
/// (DataNode::CorruptReplica, a test hook, is the one exception; tests call
/// it only while no read is in flight). A multi-block file is assembled
/// into an owned buffer, one copy.
class FileView {
 public:
  const uint8_t* data() const {
    return block_crc_.has_value() ? view_ : owned_.data();
  }
  std::size_t size() const {
    return block_crc_.has_value() ? view_size_ : owned_.size();
  }
  /// Single-block files: the CRC-32C the block was written with, which the
  /// bytes were verified against. nullopt for multi-block files.
  const std::optional<uint32_t>& block_crc() const { return block_crc_; }

 private:
  friend class MiniDfs;
  const uint8_t* view_ = nullptr;
  std::size_t view_size_ = 0;
  std::optional<uint32_t> block_crc_;
  std::vector<uint8_t> owned_;
};

/// \brief A single-process simulation of HDFS: files are split into
/// blocks, blocks are replicated onto `replication` distinct DataNodes,
/// and a NameNode-style metadata map tracks locations.
///
/// Write-once/read-many semantics like HDFS: files cannot be overwritten
/// or appended. Reads fail over between replicas, so data survives up to
/// replication-1 node failures. Used by the io module to host datasets and
/// by tests to exercise the fault-tolerance story the paper's platform
/// provides.
///
/// Thread safety: the file API (WriteFile/ReadFile/ReadFileView/ReadBlock/
/// GetMetadata/FileExists/ListFiles/DeleteFile) is guarded by one mutex,
/// so concurrent lazy cell restores may run beside a Checkpoint writing
/// new files. Writes hold it for the whole write. Reads hold it only to
/// look up the file's metadata and its replicas' storage; verifying and
/// copying the bytes runs outside it. That is safe because replica bytes
/// never change after Put, and DataNode's unordered_map keeps each stored
/// replica at a fixed address while other blocks are inserted. The
/// `datanode()` accessors hand out raw node references for test-side
/// fault injection (kill/corrupt) and are NOT covered by the lock: tests
/// mutate nodes only while no concurrent file I/O is in flight.
class MiniDfs {
 public:
  explicit MiniDfs(DfsOptions options = {});

  MiniDfs(const MiniDfs&) = delete;
  MiniDfs& operator=(const MiniDfs&) = delete;

  /// Writes a file (write-once). InvalidArgument if it exists, IOError if
  /// fewer than `replication` nodes are alive.
  Status WriteFile(const std::string& name, const std::vector<uint8_t>& data);

  /// Reads a whole file back, failing over between replicas per block.
  /// NotFound for unknown files, IOError when some block has no live
  /// replica.
  StatusOr<std::vector<uint8_t>> ReadFile(const std::string& name) const;

  /// ReadFile without the copy for single-block files; see FileView.
  StatusOr<FileView> ReadFileView(const std::string& name) const;

  /// Reads one block of a file (the unit a map task consumes).
  StatusOr<std::vector<uint8_t>> ReadBlock(const std::string& name,
                                           std::size_t block_index) const;

  /// File metadata (block boundaries + replica locations), as a MapReduce
  /// scheduler would query it to build locality-aware splits.
  StatusOr<FileMetadata> GetMetadata(const std::string& name) const;

  bool FileExists(const std::string& name) const;
  std::vector<std::string> ListFiles() const;
  Status DeleteFile(const std::string& name);

  uint32_t num_datanodes() const {
    return static_cast<uint32_t>(nodes_.size());
  }
  DataNode& datanode(NodeId id) { return nodes_[id]; }
  const DataNode& datanode(NodeId id) const { return nodes_[id]; }
  const DfsOptions& options() const { return options_; }

  /// Count of nodes currently alive.
  uint32_t alive_datanodes() const;

  /// Replica reads that failed length/CRC verification (injected faults,
  /// DataNode::CorruptReplica, torn replica writes). Each detection is a
  /// replica failover, not served garbage. Atomic: reads may run from
  /// parallel reduce tasks (cell-granular store recovery).
  uint64_t corrupt_replicas_detected() const {
    return corrupt_replicas_detected_.load(std::memory_order_relaxed);
  }
  /// Replica writes mutated by injected storage faults (torn or
  /// bit-flipped before reaching the node).
  uint64_t faulty_replica_writes() const {
    return faulty_replica_writes_.load(std::memory_order_relaxed);
  }

 private:
  /// Picks `replication` distinct live nodes, least-loaded first with a
  /// random tie-break (a simplification of HDFS placement). Caller holds
  /// `mu_`.
  StatusOr<std::vector<NodeId>> PlaceReplicas();

  /// One block's location with its replicas' storage looked up, so the
  /// bytes can be verified after `mu_` is released.
  struct PinnedBlock {
    BlockId block = 0;
    uint64_t length = 0;
    uint32_t crc32c = 0;
    std::vector<std::pair<NodeId, StatusOr<const std::vector<uint8_t>*>>>
        replicas;
  };
  /// Pins blocks [first, first + count) of `name` (count 0 = through the
  /// last block) under `mu_`.
  StatusOr<std::vector<PinnedBlock>> PinBlocks(const std::string& name,
                                               std::size_t first,
                                               std::size_t count) const;
  /// Replica failover over a pinned block: returns the first replica whose
  /// bytes match the recorded length and CRC-32C. Injected read faults
  /// apply to a copy of the replica, which then fails verification.
  StatusOr<const std::vector<uint8_t>*> VerifyBlock(
      const PinnedBlock& pinned) const;

  DfsOptions options_;
  /// Guards files_, next_block_, rng_, and node block maps reached through
  /// the file API. Counters below stay atomic so accessors need no lock.
  mutable std::mutex mu_;
  std::vector<DataNode> nodes_;
  std::map<std::string, FileMetadata> files_;  // the "NameNode"
  BlockId next_block_ = 1;
  mutable Rng rng_;
  mutable std::atomic<uint64_t> corrupt_replicas_detected_{0};
  std::atomic<uint64_t> faulty_replica_writes_{0};
};

}  // namespace spq::dfs

#endif  // SPQ_DFS_MINI_DFS_H_
