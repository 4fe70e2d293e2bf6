#include "dfs/mini_dfs.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/hash.h"
#include "common/logging.h"

namespace spq::dfs {

namespace {

/// One hash per (block, replica, direction) naming a storage I/O site for
/// StorageFaultAt. Write faults are permanent per replica (the bad bytes
/// sit on the node); read faults are also deterministic per replica, so
/// failover — not blind retry — is the recovery mechanism, exactly like a
/// replica on a bad disk.
uint64_t ReplicaSite(BlockId block, NodeId node, bool write) {
  return HashCombine(Mix64(block), Mix64((static_cast<uint64_t>(node) << 1) |
                                         (write ? 1u : 0u)));
}

}  // namespace

MiniDfs::MiniDfs(DfsOptions options)
    : options_(options), rng_(options.seed) {
  if (options_.num_datanodes == 0) options_.num_datanodes = 1;
  if (options_.block_size == 0) options_.block_size = 1;
  if (options_.replication == 0) options_.replication = 1;
  options_.replication =
      std::min(options_.replication, options_.num_datanodes);
  nodes_.reserve(options_.num_datanodes);
  for (NodeId id = 0; id < options_.num_datanodes; ++id) {
    nodes_.emplace_back(id);
  }
}

uint32_t MiniDfs::alive_datanodes() const {
  uint32_t alive = 0;
  for (const auto& node : nodes_) {
    if (node.alive()) ++alive;
  }
  return alive;
}

StatusOr<std::vector<NodeId>> MiniDfs::PlaceReplicas() {
  // Candidates: live nodes, least loaded first; random tie-break via a
  // per-candidate random salt sorted alongside.
  struct Candidate {
    uint64_t load;
    uint64_t salt;
    NodeId id;
  };
  std::vector<Candidate> candidates;
  for (const auto& node : nodes_) {
    if (node.alive()) {
      candidates.push_back({node.stored_bytes(), rng_.NextUint64(), node.id()});
    }
  }
  if (candidates.size() < options_.replication) {
    return Status::IOError("not enough live datanodes for replication " +
                           std::to_string(options_.replication));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.load != b.load) return a.load < b.load;
              return a.salt < b.salt;
            });
  std::vector<NodeId> replicas;
  for (uint32_t i = 0; i < options_.replication; ++i) {
    replicas.push_back(candidates[i].id);
  }
  return replicas;
}

Status MiniDfs::WriteFile(const std::string& name,
                          const std::vector<uint8_t>& data) {
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(name) > 0) {
    return Status::InvalidArgument("file exists (HDFS is write-once): " +
                                   name);
  }
  FileMetadata meta;
  meta.size = data.size();
  // Split into blocks and replicate each; an empty file has one empty
  // block so that readers and split builders need no special case.
  std::size_t offset = 0;
  do {
    const std::size_t len = std::min<std::size_t>(
        options_.block_size, data.size() - offset);
    SPQ_ASSIGN_OR_RETURN(std::vector<NodeId> replicas, PlaceReplicas());
    BlockLocation location;
    location.block = next_block_++;
    location.length = len;
    location.replicas = replicas;
    std::vector<uint8_t> bytes(data.begin() + offset,
                               data.begin() + offset + len);
    location.crc32c = Crc32c(bytes);
    for (NodeId node : replicas) {
      // Injected write faults hit individual replicas: the bad bytes land
      // on the node and stay there, to be caught by the read-side verify.
      const uint64_t site = ReplicaSite(location.block, node, /*write=*/true);
      const auto kind = mapreduce::StorageFaultAt(options_.faults, site);
      if (kind != mapreduce::StorageFaultKind::kNone) {
        std::vector<uint8_t> faulty = bytes;
        if (mapreduce::CorruptImageForWrite(kind, site, &faulty)) {
          faulty_replica_writes_.fetch_add(1, std::memory_order_relaxed);
          SPQ_RETURN_NOT_OK(nodes_[node].Put(location.block,
                                             std::move(faulty)));
          continue;
        }
      }
      SPQ_RETURN_NOT_OK(nodes_[node].Put(location.block, bytes));
    }
    meta.blocks.push_back(std::move(location));
    offset += len;
  } while (offset < data.size());
  files_.emplace(name, std::move(meta));
  return Status::OK();
}

StatusOr<FileMetadata> MiniDfs::GetMetadata(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  return it->second;
}

StatusOr<std::vector<MiniDfs::PinnedBlock>> MiniDfs::PinBlocks(
    const std::string& name, std::size_t first, std::size_t count) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  const std::vector<BlockLocation>& blocks = it->second.blocks;
  if (first >= blocks.size()) {
    return Status::OutOfRange("block index " + std::to_string(first) +
                              " >= " + std::to_string(blocks.size()));
  }
  const std::size_t last =
      count == 0 ? blocks.size() : std::min(blocks.size(), first + count);
  std::vector<PinnedBlock> pinned(last - first);
  for (std::size_t i = first; i < last; ++i) {
    const BlockLocation& location = blocks[i];
    PinnedBlock& pin = pinned[i - first];
    pin.block = location.block;
    pin.length = location.length;
    pin.crc32c = location.crc32c;
    pin.replicas.reserve(location.replicas.size());
    for (NodeId node : location.replicas) {
      pin.replicas.emplace_back(node, nodes_[node].Get(location.block));
    }
  }
  return pinned;
}

StatusOr<const std::vector<uint8_t>*> MiniDfs::VerifyBlock(
    const PinnedBlock& pinned) const {
  // Replica failover: try each location until one serves the block AND its
  // bytes verify against the write-time length + CRC. A replica that fails
  // verification (torn/corrupted on the node, or an injected read fault)
  // is counted and skipped — corrupt bytes are never returned.
  Status last = Status::IOError("block has no replicas");
  for (const auto& [node, stored] : pinned.replicas) {
    if (!stored.ok()) {
      last = stored.status();
      continue;
    }
    const std::vector<uint8_t>& replica = **stored;
    const uint64_t site = ReplicaSite(pinned.block, node, /*write=*/false);
    const auto kind = mapreduce::StorageFaultAt(options_.faults, site);
    bool verified = true;
    std::size_t read_size = replica.size();
    if (kind != mapreduce::StorageFaultKind::kNone) {
      // The fault damages what this read returns, never the replica: apply
      // it to a copy and verify that.
      std::vector<uint8_t> faulty = replica;
      if (kind == mapreduce::StorageFaultKind::kShortRead &&
          !faulty.empty()) {
        faulty.resize(Mix64(site) % faulty.size());
      } else {
        mapreduce::CorruptImageForWrite(kind, site, &faulty);
      }
      read_size = faulty.size();
      verified = faulty.size() == pinned.length &&
                 Crc32c(faulty) == pinned.crc32c;
    }
    if (verified) {
      verified = replica.size() == pinned.length &&
                 Crc32c(replica) == pinned.crc32c;
      read_size = replica.size();
    }
    if (!verified) {
      corrupt_replicas_detected_.fetch_add(1, std::memory_order_relaxed);
      SPQ_LOG_WARN << "block " << pinned.block << " replica on node " << node
                   << " failed checksum verification (" << read_size << "/"
                   << pinned.length << " bytes); failing over";
      last = Status::IOError("replica checksum mismatch for block " +
                             std::to_string(pinned.block));
      continue;
    }
    return &replica;
  }
  return Status::IOError("all replicas unavailable for block " +
                         std::to_string(pinned.block) + ": " +
                         last.ToString());
}

StatusOr<std::vector<uint8_t>> MiniDfs::ReadBlock(
    const std::string& name, std::size_t block_index) const {
  SPQ_ASSIGN_OR_RETURN(std::vector<PinnedBlock> pinned,
                       PinBlocks(name, block_index, 1));
  SPQ_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes,
                       VerifyBlock(pinned.front()));
  return *bytes;
}

StatusOr<FileView> MiniDfs::ReadFileView(const std::string& name) const {
  SPQ_ASSIGN_OR_RETURN(std::vector<PinnedBlock> pinned,
                       PinBlocks(name, 0, 0));
  FileView view;
  if (pinned.size() == 1) {
    SPQ_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes,
                         VerifyBlock(pinned.front()));
    view.view_ = bytes->data();
    view.view_size_ = bytes->size();
    view.block_crc_ = pinned.front().crc32c;
    return view;
  }
  uint64_t size = 0;
  for (const PinnedBlock& pin : pinned) size += pin.length;
  view.owned_.reserve(size);
  for (const PinnedBlock& pin : pinned) {
    SPQ_ASSIGN_OR_RETURN(const std::vector<uint8_t>* bytes, VerifyBlock(pin));
    view.owned_.insert(view.owned_.end(), bytes->begin(), bytes->end());
  }
  return view;
}

StatusOr<std::vector<uint8_t>> MiniDfs::ReadFile(
    const std::string& name) const {
  SPQ_ASSIGN_OR_RETURN(FileView view, ReadFileView(name));
  if (!view.block_crc_.has_value()) return std::move(view.owned_);
  return std::vector<uint8_t>(view.data(), view.data() + view.size());
}

bool MiniDfs::FileExists(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(name) > 0;
}

std::vector<std::string> MiniDfs::ListFiles() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(files_.size());
  for (const auto& [name, meta] : files_) names.push_back(name);
  return names;
}

Status MiniDfs::DeleteFile(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(name);
  if (it == files_.end()) return Status::NotFound("no such file: " + name);
  // Note: block replicas stay on the nodes (like lazily-reclaimed HDFS
  // blocks); the metadata removal makes them unreachable.
  files_.erase(it);
  return Status::OK();
}

}  // namespace spq::dfs
