// Per-directory name index.
//
// §IV-C: scalable parallel file systems keep a fast in-memory index (Htree /
// Btree over name hashes) per metadata server; MiF's embedded layout is
// orthogonal to it.  We model two lookup disciplines because the aging
// experiment (Fig. 9) contrasts them: Lustre's ext4 MDS has Htree lookup
// (O(1) dirent-block probes), Redbud's ext3 MDS does a linear dirent scan.
// The index returns which *entry ordinal* a name maps to; the directory
// layout translates that to blocks, and the discipline decides how many
// blocks a cold lookup must touch.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "util/types.hpp"

namespace mif::mfs {

enum class LookupDiscipline {
  kLinearScan,  // ext3: read dirent blocks in order until the name is found
  kHtree,       // ext4/Lustre: hash straight to the right block
};

/// FNV-1a, stable across runs — also shard::hash_of, the hash placement of
/// a multi-MDS mount.
u64 name_hash(std::string_view name);

class NameIndex {
 public:
  /// Insert a name → ordinal binding.  Fails (returns false) on duplicates.
  bool insert(std::string_view name, u64 ordinal);

  std::optional<u64> find(std::string_view name) const;

  bool erase(std::string_view name);

  std::size_t size() const { return map_.size(); }

  /// Number of dirent blocks a cold lookup touches under the given
  /// discipline, for a directory whose entries span `blocks` dirent blocks
  /// and where the name sits in block `found_in` (0-based).
  static u64 lookup_block_cost(LookupDiscipline d, u64 blocks, u64 found_in);

 private:
  std::unordered_map<std::string, u64> map_;
};

}  // namespace mif::mfs
