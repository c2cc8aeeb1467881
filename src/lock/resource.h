// Lockable resource identifiers.
//
// locktune locks at two granularities: tables and rows (DB2 LUW does not use
// page locks for data). A row resource is (table, row) so escalation can
// find all of an application's row locks on one table.
#ifndef LOCKTUNE_LOCK_RESOURCE_H_
#define LOCKTUNE_LOCK_RESOURCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace locktune {

using TableId = int32_t;

enum class ResourceKind : uint8_t {
  kTable = 0,
  kRow = 1,
};

struct ResourceId {
  ResourceKind kind = ResourceKind::kTable;
  TableId table = 0;
  int64_t row = 0;  // 0 for table resources

  friend bool operator==(const ResourceId& a, const ResourceId& b) {
    return a.kind == b.kind && a.table == b.table && a.row == b.row;
  }

  // Debug form, e.g. "tab(3)" / "row(3,17)".
  std::string ToString() const;
};

inline ResourceId TableResource(TableId table) {
  return ResourceId{ResourceKind::kTable, table, 0};
}

inline ResourceId RowResource(TableId table, int64_t row) {
  return ResourceId{ResourceKind::kRow, table, row};
}

struct ResourceIdHash {
  size_t operator()(const ResourceId& r) const {
    // 64-bit mix of (kind, table, row); splitmix-style finalizer.
    uint64_t h = static_cast<uint64_t>(r.row) * 0x9E3779B97F4A7C15ULL;
    h ^= (static_cast<uint64_t>(static_cast<uint32_t>(r.table)) << 1) |
         static_cast<uint64_t>(r.kind);
    h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9ULL;
    h = (h ^ (h >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<size_t>(h ^ (h >> 31));
  }
};

// The lock table's nodes and the per-application held lists store a
// resource as one key word: 24 table bits, then the kind bit, then 39 row
// bits. Catalog::AddTable keeps table ids below kMaxPackedTables, and the
// lock manager's entry points check every resource with FitsPackedKey
// before it is packed.
inline constexpr int kPackedRowBits = 39;
inline constexpr int64_t kMaxPackedTables = int64_t{1} << 24;
inline constexpr int64_t kMaxPackedRows = int64_t{1} << kPackedRowBits;

// True when 0 <= table < 2^24 and 0 <= row < 2^39.
inline bool FitsPackedKey(const ResourceId& r) {
  return static_cast<uint32_t>(r.table) < kMaxPackedTables &&
         static_cast<uint64_t>(r.row) < kMaxPackedRows;
}

// `r` as a key word. Precondition: FitsPackedKey(r).
inline uint64_t PackResource(const ResourceId& r) {
  return (static_cast<uint64_t>(r.table) << (kPackedRowBits + 1)) |
         (static_cast<uint64_t>(r.kind) << kPackedRowBits) |
         static_cast<uint64_t>(r.row);
}

inline TableId PackedTable(uint64_t key) {
  return static_cast<TableId>(key >> (kPackedRowBits + 1));
}

inline ResourceKind PackedKind(uint64_t key) {
  return static_cast<ResourceKind>((key >> kPackedRowBits) & 1);
}

inline ResourceId UnpackResource(uint64_t key) {
  return ResourceId{PackedKind(key), PackedTable(key),
                    static_cast<int64_t>(key & (kMaxPackedRows - 1))};
}

}  // namespace locktune

#endif  // LOCKTUNE_LOCK_RESOURCE_H_
