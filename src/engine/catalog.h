// Table catalog for the simulated database.
//
// The paper's testbed used a combined TPC-C and TPC-H schema in a single
// database (§5). The catalog carries just what lock workloads need: table
// identities and row counts (lock resources are (table, row) pairs).
#ifndef LOCKTUNE_ENGINE_CATALOG_H_
#define LOCKTUNE_ENGINE_CATALOG_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "lock/resource.h"

namespace locktune {

struct TableInfo {
  TableId id = 0;
  std::string name;
  int64_t row_count = 0;
};

class Catalog {
 public:
  // Registers a table; names must be unique. Returns its TableId, or
  // INVALID_ARGUMENT once ids would reach kMaxPackedTables (2^24).
  [[nodiscard]] Result<TableId> AddTable(const std::string& name,
                                         int64_t row_count);

  const TableInfo& Get(TableId id) const;
  const TableInfo* FindByName(const std::string& name) const;
  int table_count() const { return static_cast<int>(tables_.size()); }
  const std::vector<TableInfo>& tables() const { return tables_; }

  // The combined TPC-C + TPC-H style schema the paper's experiments ran
  // against, scaled by `scale` (1.0 ≈ hundreds of thousands of rows in the
  // large tables; lock workloads only need row-identifier ranges).
  static Catalog TpccTpch(double scale = 1.0);

  // Table-name groups for workload routing.
  std::vector<TableId> TablesWithPrefix(const std::string& prefix) const;

 private:
  std::vector<TableInfo> tables_;
};

}  // namespace locktune

#endif  // LOCKTUNE_ENGINE_CATALOG_H_
