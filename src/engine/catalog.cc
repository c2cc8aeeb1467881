#include "engine/catalog.h"

#include "common/check.h"

namespace locktune {

Result<TableId> Catalog::AddTable(const std::string& name,
                                  int64_t row_count) {
  if (name.empty()) return Status::InvalidArgument("empty table name");
  if (row_count <= 0) {
    return Status::InvalidArgument("row_count must be positive");
  }
  if (FindByName(name) != nullptr) {
    return Status::AlreadyExists("table " + name + " already exists");
  }
  // Lock resources pack the table id into 24 bits (lock/resource.h).
  if (static_cast<int64_t>(tables_.size()) >= kMaxPackedTables) {
    return Status::InvalidArgument("table ids must stay below 2^24");
  }
  const TableId id = static_cast<TableId>(tables_.size());
  tables_.push_back({id, name, row_count});
  return id;
}

const TableInfo& Catalog::Get(TableId id) const {
  LOCKTUNE_DCHECK(id >= 0 && id < static_cast<TableId>(tables_.size()));
  return tables_[static_cast<size_t>(id)];
}

const TableInfo* Catalog::FindByName(const std::string& name) const {
  for (const TableInfo& t : tables_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

std::vector<TableId> Catalog::TablesWithPrefix(
    const std::string& prefix) const {
  std::vector<TableId> out;
  for (const TableInfo& t : tables_) {
    if (t.name.rfind(prefix, 0) == 0) out.push_back(t.id);
  }
  return out;
}

Catalog Catalog::TpccTpch(double scale) {
  LOCKTUNE_DCHECK(scale > 0.0);
  const auto rows = [scale](int64_t base) {
    const auto n = static_cast<int64_t>(static_cast<double>(base) * scale);
    return n < 1 ? 1 : n;
  };
  Catalog c;
  // TPC-C style OLTP tables.
  (void)c.AddTable("tpcc_warehouse", rows(100));
  (void)c.AddTable("tpcc_district", rows(1000));
  (void)c.AddTable("tpcc_customer", rows(300'000));
  (void)c.AddTable("tpcc_orders", rows(300'000));
  (void)c.AddTable("tpcc_order_line", rows(3'000'000));
  (void)c.AddTable("tpcc_stock", rows(1'000'000));
  (void)c.AddTable("tpcc_item", rows(100'000));
  (void)c.AddTable("tpcc_new_order", rows(90'000));
  (void)c.AddTable("tpcc_history", rows(300'000));
  // TPC-H style decision-support tables.
  (void)c.AddTable("tpch_lineitem", rows(6'000'000));
  (void)c.AddTable("tpch_orders", rows(1'500'000));
  (void)c.AddTable("tpch_customer", rows(150'000));
  (void)c.AddTable("tpch_part", rows(200'000));
  (void)c.AddTable("tpch_partsupp", rows(800'000));
  (void)c.AddTable("tpch_supplier", rows(10'000));
  (void)c.AddTable("tpch_nation", rows(25));
  (void)c.AddTable("tpch_region", rows(5));
  return c;
}

}  // namespace locktune
