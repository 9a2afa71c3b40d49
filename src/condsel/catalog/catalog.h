// Catalog: the database instance handed to every other subsystem.
//
// Owns the tables (metadata + data) and the declared foreign keys. Exposes
// the same lookups a real system catalog would: table/column resolution by
// name, base cardinalities, and the foreign-key graph the workload
// generator draws join predicates from.

#pragma once

#include <string>
#include <vector>

#include "condsel/catalog/schema.h"
#include "condsel/common/status.h"
#include "condsel/storage/table.h"

namespace condsel {

class Catalog {
 public:
  // Registers a table and returns its id.
  TableId AddTable(Table table);

  void AddForeignKey(const ForeignKey& fk);

  int32_t num_tables() const { return static_cast<int32_t>(tables_.size()); }

  const Table& table(TableId id) const;
  Table& mutable_table(TableId id);

  const std::vector<ForeignKey>& foreign_keys() const {
    return foreign_keys_;
  }

  // Returns the table id for `name`, or kInvalidTableId.
  TableId FindTable(const std::string& name) const;

  // Whether `c` names an existing table and one of its columns. Inline:
  // the Estimator checks every column of every request against it.
  bool HasColumn(ColumnRef c) const {
    return c.table >= 0 && c.table < num_tables() && c.column >= 0 &&
           c.column < tables_[static_cast<size_t>(c.table)].num_columns();
  }

  // Resolves "table.column"; NOT_FOUND if either part is unknown.
  StatusOr<ColumnRef> TryResolveColumn(const std::string& table_name,
                                       const std::string& column_name) const;

  // Abort-on-unknown wrapper around TryResolveColumn, for call sites with
  // trusted (generated) names.
  ColumnRef ResolveColumn(const std::string& table_name,
                          const std::string& column_name) const;

  // |R1 x ... x Rk| for the given table ids (product of cardinalities,
  // saturating at the largest finite double instead of overflowing).
  double CartesianCardinality(const std::vector<TableId>& tables) const;

 private:
  std::vector<Table> tables_;
  std::vector<ForeignKey> foreign_keys_;
};

}  // namespace condsel

