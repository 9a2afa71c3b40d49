// A small SQL-ish parser producing canonical SPJ queries.
//
// Accepted grammar (keywords case-insensitive):
//
//   query  := SELECT COUNT(*) FROM table (, table)* WHERE pred (AND pred)*
//   pred   := col = col                      -- equi-join (different tables)
//           | col = INT | col != ...         -- (only =, ranges below)
//           | col < INT | col <= INT | col > INT | col >= INT
//           | col BETWEEN INT AND INT
//   col    := table.column
//
// Range predicates over the same column are *not* merged — each becomes
// one predicate, matching the paper's canonical form where every p_i is
// its own conjunct. Open-ended comparisons use the column's declared
// domain bounds for the missing endpoint.
//
// The parser reports errors by value (no exceptions): INVALID_ARGUMENT,
// with a message pointing at the offending token.

#pragma once

#include <string>

#include "condsel/catalog/catalog.h"
#include "condsel/common/status.h"
#include "condsel/query/query.h"

namespace condsel {

StatusOr<Query> ParseQuery(const Catalog& catalog, const std::string& sql);

}  // namespace condsel

