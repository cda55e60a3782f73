// QUEL-style statement operators over relations.
//
// The paper implements its algorithms as EQUEL programs whose statements are
// RETRIEVE (select), REPLACE, APPEND, and DELETE. These free functions are
// the corresponding operators; each is one "statement". In the paper's
// statement-at-a-time execution model the caller evicts the buffer pool
// between statements so every statement's block accesses are charged,
// exactly as the cost model assumes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "relational/relation.h"
#include "util/function_ref.h"

namespace atis::relational {

/// Row tests and edits run on the packed bytes (see RowView): a statement
/// copies out only the rows its predicate keeps, and REPLACE writes the
/// changed fields in place on the page. An empty predicate matches every
/// row.
using Predicate = FunctionRef<bool(const RowView&)>;
using Updater = Relation::RowEdit;

/// RETRIEVE via full scan: appends the packed bytes of every row
/// satisfying `pred` to `out`, schema().tuple_size() bytes per row in scan
/// order, and returns the number of rows appended.
Result<size_t> SelectScan(const Relation& rel, Predicate pred,
                          std::vector<uint8_t>* out);

/// REPLACE: scans for the rows satisfying `pred`, then applies `update` to
/// each in place (Relation::EditAll). Two-phase, so the write pass never
/// meets a row it already rewrote. Returns the number of rows replaced.
Result<size_t> Replace(Relation* rel, Predicate pred, Updater update);

/// APPEND: inserts one packed row.
Status Append(Relation* rel, std::span<const uint8_t> row);

}  // namespace atis::relational
