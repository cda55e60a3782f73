// QUEL-style statement operators over relations.
//
// The paper implements its algorithms as EQUEL programs whose statements are
// RETRIEVE (select), REPLACE, APPEND, and DELETE. These free functions are
// the corresponding operators; each is one "statement". In the paper's
// statement-at-a-time execution model the caller evicts the buffer pool
// between statements so every statement's block accesses are charged,
// exactly as the cost model assumes.
#pragma once

#include <functional>
#include <vector>

#include "relational/relation.h"

namespace atis::relational {

/// Row tests and edits run on the packed bytes (see RowView): a statement
/// decodes only the rows its predicate keeps, and REPLACE writes the
/// changed fields in place on the page.
using Predicate = std::function<bool(const RowView&)>;
using Updater = Relation::RowEdit;

struct MatchedTuple {
  storage::RecordId rid;
  Tuple tuple;
};

/// RETRIEVE via full scan: all tuples satisfying `pred` (nullptr = all).
Result<std::vector<MatchedTuple>> SelectScan(const Relation& rel,
                                             const Predicate& pred);

/// REPLACE: scans for the rows satisfying `pred`, then applies `update` to
/// each in place (Relation::EditAll). Two-phase, so the write pass never
/// meets a row it already rewrote. Returns the number of rows replaced.
Result<size_t> Replace(Relation* rel, const Predicate& pred,
                       const Updater& update);

/// APPEND: inserts one tuple.
Status Append(Relation* rel, const Tuple& tuple);

}  // namespace atis::relational
