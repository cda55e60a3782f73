// QUEL-style statement operators over relations.
//
// The paper implements its algorithms as EQUEL programs whose statements are
// RETRIEVE (select), REPLACE, APPEND, and DELETE. These free functions are
// the corresponding operators; each is one "statement". In the paper's
// statement-at-a-time execution model the caller evicts the buffer pool
// between statements (see ExecutionContext) so every statement's block
// accesses are charged, exactly as the cost model assumes.
#pragma once

#include <functional>
#include <optional>
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

/// RETRIEVE via index: tuples with `field` == `key`, optionally filtered.
Result<std::vector<MatchedTuple>> SelectIndex(const Relation& rel,
                                              std::string_view field,
                                              int64_t key,
                                              const Predicate& pred = {});

/// REPLACE: scans for the rows satisfying `pred`, then applies `update` to
/// each in place (Relation::EditAll). Two-phase, so the write pass never
/// meets a row it already rewrote. Returns the number of rows replaced.
Result<size_t> Replace(Relation* rel, const Predicate& pred,
                       const Updater& update);

/// APPEND: inserts one tuple.
Status Append(Relation* rel, const Tuple& tuple);

/// DELETE: removes all tuples satisfying `pred`; returns how many.
Result<size_t> DeleteWhere(Relation* rel, const Predicate& pred);

/// Aggregate: COUNT of tuples satisfying `pred` (scan).
Result<size_t> CountWhere(const Relation& rel, const Predicate& pred);

/// Aggregate-select: the tuple minimizing `key` among those satisfying
/// `pred`; nullopt when none match. Ties break toward the first in scan
/// order (deterministic). This implements "select u from frontierSet with
/// minimum C(s,u) [+ f(u,d)]".
Result<std::optional<MatchedTuple>> MinBy(
    const Relation& rel, const Predicate& pred,
    const std::function<double(const RowView&)>& key);

/// Statement-at-a-time execution context: wraps the buffer pool used by a
/// sequence of statements and evicts it at statement boundaries when
/// `statement_at_a_time` is on (the paper's INGRES single-user model).
class ExecutionContext {
 public:
  ExecutionContext(storage::BufferPool* pool, bool statement_at_a_time = true)
      : pool_(pool), statement_at_a_time_(statement_at_a_time) {}

  /// Call after each logical statement.
  Status EndStatement() {
    if (statement_at_a_time_) return pool_->EvictAll();
    return Status::OK();
  }

  storage::BufferPool* pool() const { return pool_; }
  bool statement_at_a_time() const { return statement_at_a_time_; }

 private:
  storage::BufferPool* pool_;
  bool statement_at_a_time_;
};

}  // namespace atis::relational
