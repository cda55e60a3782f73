#include "relational/operators.h"

#include "obs/trace.h"

namespace atis::relational {

Result<size_t> SelectScan(const Relation& rel, Predicate pred,
                          std::vector<uint8_t>* out) {
  obs::ScopedSpan span("select-scan", "operator");
  span.Tag("relation", rel.name());
  size_t matched = 0;
  Relation::Cursor c = rel.Scan();
  for (; c.Valid(); c.Next()) {
    const RowView row = c.row();
    if (pred && !pred(row)) continue;
    const std::span<const uint8_t> bytes = row.bytes();
    out->insert(out->end(), bytes.begin(), bytes.end());
    ++matched;
  }
  // A scan cut short by a storage fault must fail the statement, not
  // return a silently-partial result set.
  ATIS_RETURN_NOT_OK(c.status());
  span.Tag("matched", static_cast<uint64_t>(matched));
  return matched;
}

namespace {

/// Record ids of the rows satisfying `pred`, in scan order.
Result<std::vector<storage::RecordId>> MatchingRids(const Relation& rel,
                                                    Predicate pred) {
  std::vector<storage::RecordId> rids;
  Relation::Cursor c = rel.Scan();
  for (; c.Valid(); c.Next()) {
    if (!pred || pred(c.row())) rids.push_back(c.rid());
  }
  ATIS_RETURN_NOT_OK(c.status());
  return rids;
}

}  // namespace

Result<size_t> Replace(Relation* rel, Predicate pred, Updater update) {
  obs::ScopedSpan span("replace", "operator");
  span.Tag("relation", rel->name());
  // Two-phase: match first, then write. A single-pass scan-and-update is
  // unsound if updates move tuples the scan has not reached yet (a key
  // change re-files a row in the indexes).
  ATIS_ASSIGN_OR_RETURN(const auto matches, MatchingRids(*rel, pred));
  ATIS_RETURN_NOT_OK(rel->EditAll(matches, update));
  span.Tag("replaced", static_cast<uint64_t>(matches.size()));
  return matches.size();
}

Status Append(Relation* rel, std::span<const uint8_t> row) {
  obs::ScopedSpan span("append", "operator");
  span.Tag("relation", rel->name());
  return rel->InsertPacked(row).status();
}

}  // namespace atis::relational
