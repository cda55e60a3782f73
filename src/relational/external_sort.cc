#include "relational/external_sort.h"

#include <algorithm>
#include <optional>
#include <vector>

namespace atis::relational {

namespace {

/// Streaming cursor over one sorted run.
class RunCursor {
 public:
  explicit RunCursor(Relation* run, int key_field)
      : cursor_(run->Scan()), key_field_(key_field) {}

  bool Valid() const { return cursor_.Valid(); }
  int64_t key() const {
    return cursor_.row().Int(static_cast<size_t>(key_field_));
  }
  /// Copies the current row into `row` and steps past it.
  void Take(std::vector<uint8_t>* row) {
    const std::span<const uint8_t> bytes = cursor_.row().bytes();
    row->assign(bytes.begin(), bytes.end());
    cursor_.Next();
  }

 private:
  Relation::Cursor cursor_;
  int key_field_;
};

}  // namespace

Result<std::unique_ptr<Relation>> ExternalSort(
    const Relation& input, std::string_view key_field,
    std::string result_name, const SortOptions& options,
    SortMetrics* metrics) {
  const int key = input.schema().FieldIndex(key_field);
  if (key < 0) {
    return Status::InvalidArgument("no sort key field '" +
                                   std::string(key_field) + "'");
  }
  if (!IsIntegerType(input.schema().field(static_cast<size_t>(key)).type)) {
    return Status::InvalidArgument("sort key must be integer-typed");
  }
  if (options.memory_frames < 3) {
    return Status::InvalidArgument(
        "external sort needs at least 3 memory frames");
  }
  const size_t run_capacity = std::max<size_t>(
      1, options.memory_frames * input.schema().blocking_factor());

  SortMetrics local;
  // -- Pass 0: run formation.
  std::vector<std::unique_ptr<Relation>> runs;
  // The run being formed: packed rows in `rows`, and per row its key and
  // byte offset there, sorted before the run is written.
  const size_t width = input.schema().tuple_size();
  std::vector<uint8_t> rows;
  std::vector<std::pair<int64_t, size_t>> buffer;
  buffer.reserve(run_capacity);
  auto flush_run = [&]() -> Status {
    if (buffer.empty()) return Status::OK();
    std::stable_sort(
        buffer.begin(), buffer.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    auto run = std::make_unique<Relation>(
        result_name + ".run" + std::to_string(runs.size()),
        input.schema(), input.pool(), /*charge_create=*/true);
    for (const auto& [k, at] : buffer) {
      (void)k;
      ATIS_RETURN_NOT_OK(
          run->InsertPacked({rows.data() + at, width}).status());
    }
    buffer.clear();
    rows.clear();
    runs.push_back(std::move(run));
    return Status::OK();
  };
  for (Relation::Cursor c = input.Scan(); c.Valid(); c.Next()) {
    const RowView row = c.row();
    buffer.emplace_back(row.Int(static_cast<size_t>(key)), rows.size());
    rows.insert(rows.end(), row.bytes().begin(), row.bytes().end());
    if (buffer.size() >= run_capacity) {
      ATIS_RETURN_NOT_OK(flush_run());
    }
  }
  ATIS_RETURN_NOT_OK(flush_run());
  local.initial_runs = runs.size();

  if (runs.empty()) {
    // Empty input: an empty (but valid) result.
    auto out = std::make_unique<Relation>(std::move(result_name),
                                          input.schema(), input.pool(),
                                          /*charge_create=*/true);
    if (metrics != nullptr) *metrics = local;
    return out;
  }

  // -- Merge passes: fan-in = frames - 1 (one output frame).
  const size_t fan_in = options.memory_frames - 1;
  while (runs.size() > 1) {
    ++local.merge_passes;
    std::vector<std::unique_ptr<Relation>> next;
    for (size_t group = 0; group < runs.size(); group += fan_in) {
      const size_t end = std::min(group + fan_in, runs.size());
      auto merged = std::make_unique<Relation>(
          result_name + ".merge" + std::to_string(local.merge_passes) +
              "." + std::to_string(next.size()),
          input.schema(), input.pool(), /*charge_create=*/true);
      std::vector<RunCursor> cursors;
      cursors.reserve(end - group);
      std::vector<uint8_t> row;
      for (size_t i = group; i < end; ++i) {
        cursors.emplace_back(runs[i].get(), key);
      }
      while (true) {
        // Lowest key; ties prefer the earliest run (stability).
        std::optional<size_t> pick;
        for (size_t i = 0; i < cursors.size(); ++i) {
          if (!cursors[i].Valid()) continue;
          if (!pick || cursors[i].key() < cursors[*pick].key()) pick = i;
        }
        if (!pick) break;
        cursors[*pick].Take(&row);
        ATIS_RETURN_NOT_OK(merged->InsertPacked(row).status());
      }
      for (size_t i = group; i < end; ++i) {
        ATIS_RETURN_NOT_OK(runs[i]->Clear(/*charge=*/true));
      }
      next.push_back(std::move(merged));
    }
    runs = std::move(next);
  }
  if (metrics != nullptr) *metrics = local;
  return std::move(runs.front());
}

}  // namespace atis::relational
