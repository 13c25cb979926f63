#ifndef SCISPARQL_STORAGE_RELATIONAL_BACKEND_H_
#define SCISPARQL_STORAGE_RELATIONAL_BACKEND_H_

#include <memory>
#include <mutex>
#include <string>

#include "relstore/database.h"
#include "storage/asei.h"

namespace scisparql {

/// Relational array back-end (Section 6.2): arrays live in an RDBMS —
/// here our embedded relstore engine — under the SSDM-managed storage
/// schema:
///
///   ARRAYS(array_id, etype, chunk_elems, shape_blob)   indexed by array_id
///   CHUNKS(key = array_id<<32 | chunk_id, data_blob)   indexed by key
///
/// Chunk retrieval maps the three SQL formulation strategies of 6.2.3 onto
/// the relstore query layer: per-key point queries, one IN-list query, or
/// SPD interval queries (BETWEEN + stride predicate).
class RelationalArrayStorage : public ArrayStorage {
 public:
  /// Creates/opens the schema inside `db` (not owned).
  static Result<std::unique_ptr<RelationalArrayStorage>> Attach(
      relstore::Database* db);

  std::string name() const override { return "relational"; }
  bool SupportsAggregatePushdown() const override { return true; }

  Result<ArrayId> Store(const NumericArray& array,
                        int64_t chunk_elems) override;
  Result<StoredArrayMeta> GetMeta(ArrayId id) const override;
  Status FetchChunks(
      ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  Status FetchIntervals(
      ArrayId id, std::span<const relstore::Interval> intervals,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  Result<double> AggregateWhole(ArrayId id, AggOp op) override;
  Status Remove(ArrayId id) override;

  /// Strategy used by FetchChunks (FetchIntervals is always interval-based).
  void set_strategy(relstore::SelectStrategy s) { strategy_ = s; }
  relstore::SelectStrategy strategy() const { return strategy_; }

  /// relstore-level counters from the last Fetch* call.
  const relstore::SelectStats& last_select_stats() const {
    return last_stats_;
  }

  relstore::Database* db() { return db_; }

 private:
  explicit RelationalArrayStorage(relstore::Database* db) : db_(db) {}

  static uint64_t ChunkKey(ArrayId id, uint64_t chunk) {
    return (static_cast<uint64_t>(id) << 32) | chunk;
  }

  relstore::Database* db_;
  relstore::SelectStrategy strategy_ = relstore::SelectStrategy::kInList;
  relstore::SelectStats last_stats_;
  ArrayId next_id_ = 1;
  mutable std::map<ArrayId, StoredArrayMeta> meta_cache_;
  /// Serializes every entry point: the scheduler runs array reads in
  /// parallel. Fetch callbacks run under it, since the chunk bytes they
  /// receive point into buffers it guards. Recursive because composite
  /// operations (aggregates, removal) reuse the other entry points.
  mutable std::recursive_mutex mu_;
};

}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_RELATIONAL_BACKEND_H_
