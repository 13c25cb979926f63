#include "storage/relational_backend.h"

#include <cstring>
#include <limits>

namespace scisparql {

namespace {

constexpr const char* kArraysTable = "ssdm_arrays";
constexpr const char* kChunksTable = "ssdm_chunks";

std::string EncodeShape(const std::vector<int64_t>& shape) {
  std::string out;
  out.resize(shape.size() * 8);
  std::memcpy(out.data(), shape.data(), out.size());
  return out;
}

std::vector<int64_t> DecodeShape(const std::string& blob) {
  std::vector<int64_t> shape(blob.size() / 8);
  std::memcpy(shape.data(), blob.data(), shape.size() * 8);
  return shape;
}

}  // namespace

Result<std::unique_ptr<RelationalArrayStorage>> RelationalArrayStorage::Attach(
    relstore::Database* db) {
  using relstore::ColType;
  using relstore::Schema;
  if (!db->HasTable(kArraysTable)) {
    Schema arrays;
    arrays.columns = {{"array_id", ColType::kInt64},
                      {"etype", ColType::kInt64},
                      {"chunk_elems", ColType::kInt64},
                      {"shape", ColType::kBlob}};
    SCISPARQL_ASSIGN_OR_RETURN(auto* t1,
                               db->CreateTable(kArraysTable, arrays, true));
    (void)t1;
    Schema chunks;
    chunks.columns = {{"key", ColType::kInt64}, {"data", ColType::kBlob}};
    SCISPARQL_ASSIGN_OR_RETURN(auto* t2,
                               db->CreateTable(kChunksTable, chunks, true));
    (void)t2;
  }
  std::unique_ptr<RelationalArrayStorage> storage(
      new RelationalArrayStorage(db));
  // Recover the id counter from existing rows.
  SCISPARQL_RETURN_NOT_OK(db->ScanAll(kArraysTable, [&](const relstore::Row& row) {
    ArrayId id = static_cast<ArrayId>(relstore::AsInt(row[0]));
    if (id >= storage->next_id_) storage->next_id_ = id + 1;
    return true;
  }));
  return storage;
}

Result<ArrayId> RelationalArrayStorage::Store(const NumericArray& array,
                                              int64_t chunk_elems) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  NumericArray compact = array.Compact();
  ArrayId id = next_id_++;
  relstore::Row meta_row = {
      static_cast<int64_t>(id), static_cast<int64_t>(compact.etype()),
      chunk_elems, EncodeShape(compact.shape())};
  SCISPARQL_ASSIGN_OR_RETURN(
      auto rid, db_->InsertIndexed(kArraysTable, id, meta_row));
  (void)rid;

  const int64_t total = compact.NumElements();
  const int64_t chunks = total == 0 ? 0 : (total + chunk_elems - 1) / chunk_elems;
  for (int64_t c = 0; c < chunks; ++c) {
    int64_t first = c * chunk_elems;
    int64_t n = std::min(chunk_elems, total - first);
    std::string blob(static_cast<size_t>(n * 8), '\0');
    for (int64_t i = 0; i < n; ++i) {
      if (compact.etype() == ElementType::kDouble) {
        double v = compact.DoubleAt(first + i);
        std::memcpy(blob.data() + i * 8, &v, 8);
      } else {
        int64_t v = compact.IntAt(first + i);
        std::memcpy(blob.data() + i * 8, &v, 8);
      }
    }
    relstore::Row row = {static_cast<int64_t>(ChunkKey(id, c)),
                         std::move(blob)};
    SCISPARQL_ASSIGN_OR_RETURN(
        auto crid,
        db_->InsertIndexed(kChunksTable, ChunkKey(id, c), row));
    (void)crid;
  }

  StoredArrayMeta meta;
  meta.id = id;
  meta.etype = compact.etype();
  meta.shape = compact.shape();
  meta.chunk_elems = chunk_elems;
  meta_cache_[id] = std::move(meta);
  return id;
}

Result<StoredArrayMeta> RelationalArrayStorage::GetMeta(ArrayId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = meta_cache_.find(id);
  if (it != meta_cache_.end()) return it->second;
  StoredArrayMeta meta;
  bool found = false;
  const std::vector<uint64_t> key = {id};
  SCISPARQL_RETURN_NOT_OK(db_->SelectByKeys(
      kArraysTable, key, relstore::SelectStrategy::kPerKey,
      [&](uint64_t, const relstore::Row& row) {
        meta.id = static_cast<ArrayId>(relstore::AsInt(row[0]));
        meta.etype = static_cast<ElementType>(relstore::AsInt(row[1]));
        meta.chunk_elems = relstore::AsInt(row[2]);
        meta.shape = DecodeShape(relstore::AsBytes(row[3]));
        found = true;
        return false;
      }));
  if (!found) {
    return Status::NotFound("no stored array " + std::to_string(id));
  }
  meta_cache_[id] = meta;
  return meta;
}

Status RelationalArrayStorage::FetchChunks(
    ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::vector<uint64_t> keys;
  keys.reserve(chunk_ids.size());
  for (uint64_t c : chunk_ids) keys.push_back(ChunkKey(id, c));
  last_stats_ = relstore::SelectStats();
  Status st = db_->SelectByKeys(
      kChunksTable, keys, strategy_,
      [&](uint64_t key, const relstore::Row& row) {
        const std::string& blob = relstore::AsBytes(row[1]);
        ++stats_.chunks_fetched;
        stats_.bytes_fetched += blob.size();
        cb(key & 0xffffffffULL,
           reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
        return true;
      },
      &last_stats_);
  stats_.queries += last_stats_.queries;
  return st;
}

Status RelationalArrayStorage::FetchIntervals(
    ArrayId id, std::span<const relstore::Interval> intervals,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Rebase chunk-id intervals onto the composite key space; the layout
  // key = id<<32 | chunk preserves arithmetic progressions.
  std::vector<relstore::Interval> keyspace;
  keyspace.reserve(intervals.size());
  for (const relstore::Interval& iv : intervals) {
    keyspace.push_back(
        relstore::Interval{ChunkKey(id, iv.start), iv.stride, iv.count});
  }
  last_stats_ = relstore::SelectStats();
  Status st = db_->SelectByIntervals(
      kChunksTable, keyspace,
      [&](uint64_t key, const relstore::Row& row) {
        const std::string& blob = relstore::AsBytes(row[1]);
        ++stats_.chunks_fetched;
        stats_.bytes_fetched += blob.size();
        cb(key & 0xffffffffULL,
           reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
        return true;
      },
      &last_stats_);
  stats_.queries += last_stats_.queries;
  return st;
}

Result<double> RelationalArrayStorage::AggregateWhole(ArrayId id, AggOp op) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // The aggregate runs inside the "server": a single range query streams
  // the chunks without handing them to the client-side APR machinery.
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, GetMeta(id));
  double sum = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t count = 0;
  ++stats_.queries;
  SCISPARQL_RETURN_NOT_OK(db_->SelectRange(
      kChunksTable, ChunkKey(id, 0),
      ChunkKey(id, 0xffffffffULL),
      [&](uint64_t, const relstore::Row& row) {
        const std::string& blob = relstore::AsBytes(row[1]);
        size_t n = blob.size() / 8;
        for (size_t i = 0; i < n; ++i) {
          double v;
          if (meta.etype == ElementType::kDouble) {
            std::memcpy(&v, blob.data() + i * 8, 8);
          } else {
            int64_t iv;
            std::memcpy(&iv, blob.data() + i * 8, 8);
            v = static_cast<double>(iv);
          }
          sum += v;
          mn = std::min(mn, v);
          mx = std::max(mx, v);
          ++count;
        }
        return true;
      }));
  switch (op) {
    case AggOp::kSum:
      return sum;
    case AggOp::kCount:
      return static_cast<double>(count);
    case AggOp::kAvg:
      if (count == 0) return Status::InvalidArgument("avg of empty array");
      return sum / static_cast<double>(count);
    case AggOp::kMin:
      if (count == 0) return Status::InvalidArgument("min of empty array");
      return mn;
    case AggOp::kMax:
      if (count == 0) return Status::InvalidArgument("max of empty array");
      return mx;
  }
  return Status::Internal("unknown aggregate");
}

Status RelationalArrayStorage::Remove(ArrayId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, GetMeta(id));
  SCISPARQL_ASSIGN_OR_RETURN(size_t n, db_->DeleteByKey(kArraysTable, id));
  if (n == 0) return Status::NotFound("no stored array");
  for (int64_t c = 0; c < meta.NumChunks(); ++c) {
    SCISPARQL_ASSIGN_OR_RETURN(size_t m,
                               db_->DeleteByKey(kChunksTable, ChunkKey(id, c)));
    (void)m;
  }
  meta_cache_.erase(id);
  return Status::OK();
}

}  // namespace scisparql
