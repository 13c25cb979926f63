#include "storage/memory_backend.h"

#include <cstring>

namespace scisparql {

Result<ArrayId> MemoryArrayStorage::Store(const NumericArray& array,
                                          int64_t chunk_elems) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry e;
  e.array = array.Compact();
  e.meta.id = next_id_++;
  e.meta.etype = array.etype();
  e.meta.shape = array.shape();
  e.meta.chunk_elems = chunk_elems;
  ArrayId id = e.meta.id;
  arrays_.emplace(id, std::move(e));
  return id;
}

Result<const MemoryArrayStorage::Entry*> MemoryArrayStorage::Find(
    ArrayId id) const {
  auto it = arrays_.find(id);
  if (it == arrays_.end()) {
    return Status::NotFound("no array with id " + std::to_string(id));
  }
  return &it->second;
}

Result<StoredArrayMeta> MemoryArrayStorage::GetMeta(ArrayId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  SCISPARQL_ASSIGN_OR_RETURN(const Entry* e, Find(id));
  return e->meta;
}

Status MemoryArrayStorage::FetchChunks(
    ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::mutex> lock(mu_);
  SCISPARQL_ASSIGN_OR_RETURN(const Entry* e, Find(id));
  const int64_t total = e->meta.NumElements();
  const int64_t ce = e->meta.chunk_elems;
  const int64_t esize = ElementSize(e->meta.etype);
  // A compact array's buffer is one contiguous row-major span; a chunk is
  // a byte slice of it.
  ++stats_.queries;
  for (uint64_t cid : chunk_ids) {
    int64_t first = static_cast<int64_t>(cid) * ce;
    if (first >= total) {
      return Status::OutOfRange("chunk id beyond array end");
    }
    int64_t n = std::min(ce, total - first);
    // Reconstruct the raw bytes from the compact array.
    std::vector<uint8_t> bytes(static_cast<size_t>(n * esize));
    for (int64_t i = 0; i < n; ++i) {
      if (e->meta.etype == ElementType::kDouble) {
        double v = e->array.DoubleAt(first + i);
        std::memcpy(bytes.data() + i * 8, &v, 8);
      } else {
        int64_t v = e->array.IntAt(first + i);
        std::memcpy(bytes.data() + i * 8, &v, 8);
      }
    }
    ++stats_.chunks_fetched;
    stats_.bytes_fetched += bytes.size();
    cb(cid, bytes.data(), bytes.size());
  }
  return Status::OK();
}

Result<double> MemoryArrayStorage::AggregateWhole(ArrayId id, AggOp op) {
  std::lock_guard<std::mutex> lock(mu_);
  SCISPARQL_ASSIGN_OR_RETURN(const Entry* e, Find(id));
  ++stats_.queries;
  return ResidentArray(e->array).Aggregate(op);
}

Status MemoryArrayStorage::Remove(ArrayId id) {
  std::lock_guard<std::mutex> lock(mu_);
  if (arrays_.erase(id) == 0) {
    return Status::NotFound("no array with id " + std::to_string(id));
  }
  return Status::OK();
}

}  // namespace scisparql
