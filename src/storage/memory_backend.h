#ifndef SCISPARQL_STORAGE_MEMORY_BACKEND_H_
#define SCISPARQL_STORAGE_MEMORY_BACKEND_H_

#include <map>
#include <mutex>
#include <string>

#include "storage/asei.h"

namespace scisparql {

/// In-process array store: arrays live in compact buffers in this process.
/// This is SSDM's default resident storage (Section 5.2.1); it also serves
/// as the zero-latency baseline the external back-ends are compared to.
class MemoryArrayStorage : public ArrayStorage {
 public:
  std::string name() const override { return "memory"; }
  bool SupportsAggregatePushdown() const override { return true; }

  Result<ArrayId> Store(const NumericArray& array,
                        int64_t chunk_elems) override;
  Result<StoredArrayMeta> GetMeta(ArrayId id) const override;
  Status FetchChunks(
      ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  Result<double> AggregateWhole(ArrayId id, AggOp op) override;
  Status Remove(ArrayId id) override;

  size_t array_count() const { return arrays_.size(); }

 private:
  struct Entry {
    StoredArrayMeta meta;
    NumericArray array;  // always compact row-major
  };

  Result<const Entry*> Find(ArrayId id) const;

  std::map<ArrayId, Entry> arrays_;
  ArrayId next_id_ = 1;
  /// Serializes every entry point: the scheduler runs array reads in
  /// parallel. Fetch callbacks run under it, since the chunk bytes they
  /// receive point into buffers it guards.
  mutable std::mutex mu_;
};

}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_MEMORY_BACKEND_H_
