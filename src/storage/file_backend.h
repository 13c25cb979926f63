#ifndef SCISPARQL_STORAGE_FILE_BACKEND_H_
#define SCISPARQL_STORAGE_FILE_BACKEND_H_

#include <map>
#include <mutex>
#include <string>

#include "storage/asei.h"
#include "storage/vfs.h"

namespace scisparql {

/// Binary-file array back-end: every array is one container file
/// `arr_<id>.ssa` under a directory, with a small header followed by raw
/// row-major data. This plays the role of the paper's file-based storage
/// (.mat / NetCDF file linking, Section 7 and the SAGA-style discussion in
/// Section 2.5): chunking and caching are left to the OS file system, and
/// interval fetches become a single sequential read.
class FileArrayStorage : public ArrayStorage {
 public:
  /// `dir` must exist and be writable; existing container files in it are
  /// picked up on first access by id. `vfs` defaults to the real
  /// filesystem; tests inject a FaultyVfs.
  explicit FileArrayStorage(std::string dir, storage::Vfs* vfs = nullptr);

  std::string name() const override { return "file"; }
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

  /// Registers an existing container file under a fresh id (the mediator
  /// scenario: linking arrays already produced by another tool).
  Result<ArrayId> LinkExisting(const std::string& path);

  uint64_t seeks() const { return seeks_; }

 private:
  std::string PathFor(ArrayId id) const;
  Result<StoredArrayMeta> ReadHeader(ArrayId id) const;

  std::string dir_;
  storage::Vfs* vfs_;
  ArrayId next_id_ = 1;
  std::map<ArrayId, std::string> linked_;  // id -> explicit path
  mutable std::map<ArrayId, StoredArrayMeta> meta_cache_;
  uint64_t seeks_ = 0;
  /// Serializes every entry point: the scheduler runs array reads in
  /// parallel. Fetch callbacks run under it, since the chunk bytes they
  /// receive point into buffers it guards. Recursive because fetches and
  /// aggregates reuse GetMeta and FetchIntervals.
  mutable std::recursive_mutex mu_;
};

}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_FILE_BACKEND_H_
