#ifndef SCISPARQL_STORAGE_KV_BACKEND_H_
#define SCISPARQL_STORAGE_KV_BACKEND_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "storage/asei.h"
#include "storage/vfs.h"

namespace scisparql {

/// NoSQL-style key-value array back-end. The thesis (Section 2.2.3)
/// anticipates interfacing "not-only-SQL" stores whose APIs offer little
/// beyond point lookups; this back-end models exactly that capability
/// envelope on top of a log-structured file:
///
///   * point get/put of opaque values under string keys — nothing else;
///   * NO native interval scans (FetchIntervals falls back to expanding
///     SPD intervals into point gets, per the ASEI default);
///   * NO aggregate pushdown (AAPR falls back to client-side evaluation).
///
/// The ASEI capability flags make SSDM degrade gracefully: the same
/// queries run, with more data crossing the boundary — the trade-off the
/// paper's NoSQL discussion predicts.
///
/// Log record format: [u32 key_len][key][u32 val_len][value]
/// [u32 masked crc32c(key || value)]. The CRC lets recovery tell a torn
/// trailing record (truncated away with a warning counter) from silent
/// mid-log corruption (the record is rejected; later copies of the key
/// still win, log-structured style).
class KvArrayStorage : public ArrayStorage {
 public:
  /// Opens (or creates) the log file; existing records are indexed by a
  /// sequential scan, the usual recovery story of log-structured stores.
  /// A torn trailing record — the tail a crash mid-Put leaves behind — is
  /// truncated off; see truncated_tail(). `vfs` defaults to the real
  /// filesystem.
  static Result<std::unique_ptr<KvArrayStorage>> Open(
      const std::string& path, storage::Vfs* vfs = nullptr);

  ~KvArrayStorage() override;

  std::string name() const override { return "kv"; }
  bool SupportsAggregatePushdown() const override { return false; }

  Result<ArrayId> Store(const NumericArray& array,
                        int64_t chunk_elems) override;
  Result<StoredArrayMeta> GetMeta(ArrayId id) const override;
  Status FetchChunks(
      ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;

  /// Raw point access, for tests.
  Result<std::string> Get(const std::string& key) const;
  Status Put(const std::string& key, const std::string& value);

  size_t key_count() const { return index_.size(); }

  /// True when Open() found and truncated a torn trailing record.
  bool truncated_tail() const { return truncated_tail_; }
  /// Mid-log records dropped for CRC mismatch during Open().
  uint64_t rejected_records() const { return rejected_records_; }

 private:
  KvArrayStorage(std::string path, storage::Vfs* vfs)
      : path_(std::move(path)), vfs_(vfs) {}

  Status LoadIndex();

  struct Location {
    uint64_t offset = 0;  // of the value bytes
    uint32_t length = 0;
  };

  std::string path_;
  storage::Vfs* vfs_;
  std::unique_ptr<storage::VfsFile> file_;
  uint64_t end_offset_ = 0;  ///< Logical end of the log (append point).
  std::map<std::string, Location> index_;
  ArrayId next_id_ = 1;
  bool truncated_tail_ = false;
  uint64_t rejected_records_ = 0;
  /// Serializes every entry point: the scheduler runs array reads in
  /// parallel. Fetch callbacks run under it, since the chunk bytes they
  /// receive point into buffers it guards. Recursive because storing and
  /// fetching go through Put/Get.
  mutable std::recursive_mutex mu_;
};

}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_KV_BACKEND_H_
