#include "storage/file_backend.h"

#include <cstring>
#include <limits>
#include <memory>

namespace scisparql {

// Container file format (.ssa = "SciSPARQL array")
// ------------------------------------------------
//   u32  magic 'SSAR'
//   u8   element type
//   u8   rank
//   u16  reserved
//   u64  chunk_elems
//   u64  dims[rank]
//   raw row-major element data, 8 bytes per element

namespace {

constexpr uint32_t kMagic = 0x53534152;

size_t HeaderSize(int rank) { return 16 + 8 * static_cast<size_t>(rank); }

}  // namespace

FileArrayStorage::FileArrayStorage(std::string dir, storage::Vfs* vfs)
    : dir_(std::move(dir)),
      vfs_(vfs == nullptr ? storage::DefaultVfs() : vfs) {}

std::string FileArrayStorage::PathFor(ArrayId id) const {
  auto it = linked_.find(id);
  if (it != linked_.end()) return it->second;
  return dir_ + "/arr_" + std::to_string(id) + ".ssa";
}

Result<ArrayId> FileArrayStorage::Store(const NumericArray& array,
                                        int64_t chunk_elems) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  NumericArray compact = array.Compact();
  ArrayId id = next_id_++;
  SCISPARQL_ASSIGN_OR_RETURN(
      std::unique_ptr<storage::VfsFile> f,
      vfs_->Open(PathFor(id), storage::Vfs::OpenMode::kTruncate));
  // Header and dims are assembled in one buffer written with a single
  // checked positional write; the element payload follows in one more.
  const int rank = static_cast<int>(compact.rank());
  std::string head(HeaderSize(rank), '\0');
  std::memcpy(head.data(), &kMagic, 4);
  head[4] = static_cast<char>(compact.etype());
  head[5] = static_cast<char>(rank);
  head[6] = head[7] = 0;
  std::memcpy(head.data() + 8, &chunk_elems, 8);
  {
    size_t off = 16;
    for (int64_t d : compact.shape()) {
      std::memcpy(head.data() + off, &d, 8);
      off += 8;
    }
  }
  SCISPARQL_RETURN_NOT_OK(f->WriteAt(0, head.data(), head.size()));

  // Compact arrays are contiguous row-major; copy elements one by one to
  // stay independent of the internal buffer layout.
  const int64_t n = compact.NumElements();
  std::string body(static_cast<size_t>(n) * 8, '\0');
  for (int64_t i = 0; i < n; ++i) {
    if (compact.etype() == ElementType::kDouble) {
      double v = compact.DoubleAt(i);
      std::memcpy(body.data() + i * 8, &v, 8);
    } else {
      int64_t v = compact.IntAt(i);
      std::memcpy(body.data() + i * 8, &v, 8);
    }
  }
  SCISPARQL_RETURN_NOT_OK(f->WriteAt(head.size(), body.data(), body.size()));
  SCISPARQL_RETURN_NOT_OK(f->Sync());

  StoredArrayMeta meta;
  meta.id = id;
  meta.etype = compact.etype();
  meta.shape = compact.shape();
  meta.chunk_elems = chunk_elems;
  meta_cache_[id] = std::move(meta);
  return id;
}

Result<StoredArrayMeta> FileArrayStorage::ReadHeader(ArrayId id) const {
  auto f = vfs_->Open(PathFor(id), storage::Vfs::OpenMode::kRead);
  if (!f.ok()) return Status::NotFound("no array file: " + PathFor(id));
  uint8_t header[16];
  SCISPARQL_ASSIGN_OR_RETURN(size_t got,
                             (*f)->ReadAt(0, header, sizeof(header)));
  if (got != sizeof(header)) return Status::IoError("short array file header");
  uint32_t magic;
  std::memcpy(&magic, header, 4);
  if (magic != kMagic) return Status::IoError("bad array file magic");
  StoredArrayMeta meta;
  meta.id = id;
  meta.etype = static_cast<ElementType>(header[4]);
  int rank = header[5];
  std::memcpy(&meta.chunk_elems, header + 8, 8);
  meta.shape.resize(rank);
  if (rank > 0) {
    SCISPARQL_ASSIGN_OR_RETURN(
        got, (*f)->ReadAt(16, meta.shape.data(),
                          static_cast<size_t>(rank) * 8));
    if (got != static_cast<size_t>(rank) * 8) {
      return Status::IoError("short array file header (dims)");
    }
  }
  return meta;
}

Result<StoredArrayMeta> FileArrayStorage::GetMeta(ArrayId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = meta_cache_.find(id);
  if (it != meta_cache_.end()) return it->second;
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, ReadHeader(id));
  meta_cache_[id] = meta;
  return meta;
}

Status FileArrayStorage::FetchChunks(
    ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, GetMeta(id));
  auto f = vfs_->Open(PathFor(id), storage::Vfs::OpenMode::kRead);
  if (!f.ok()) return Status::NotFound("no array file: " + PathFor(id));
  const size_t header = HeaderSize(static_cast<int>(meta.shape.size()));
  const int64_t total = meta.NumElements();
  ++stats_.queries;
  std::vector<uint8_t> buf;
  for (uint64_t cid : chunk_ids) {
    int64_t first = static_cast<int64_t>(cid) * meta.chunk_elems;
    if (first >= total) return Status::OutOfRange("chunk id beyond array");
    int64_t n = std::min<int64_t>(meta.chunk_elems, total - first);
    buf.resize(static_cast<size_t>(n * 8));
    ++seeks_;
    SCISPARQL_ASSIGN_OR_RETURN(
        size_t got,
        (*f)->ReadAt(header + static_cast<uint64_t>(first) * 8, buf.data(),
                     buf.size()));
    if (got != buf.size()) return Status::IoError("short chunk read");
    ++stats_.chunks_fetched;
    stats_.bytes_fetched += buf.size();
    cb(cid, buf.data(), buf.size());
  }
  return Status::OK();
}

Status FileArrayStorage::FetchIntervals(
    ArrayId id, std::span<const relstore::Interval> intervals,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // Files are sequential devices: an interval becomes one seek plus one
  // sequential read spanning [start, last]; chunks not in the stride are
  // read but dropped (still cheaper than a seek per chunk).
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, GetMeta(id));
  auto f = vfs_->Open(PathFor(id), storage::Vfs::OpenMode::kRead);
  if (!f.ok()) return Status::NotFound("no array file: " + PathFor(id));
  const size_t header = HeaderSize(static_cast<int>(meta.shape.size()));
  const int64_t total = meta.NumElements();
  ++stats_.queries;
  std::vector<uint8_t> buf;
  for (const relstore::Interval& iv : intervals) {
    if (iv.count == 0) continue;
    int64_t first_elem = static_cast<int64_t>(iv.start) * meta.chunk_elems;
    if (first_elem >= total) return Status::OutOfRange("interval beyond array");
    int64_t last_chunk_first =
        static_cast<int64_t>(iv.last()) * meta.chunk_elems;
    int64_t end_elem =
        std::min<int64_t>(last_chunk_first + meta.chunk_elems, total);
    int64_t span = end_elem - first_elem;
    buf.resize(static_cast<size_t>(span * 8));
    ++seeks_;
    SCISPARQL_ASSIGN_OR_RETURN(
        size_t got,
        (*f)->ReadAt(header + static_cast<uint64_t>(first_elem) * 8,
                     buf.data(), buf.size()));
    if (got != buf.size()) return Status::IoError("short interval read");
    stats_.bytes_fetched += buf.size();
    for (uint64_t cid = iv.start; cid <= iv.last(); cid += iv.stride) {
      int64_t coff = (static_cast<int64_t>(cid) * meta.chunk_elems -
                      first_elem) * 8;
      int64_t n = std::min<int64_t>(
          meta.chunk_elems,
          total - static_cast<int64_t>(cid) * meta.chunk_elems);
      ++stats_.chunks_fetched;
      cb(cid, buf.data() + coff, static_cast<size_t>(n * 8));
      if (iv.stride == 0) break;
    }
  }
  return Status::OK();
}

Result<double> FileArrayStorage::AggregateWhole(ArrayId id, AggOp op) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // "Server-side" aggregate: stream the file once without materializing a
  // resident array in the engine.
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, GetMeta(id));
  const int64_t chunks = meta.NumChunks();
  if (chunks == 0) {
    if (op == AggOp::kSum || op == AggOp::kCount) return 0.0;
    return Status::InvalidArgument("aggregate over empty array");
  }
  double sum = 0;
  double mn = std::numeric_limits<double>::infinity();
  double mx = -std::numeric_limits<double>::infinity();
  int64_t count = 0;
  relstore::Interval whole{0, 1, static_cast<uint64_t>(chunks)};
  SCISPARQL_RETURN_NOT_OK(FetchIntervals(
      id, std::span<const relstore::Interval>(&whole, 1),
      [&](uint64_t, const uint8_t* bytes, size_t len) {
        size_t n = len / 8;
        for (size_t i = 0; i < n; ++i) {
          double v;
          if (meta.etype == ElementType::kDouble) {
            std::memcpy(&v, bytes + i * 8, 8);
          } else {
            int64_t iv;
            std::memcpy(&iv, bytes + i * 8, 8);
            v = static_cast<double>(iv);
          }
          sum += v;
          mn = std::min(mn, v);
          mx = std::max(mx, v);
          ++count;
        }
      }));
  switch (op) {
    case AggOp::kSum:
      return sum;
    case AggOp::kAvg:
      if (count == 0) return Status::InvalidArgument("avg of empty array");
      return sum / static_cast<double>(count);
    case AggOp::kMin:
      if (count == 0) return Status::InvalidArgument("min of empty array");
      return mn;
    case AggOp::kMax:
      if (count == 0) return Status::InvalidArgument("max of empty array");
      return mx;
    case AggOp::kCount:
      return static_cast<double>(count);
  }
  return Status::Internal("unknown aggregate");
}

Status FileArrayStorage::Remove(ArrayId id) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string path = PathFor(id);
  meta_cache_.erase(id);
  linked_.erase(id);
  Status st = vfs_->Remove(path);
  if (!st.ok()) return Status::NotFound("no array file: " + path);
  return Status::OK();
}

Result<ArrayId> FileArrayStorage::LinkExisting(const std::string& path) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ArrayId id = next_id_++;
  linked_[id] = path;
  // Validate eagerly so a broken link fails at link time, not query time.
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, ReadHeader(id));
  meta_cache_[id] = meta;
  return id;
}

}  // namespace scisparql
