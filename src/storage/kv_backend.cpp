#include "storage/kv_backend.h"

#include <cstdlib>
#include <cstring>

#include "common/crc32c.h"

namespace scisparql {

namespace {

std::string MetaKey(ArrayId id) {
  return "meta:" + std::to_string(id);
}
std::string ChunkKey(ArrayId id, uint64_t chunk) {
  return "chunk:" + std::to_string(id) + ":" + std::to_string(chunk);
}

std::string EncodeMeta(const StoredArrayMeta& meta) {
  std::string out;
  out.resize(16 + meta.shape.size() * 8);
  uint32_t etype = static_cast<uint32_t>(meta.etype);
  uint32_t rank = static_cast<uint32_t>(meta.shape.size());
  std::memcpy(out.data(), &etype, 4);
  std::memcpy(out.data() + 4, &rank, 4);
  std::memcpy(out.data() + 8, &meta.chunk_elems, 8);
  std::memcpy(out.data() + 16, meta.shape.data(), meta.shape.size() * 8);
  return out;
}

Result<StoredArrayMeta> DecodeMeta(ArrayId id, const std::string& bytes) {
  if (bytes.size() < 16) return Status::Internal("short meta record");
  StoredArrayMeta meta;
  meta.id = id;
  uint32_t etype, rank;
  std::memcpy(&etype, bytes.data(), 4);
  std::memcpy(&rank, bytes.data() + 4, 4);
  std::memcpy(&meta.chunk_elems, bytes.data() + 8, 8);
  meta.etype = static_cast<ElementType>(etype);
  if (bytes.size() < 16 + rank * 8) {
    return Status::Internal("short meta record (dims)");
  }
  meta.shape.resize(rank);
  std::memcpy(meta.shape.data(), bytes.data() + 16, rank * 8);
  return meta;
}

uint32_t RecordCrc(const std::string& key, const std::string& value) {
  uint32_t crc = Crc32c(key);
  return Crc32cExtend(crc, value.data(), value.size());
}

}  // namespace

Result<std::unique_ptr<KvArrayStorage>> KvArrayStorage::Open(
    const std::string& path, storage::Vfs* vfs) {
  if (vfs == nullptr) vfs = storage::DefaultVfs();
  std::unique_ptr<KvArrayStorage> kv(new KvArrayStorage(path, vfs));
  SCISPARQL_ASSIGN_OR_RETURN(
      kv->file_, vfs->Open(path, storage::Vfs::OpenMode::kReadWrite));
  SCISPARQL_RETURN_NOT_OK(kv->LoadIndex());
  return kv;
}

KvArrayStorage::~KvArrayStorage() = default;

Status KvArrayStorage::LoadIndex() {
  SCISPARQL_ASSIGN_OR_RETURN(uint64_t size, file_->Size());
  std::string data(size, '\0');
  SCISPARQL_ASSIGN_OR_RETURN(size_t got, file_->ReadAt(0, data.data(), size));
  data.resize(got);

  auto read_u32 = [&data](size_t* pos, uint32_t* v) {
    if (*pos + 4 > data.size()) return false;
    std::memcpy(v, data.data() + *pos, 4);
    *pos += 4;
    return true;
  };

  size_t pos = 0;
  size_t valid_end = 0;  // end of the last well-formed record
  bool torn = false;
  while (pos < data.size()) {
    size_t rec_start = pos;
    uint32_t key_len, val_len, stored_crc;
    std::string key;
    if (!read_u32(&pos, &key_len) || pos + key_len > data.size()) {
      torn = true;
      break;
    }
    key.assign(data, pos, key_len);
    pos += key_len;
    if (!read_u32(&pos, &val_len) || pos + val_len > data.size()) {
      torn = true;
      break;
    }
    uint64_t val_off = pos;
    std::string value = data.substr(pos, val_len);
    pos += val_len;
    if (!read_u32(&pos, &stored_crc)) {
      torn = true;
      break;
    }
    if (Crc32cUnmask(stored_crc) != RecordCrc(key, value)) {
      if (pos == data.size()) {
        // A checksum-invalid *final* record is the torn tail a crash
        // mid-append leaves behind: drop it like a short one.
        torn = true;
        pos = rec_start;
        break;
      }
      // Mid-log mismatch with intact framing: silent corruption of one
      // record. Reject it; a later copy of the key may still win.
      ++rejected_records_;
      continue;
    }
    valid_end = pos;
    index_[key] = Location{val_off, val_len};  // later records win
    // Recover the id counter from meta records.
    if (key.rfind("meta:", 0) == 0) {
      ArrayId id = static_cast<ArrayId>(std::atoll(key.c_str() + 5));
      if (id >= next_id_) next_id_ = id + 1;
    }
  }
  if (torn) {
    truncated_tail_ = true;
    SCISPARQL_RETURN_NOT_OK(file_->Truncate(valid_end));
    end_offset_ = valid_end;
  } else {
    end_offset_ = data.size();
  }
  return Status::OK();
}

Status KvArrayStorage::Put(const std::string& key, const std::string& value) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  std::string frame;
  frame.reserve(12 + key.size() + value.size());
  uint32_t key_len = static_cast<uint32_t>(key.size());
  uint32_t val_len = static_cast<uint32_t>(value.size());
  uint32_t crc = Crc32cMask(RecordCrc(key, value));
  frame.append(reinterpret_cast<const char*>(&key_len), 4);
  frame.append(key);
  frame.append(reinterpret_cast<const char*>(&val_len), 4);
  frame.append(value);
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  // One positional write at the logical end; on failure the offset does
  // not advance and the index is untouched, so the partial bytes sit past
  // the logical end where the next Put overwrites them and recovery's CRC
  // check discards them.
  SCISPARQL_RETURN_NOT_OK(
      file_->WriteAt(end_offset_, frame.data(), frame.size()));
  index_[key] =
      Location{end_offset_ + 8 + key.size(), val_len};
  end_offset_ += frame.size();
  return Status::OK();
}

Result<std::string> KvArrayStorage::Get(const std::string& key) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) return Status::NotFound("no kv key: " + key);
  std::string out(it->second.length, '\0');
  SCISPARQL_ASSIGN_OR_RETURN(
      size_t got, file_->ReadAt(it->second.offset, out.data(), out.size()));
  if (got != out.size()) return Status::IoError("kv read failed");
  return out;
}

Result<ArrayId> KvArrayStorage::Store(const NumericArray& array,
                                      int64_t chunk_elems) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  NumericArray compact = array.Compact();
  ArrayId id = next_id_++;
  StoredArrayMeta meta;
  meta.id = id;
  meta.etype = compact.etype();
  meta.shape = compact.shape();
  meta.chunk_elems = chunk_elems;
  SCISPARQL_RETURN_NOT_OK(Put(MetaKey(id), EncodeMeta(meta)));

  const int64_t total = compact.NumElements();
  const int64_t chunks =
      total == 0 ? 0 : (total + chunk_elems - 1) / chunk_elems;
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
    SCISPARQL_RETURN_NOT_OK(
        Put(ChunkKey(id, static_cast<uint64_t>(c)), blob));
  }
  return id;
}

Result<StoredArrayMeta> KvArrayStorage::GetMeta(ArrayId id) const {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  auto bytes = Get(MetaKey(id));
  if (!bytes.ok()) {
    return Status::NotFound("no stored array " + std::to_string(id));
  }
  return DecodeMeta(id, *bytes);
}

Status KvArrayStorage::FetchChunks(
    ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  // One point get per chunk — all the store's API offers.
  for (uint64_t c : chunk_ids) {
    ++stats_.queries;
    SCISPARQL_ASSIGN_OR_RETURN(std::string blob, Get(ChunkKey(id, c)));
    ++stats_.chunks_fetched;
    stats_.bytes_fetched += blob.size();
    cb(c, reinterpret_cast<const uint8_t*>(blob.data()), blob.size());
  }
  return Status::OK();
}

}  // namespace scisparql
