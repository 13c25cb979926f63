#include "storage/wal.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "common/crc32c.h"
#include "rdf/term_codec.h"
#include "storage/array_proxy.h"

namespace scisparql {
namespace storage {

namespace {

constexpr char kSegmentMagic[4] = {'S', 'S', 'W', 'L'};
constexpr uint32_t kSegmentFormat = 1;
constexpr size_t kSegmentHeaderSize = 16;

/// Term framing inside triple bodies: inline bytes, a back-end ref, or a
/// back-reference to an earlier term of the same batch (dictionary
/// compression — bulk loads repeat predicates and subjects constantly, so
/// most terms of a batch collapse to a 5-byte ref). Batches never span
/// segments or shipment streams, so the reference scope is self-contained.
constexpr uint8_t kTermInline = 0;
constexpr uint8_t kTermProxyRef = 1;
constexpr uint8_t kTermDictRef = 2;

}  // namespace

std::string WalSegmentFileName(uint64_t first_lsn) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal-%016" PRIx64 ".log", first_lsn);
  return buf;
}

bool ParseWalSegmentFileName(const std::string& name, uint64_t* first_lsn) {
  if (name.size() != 4 + 16 + 4 || name.rfind("wal-", 0) != 0 ||
      name.compare(name.size() - 4, 4, ".log") != 0) {
    return false;
  }
  uint64_t v = 0;
  for (size_t i = 4; i < 20; ++i) {
    char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') digit = static_cast<uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f') digit = static_cast<uint64_t>(c - 'a' + 10);
    else return false;
    v = (v << 4) | digit;
  }
  *first_lsn = v;
  return true;
}

Result<std::vector<WalSegmentInfo>> ListWalSegments(Vfs* vfs,
                                                    const std::string& dir) {
  std::vector<WalSegmentInfo> segments;
  auto names = vfs->ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) return segments;
    return names.status();
  }
  for (const std::string& name : *names) {
    uint64_t first_lsn;
    if (ParseWalSegmentFileName(name, &first_lsn)) {
      segments.push_back({first_lsn, dir + "/" + name});
    }
  }
  // Numeric sort on the parsed index, never on the file name: shipping and
  // replay must see segment 0x10 after 0x9 regardless of naming width.
  std::sort(segments.begin(), segments.end(),
            [](const WalSegmentInfo& a, const WalSegmentInfo& b) {
              return a.first_lsn < b.first_lsn;
            });
  return segments;
}

namespace {

/// Batch-scoped term interning for the encoder: serialized term bytes →
/// dense index, assigned in emission order. The first occurrence is
/// written out verbatim; repeats become kTermDictRef + index.
struct BatchTermEncoder {
  std::unordered_map<std::string, uint32_t> ids;
};

/// Decoder mirror: every inline / proxy-ref term appends here in decode
/// order (exactly the encoder's first occurrences), so a dict-ref index
/// addresses this vector directly. Cleared at each commit marker.
struct BatchTermDecoder {
  std::vector<Term> terms;
};

Status SerializeWalTerm(const Term& term, BatchTermEncoder& enc,
                        std::string* out) {
  std::string one;
  // Proxies log as (storage, id) references — the payload already lives in
  // the back-end; inlining it would double-store every stored array.
  bool encoded = false;
  if (term.kind() == Term::Kind::kArray && !term.array()->resident()) {
    auto* proxy = dynamic_cast<const ArrayProxy*>(term.array().get());
    if (proxy != nullptr && proxy->storage() != nullptr) {
      one.push_back(static_cast<char>(kTermProxyRef));
      rdf::PutString(&one, proxy->storage()->name());
      rdf::PutU64(&one, static_cast<uint64_t>(proxy->array_id()));
      encoded = true;
    }
  }
  if (!encoded) {
    one.push_back(static_cast<char>(kTermInline));
    SCISPARQL_RETURN_NOT_OK(rdf::SerializeTerm(term, &one));
  }
  auto [it, fresh] =
      enc.ids.emplace(one, static_cast<uint32_t>(enc.ids.size()));
  if (!fresh) {
    out->push_back(static_cast<char>(kTermDictRef));
    rdf::PutU32(out, it->second);
    return Status::OK();
  }
  out->append(one);
  return Status::OK();
}

Result<Term> DeserializeWalTerm(
    const std::string& data, size_t* pos,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    BatchTermDecoder& dec) {
  if (*pos >= data.size()) return Status::Internal("truncated WAL term");
  uint8_t tag = static_cast<uint8_t>(data[(*pos)++]);
  if (tag == kTermDictRef) {
    uint32_t idx;
    if (!rdf::GetU32(data, pos, &idx)) {
      return Status::Internal("truncated WAL term back-reference");
    }
    if (idx >= dec.terms.size()) {
      return Status::Internal("WAL term back-reference out of range");
    }
    return dec.terms[idx];
  }
  Term term;
  if (tag == kTermInline) {
    SCISPARQL_ASSIGN_OR_RETURN(term, rdf::DeserializeTerm(data, pos));
  } else if (tag == kTermProxyRef) {
    std::string storage_name;
    uint64_t id;
    if (!rdf::GetString(data, pos, &storage_name) ||
        !rdf::GetU64(data, pos, &id)) {
      return Status::Internal("truncated WAL proxy reference");
    }
    if (!resolve_ref) {
      return Status::IoError("WAL record references array storage '" +
                             storage_name + "' but no resolver is attached");
    }
    SCISPARQL_ASSIGN_OR_RETURN(term, resolve_ref(storage_name, id));
  } else {
    return Status::Internal("unknown WAL term tag");
  }
  dec.terms.push_back(term);
  return term;
}

std::string EncodeRecordPayload(const WalRecord& rec, BatchTermEncoder& enc,
                                Status* status) {
  std::string payload;
  rdf::PutU64(&payload, rec.lsn);
  payload.push_back(static_cast<char>(rec.type));
  switch (rec.type) {
    case WalRecord::Type::kAdd:
    case WalRecord::Type::kRemove: {
      rdf::PutString(&payload, rec.graph);
      Status st = SerializeWalTerm(rec.triple.s, enc, &payload);
      if (st.ok()) st = SerializeWalTerm(rec.triple.p, enc, &payload);
      if (st.ok()) st = SerializeWalTerm(rec.triple.o, enc, &payload);
      if (!st.ok()) *status = st;
      break;
    }
    case WalRecord::Type::kClearGraph:
      rdf::PutString(&payload, rec.graph);
      break;
    case WalRecord::Type::kTermBump:
      rdf::PutU64(&payload, rec.aux);
      break;
    case WalRecord::Type::kClearAll:
    case WalRecord::Type::kCommit:
      break;
  }
  return payload;
}

Result<WalRecord> DecodeRecordPayload(
    const std::string& payload,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    BatchTermDecoder& dec) {
  WalRecord rec;
  size_t pos = 0;
  if (!rdf::GetU64(payload, &pos, &rec.lsn) || pos >= payload.size()) {
    return Status::Internal("truncated WAL record header");
  }
  rec.type = static_cast<WalRecord::Type>(payload[pos++]);
  switch (rec.type) {
    case WalRecord::Type::kAdd:
    case WalRecord::Type::kRemove: {
      if (!rdf::GetString(payload, &pos, &rec.graph)) {
        return Status::Internal("truncated WAL record graph");
      }
      SCISPARQL_ASSIGN_OR_RETURN(
          rec.triple.s, DeserializeWalTerm(payload, &pos, resolve_ref, dec));
      SCISPARQL_ASSIGN_OR_RETURN(
          rec.triple.p, DeserializeWalTerm(payload, &pos, resolve_ref, dec));
      SCISPARQL_ASSIGN_OR_RETURN(
          rec.triple.o, DeserializeWalTerm(payload, &pos, resolve_ref, dec));
      return rec;
    }
    case WalRecord::Type::kClearGraph:
      if (!rdf::GetString(payload, &pos, &rec.graph)) {
        return Status::Internal("truncated WAL record graph");
      }
      return rec;
    case WalRecord::Type::kTermBump:
      if (!rdf::GetU64(payload, &pos, &rec.aux)) {
        return Status::Internal("truncated WAL term-bump record");
      }
      return rec;
    case WalRecord::Type::kClearAll:
    case WalRecord::Type::kCommit:
      return rec;
  }
  return Status::Internal("unknown WAL record type");
}

void FrameRecord(const std::string& payload, std::string* out) {
  rdf::PutU32(out, static_cast<uint32_t>(payload.size()));
  rdf::PutU32(out, Crc32cMask(Crc32c(payload)));
  out->append(payload);
}

}  // namespace

Result<std::unique_ptr<WalWriter>> WalWriter::Create(Vfs* vfs, std::string dir,
                                                     uint64_t next_lsn) {
  SCISPARQL_RETURN_NOT_OK(vfs->CreateDir(dir));
  return std::unique_ptr<WalWriter>(
      new WalWriter(vfs, std::move(dir), next_lsn));
}

Status WalWriter::EnsureSegmentLocked() {
  if (file_ != nullptr) return Status::OK();
  uint64_t first_lsn = next_lsn_.load(std::memory_order_relaxed);
  std::string path = dir_ + "/" + WalSegmentFileName(first_lsn);
  SCISPARQL_ASSIGN_OR_RETURN(file_, vfs_->Open(path, Vfs::OpenMode::kTruncate));
  std::string header(kSegmentMagic, 4);
  rdf::PutU32(&header, kSegmentFormat);
  rdf::PutU64(&header, first_lsn);
  Status st = file_->WriteAt(0, header.data(), header.size());
  if (!st.ok()) {
    file_.reset();
    return st;
  }
  offset_ = header.size();
  return Status::OK();
}

Status WalWriter::AppendBatch(std::vector<WalRecord>& records,
                              uint64_t* commit_lsn) {
  std::unique_lock<std::mutex> lock(mu_);
  if (!sticky_error_.ok()) return sticky_error_;

  // The segment file is named by the first LSN it contains, so it must be
  // created before this batch advances the counter (first batch after a
  // Create/Rotate/ResetTo). No-op when the segment is already open.
  {
    Status seg = EnsureSegmentLocked();
    if (!seg.ok()) {
      sticky_error_ = seg;
      cv_.notify_all();
      return seg;
    }
  }

  // Encode and enqueue under the mutex: LSN assignment order, pending
  // buffer order and on-disk order coincide, so replication always ships
  // monotonically increasing LSNs even with concurrent committers.
  std::string blob;
  Status encode_status = Status::OK();
  BatchTermEncoder enc;
  uint64_t lsn = next_lsn_.load(std::memory_order_relaxed);
  for (WalRecord& rec : records) {
    rec.lsn = lsn++;
    FrameRecord(EncodeRecordPayload(rec, enc, &encode_status), &blob);
    if (!encode_status.ok()) return encode_status;
  }
  WalRecord commit;
  commit.type = WalRecord::Type::kCommit;
  commit.lsn = lsn++;
  FrameRecord(EncodeRecordPayload(commit, enc, &encode_status), &blob);
  if (!encode_status.ok()) return encode_status;

  const uint64_t my_commit = commit.lsn;
  next_lsn_.store(lsn, std::memory_order_release);
  pending_.append(blob);
  pending_last_commit_ = my_commit;
  if (commit_lsn != nullptr) *commit_lsn = my_commit;

  if (flushing_) {
    // Follower: a leader is on the device and will pick our bytes up in
    // its drain loop (or we become leader below once it hands off).
    cv_.wait(lock, [&] {
      return !sticky_error_.ok() || synced_lsn_ >= my_commit || !flushing_;
    });
    if (synced_lsn_ >= my_commit) {
      appends_.fetch_add(1, std::memory_order_acq_rel);
      return Status::OK();
    }
    if (!sticky_error_.ok()) return sticky_error_;
    // Leader finished without covering us (we enqueued after its last
    // drain check): fall through and lead the next group ourselves.
  }

  // Leader: drain the pending buffer — one write + one fsync per pass,
  // covering every batch that piled up while the previous pass was on the
  // device.
  flushing_ = true;
  Status st = EnsureSegmentLocked();
  while (st.ok() && !pending_.empty()) {
    std::string group;
    group.swap(pending_);
    const uint64_t group_commit = pending_last_commit_;
    const uint64_t off = offset_;
    VfsFile* file = file_.get();
    lock.unlock();
    st = file->WriteAt(off, group.data(), group.size());
    if (st.ok()) st = file->Sync();
    lock.lock();
    if (!st.ok()) break;
    // Only a fully durable group advances the log: a torn write leaves
    // garbage past offset_ that the next successful flush overwrites.
    offset_ = off + group.size();
    synced_lsn_ = std::max(synced_lsn_, group_commit);
    fsyncs_.fetch_add(1, std::memory_order_acq_rel);
    bytes_written_.fetch_add(group.size(), std::memory_order_acq_rel);
    if (on_sync_) on_sync_(group.size());
    cv_.notify_all();
  }
  flushing_ = false;
  if (!st.ok()) {
    sticky_error_ = st;
    cv_.notify_all();
    return st;
  }
  cv_.notify_all();
  appends_.fetch_add(1, std::memory_order_acq_rel);
  return Status::OK();
}

Status WalWriter::AppendRaw(const std::string& frames, uint64_t next_lsn) {
  if (frames.empty()) return Status::OK();
  std::unique_lock<std::mutex> lock(mu_);
  // Write-through is single-writer (the replica applier), but wait out any
  // in-flight group so the two paths never interleave on the device.
  cv_.wait(lock, [&] { return !flushing_ || !sticky_error_.ok(); });
  if (!sticky_error_.ok()) return sticky_error_;
  Status st = EnsureSegmentLocked();
  if (st.ok()) st = file_->WriteAt(offset_, frames.data(), frames.size());
  if (st.ok()) st = file_->Sync();
  if (!st.ok()) {
    sticky_error_ = st;
    cv_.notify_all();
    return st;
  }
  offset_ += frames.size();
  next_lsn_.store(next_lsn, std::memory_order_release);
  appends_.fetch_add(1, std::memory_order_acq_rel);
  fsyncs_.fetch_add(1, std::memory_order_acq_rel);
  bytes_written_.fetch_add(frames.size(), std::memory_order_acq_rel);
  if (on_sync_) on_sync_(frames.size());
  return Status::OK();
}

void WalWriter::Rotate() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return !flushing_; });
  file_.reset();
  offset_ = 0;
}

void WalWriter::ResetTo(uint64_t next_lsn) {
  Rotate();
  std::lock_guard<std::mutex> lock(mu_);
  next_lsn_.store(next_lsn, std::memory_order_release);
}

namespace {

/// Scans the frame stream in data[pos, end) applying committed batches
/// above `after_lsn` — the loop ReplayWal and ApplyWalFrames share. A
/// statement's batch never spans streams, so pending records left without
/// a commit marker at stream end count as torn. A torn or CRC-invalid
/// frame stops the scan with a non-empty *stop_reason; the caller decides
/// whether that is a clean tail (final segment mid-append) or corruption.
Status ScanFrameStream(
    const std::string& data, size_t pos, uint64_t after_lsn,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    const std::function<Status(const WalRecord&)>& apply,
    WalReplayStats* stats, std::string* stop_reason) {
  std::vector<WalRecord> pending;
  BatchTermDecoder dec;
  while (pos < data.size()) {
    uint32_t len, stored_crc;
    if (!rdf::GetU32(data, &pos, &len) ||
        !rdf::GetU32(data, &pos, &stored_crc) || pos + len > data.size()) {
      *stop_reason = "truncated record frame";
      return Status::OK();
    }
    std::string payload = data.substr(pos, len);
    pos += len;
    if (Crc32cUnmask(stored_crc) != Crc32c(payload)) {
      *stop_reason = "record checksum mismatch";
      return Status::OK();
    }
    SCISPARQL_ASSIGN_OR_RETURN(
        WalRecord rec, DecodeRecordPayload(payload, resolve_ref, dec));
    if (rec.type == WalRecord::Type::kCommit) {
      // Back-references are batch-scoped; the commit marker ends the
      // encoder's scope, so the decoder's mirror resets with it.
      dec.terms.clear();
      for (const WalRecord& r : pending) {
        if (r.lsn <= after_lsn) {
          ++stats->records_skipped;
          continue;
        }
        SCISPARQL_RETURN_NOT_OK(apply(r));
        ++stats->records_applied;
      }
      if (!pending.empty() && pending.back().lsn > after_lsn) {
        ++stats->batches_applied;
      }
      stats->last_lsn = std::max(stats->last_lsn, rec.lsn);
      pending.clear();
    } else {
      pending.push_back(std::move(rec));
    }
  }
  if (!pending.empty()) {
    // Records without a commit marker at stream end: the process died
    // between the write and the fsync's completion being observed.
    *stop_reason = "uncommitted batch at segment end";
  }
  return Status::OK();
}

}  // namespace

Result<WalReplayStats> ReplayWal(
    Vfs* vfs, const std::string& dir, uint64_t after_lsn,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    const std::function<Status(const WalRecord&)>& apply) {
  WalReplayStats stats;
  SCISPARQL_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                             ListWalSegments(vfs, dir));
  for (size_t si = 0; si < segments.size(); ++si) {
    const bool final_segment = si + 1 == segments.size();
    SCISPARQL_ASSIGN_OR_RETURN(
        std::unique_ptr<VfsFile> f,
        vfs->Open(segments[si].path, Vfs::OpenMode::kRead));
    SCISPARQL_ASSIGN_OR_RETURN(uint64_t size, f->Size());
    std::string data(size, '\0');
    SCISPARQL_ASSIGN_OR_RETURN(size_t got, f->ReadAt(0, data.data(), size));
    data.resize(got);

    std::string stop_reason;
    if (data.size() < kSegmentHeaderSize ||
        std::memcmp(data.data(), kSegmentMagic, 4) != 0) {
      stop_reason = "bad segment header";
    } else {
      SCISPARQL_RETURN_NOT_OK(ScanFrameStream(data, kSegmentHeaderSize,
                                              after_lsn, resolve_ref, apply,
                                              &stats, &stop_reason));
    }
    if (!stop_reason.empty()) {
      if (!final_segment) {
        return Status::IoError("corrupt WAL record in non-final segment " +
                               segments[si].path + " (" + stop_reason +
                               "): acknowledged updates may be lost");
      }
      stats.torn_tail = true;
    }
  }
  return stats;
}

Result<WalReplayStats> ApplyWalFrames(
    const std::string& frames, uint64_t after_lsn,
    const std::function<Result<Term>(const std::string&, uint64_t)>&
        resolve_ref,
    const std::function<Status(const WalRecord&)>& apply) {
  WalReplayStats stats;
  std::string stop_reason;
  SCISPARQL_RETURN_NOT_OK(ScanFrameStream(frames, 0, after_lsn, resolve_ref,
                                          apply, &stats, &stop_reason));
  if (!stop_reason.empty()) {
    return Status::IoError("corrupt shipped WAL frames (" + stop_reason +
                           ")");
  }
  return stats;
}

Result<WalShipment> ReadWalShipment(Vfs* vfs, const std::string& dir,
                                    uint64_t after_lsn, size_t max_bytes) {
  SCISPARQL_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                             ListWalSegments(vfs, dir));
  if (segments.empty() || segments[0].first_lsn > after_lsn + 1) {
    return Status::OutOfRange(
        "WAL no longer reaches back to lsn " + std::to_string(after_lsn) +
        " (truncated by a checkpoint); bootstrap from a snapshot");
  }
  // Start at the last segment whose first LSN is <= after_lsn + 1: every
  // earlier one holds only records the requester already has.
  size_t start = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (segments[i].first_lsn <= after_lsn + 1) start = i;
  }

  WalShipment out;
  out.last_lsn = after_lsn;
  for (size_t si = start; si < segments.size(); ++si) {
    const bool final_segment = si + 1 == segments.size();
    Result<std::unique_ptr<VfsFile>> f =
        vfs->Open(segments[si].path, Vfs::OpenMode::kRead);
    if (!f.ok()) {
      // A concurrent checkpoint may delete a segment between listing and
      // open; the requester retries and sees the post-truncation picture.
      if (f.status().code() == StatusCode::kNotFound) {
        return Status::Unavailable("WAL segment vanished (checkpoint in "
                                   "progress); retry");
      }
      return f.status();
    }
    SCISPARQL_ASSIGN_OR_RETURN(uint64_t size, (*f)->Size());
    std::string data(size, '\0');
    SCISPARQL_ASSIGN_OR_RETURN(size_t got, (*f)->ReadAt(0, data.data(), size));
    data.resize(got);

    std::string stop_reason;
    size_t pos = kSegmentHeaderSize;
    if (data.size() < kSegmentHeaderSize ||
        std::memcmp(data.data(), kSegmentMagic, 4) != 0) {
      stop_reason = "bad segment header";
      pos = data.size();
    }
    // Collect raw frames batch-wise: only CRC-valid, committed batches
    // ship. Record payloads are not term-decoded — the LSN/type prefix is
    // enough to find batch boundaries, and the bytes travel verbatim.
    std::string batch;
    while (pos < data.size()) {
      size_t frame_start = pos;
      uint32_t len, stored_crc;
      if (!rdf::GetU32(data, &pos, &len) ||
          !rdf::GetU32(data, &pos, &stored_crc) || pos + len > data.size()) {
        stop_reason = "truncated record frame";
        break;
      }
      std::string payload = data.substr(pos, len);
      pos += len;
      if (Crc32cUnmask(stored_crc) != Crc32c(payload)) {
        stop_reason = "record checksum mismatch";
        break;
      }
      uint64_t lsn;
      size_t ppos = 0;
      if (!rdf::GetU64(payload, &ppos, &lsn) || ppos >= payload.size()) {
        stop_reason = "truncated record header";
        break;
      }
      auto type = static_cast<WalRecord::Type>(payload[ppos]);
      batch.append(data, frame_start, pos - frame_start);
      if (type != WalRecord::Type::kCommit) continue;
      if (lsn > after_lsn) {
        out.frames += batch;
        out.last_lsn = lsn;
        if (out.frames.size() >= max_bytes) {
          out.truncated = true;
          return out;
        }
      }
      batch.clear();
    }
    if (!batch.empty() && stop_reason.empty()) {
      stop_reason = "uncommitted batch at segment end";
    }
    if (!stop_reason.empty()) {
      if (!final_segment) {
        return Status::IoError("corrupt WAL record in non-final segment " +
                               segments[si].path + " (" + stop_reason +
                               "): acknowledged updates may be lost");
      }
      break;  // writer mid-append; ship what is committed so far
    }
  }
  return out;
}

Status TruncateWalBelow(Vfs* vfs, const std::string& dir,
                        uint64_t keep_from_lsn) {
  SCISPARQL_ASSIGN_OR_RETURN(std::vector<WalSegmentInfo> segments,
                             ListWalSegments(vfs, dir));
  for (const WalSegmentInfo& seg : segments) {
    if (seg.first_lsn < keep_from_lsn) {
      SCISPARQL_RETURN_NOT_OK(vfs->Remove(seg.path));
    }
  }
  return Status::OK();
}

}  // namespace storage
}  // namespace scisparql
