#include "storage/snapshot.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "common/crc32c.h"
#include "rdf/term_codec.h"

namespace scisparql {
namespace storage {

namespace {

constexpr char kMagic[4] = {'S', 'S', 'N', 'P'};
constexpr uint32_t kFormat = 1;
constexpr uint8_t kSectionTag = 0x01;
constexpr uint8_t kFooterTag = 0x02;

std::string EncodeFooterPayload(const SnapshotFooter& footer) {
  std::string payload;
  rdf::PutU64(&payload, footer.wal_lsn);
  rdf::PutU32(&payload, static_cast<uint32_t>(footer.graphs.size()));
  for (const SnapshotGraphInfo& g : footer.graphs) {
    rdf::PutString(&payload, g.iri);
    rdf::PutU64(&payload, g.version);
    rdf::PutU64(&payload, g.triples);
  }
  rdf::PutU64(&payload, footer.term);
  return payload;
}

Result<SnapshotFooter> DecodeFooterPayload(const std::string& payload) {
  SnapshotFooter footer;
  size_t pos = 0;
  uint32_t n_graphs;
  if (!rdf::GetU64(payload, &pos, &footer.wal_lsn) ||
      !rdf::GetU32(payload, &pos, &n_graphs)) {
    return Status::IoError("snapshot footer truncated");
  }
  footer.graphs.resize(n_graphs);
  for (SnapshotGraphInfo& g : footer.graphs) {
    if (!rdf::GetString(payload, &pos, &g.iri) ||
        !rdf::GetU64(payload, &pos, &g.version) ||
        !rdf::GetU64(payload, &pos, &g.triples)) {
      return Status::IoError("snapshot footer truncated");
    }
  }
  // The fencing term was appended to the payload later; snapshots written
  // before it simply end here and recover as term 0 (adopted upward).
  if (pos < payload.size()) {
    if (!rdf::GetU64(payload, &pos, &footer.term)) {
      return Status::IoError("snapshot footer truncated");
    }
  }
  return footer;
}

}  // namespace

Status WriteSnapshot(Vfs* vfs, const std::string& path,
                     const std::vector<SnapshotSection>& sections,
                     const SnapshotFooter& footer) {
  std::string blob(kMagic, 4);
  rdf::PutU32(&blob, kFormat);
  for (const SnapshotSection& sec : sections) {
    blob.push_back(static_cast<char>(kSectionTag));
    rdf::PutU32(&blob, static_cast<uint32_t>(sec.graph_iri.size()));
    blob.append(sec.graph_iri);
    rdf::PutU64(&blob, sec.body.size());
    blob.append(sec.body);
    uint32_t crc = Crc32c(sec.graph_iri);
    crc = Crc32cExtend(crc, sec.body.data(), sec.body.size());
    rdf::PutU32(&blob, Crc32cMask(crc));
  }
  std::string payload = EncodeFooterPayload(footer);
  blob.push_back(static_cast<char>(kFooterTag));
  rdf::PutU32(&blob, static_cast<uint32_t>(payload.size()));
  blob.append(payload);
  rdf::PutU32(&blob, Crc32cMask(Crc32c(payload)));

  std::string tmp = path + ".tmp";
  {
    SCISPARQL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> f,
                               vfs->Open(tmp, Vfs::OpenMode::kTruncate));
    SCISPARQL_RETURN_NOT_OK(f->WriteAt(0, blob.data(), blob.size()));
    SCISPARQL_RETURN_NOT_OK(f->Sync());
  }
  return vfs->Rename(tmp, path);
}

Result<SnapshotContents> ReadSnapshot(Vfs* vfs, const std::string& path) {
  SCISPARQL_ASSIGN_OR_RETURN(std::unique_ptr<VfsFile> f,
                             vfs->Open(path, Vfs::OpenMode::kRead));
  SCISPARQL_ASSIGN_OR_RETURN(uint64_t size, f->Size());
  std::string data(size, '\0');
  SCISPARQL_ASSIGN_OR_RETURN(size_t got, f->ReadAt(0, data.data(), size));
  if (got != size) return Status::IoError("snapshot short read: " + path);

  size_t pos = 0;
  uint32_t format;
  if (data.size() < 8 || std::memcmp(data.data(), kMagic, 4) != 0) {
    return Status::IoError("not an SSNP snapshot (bad magic): " + path);
  }
  pos = 4;
  if (!rdf::GetU32(data, &pos, &format) || format != kFormat) {
    return Status::IoError("unsupported snapshot format: " + path);
  }

  SnapshotContents out;
  bool saw_footer = false;
  while (pos < data.size()) {
    uint8_t tag = static_cast<uint8_t>(data[pos++]);
    if (tag == kSectionTag) {
      SnapshotSection sec;
      uint32_t iri_len, stored_crc;
      uint64_t body_len;
      if (!rdf::GetU32(data, &pos, &iri_len) || pos + iri_len > data.size()) {
        return Status::IoError("snapshot section truncated: " + path);
      }
      sec.graph_iri.assign(data, pos, iri_len);
      pos += iri_len;
      if (!rdf::GetU64(data, &pos, &body_len) || pos + body_len > data.size()) {
        return Status::IoError("snapshot section truncated: " + path);
      }
      sec.body.assign(data, pos, body_len);
      pos += body_len;
      if (!rdf::GetU32(data, &pos, &stored_crc)) {
        return Status::IoError("snapshot section truncated: " + path);
      }
      uint32_t crc = Crc32c(sec.graph_iri);
      crc = Crc32cExtend(crc, sec.body.data(), sec.body.size());
      if (Crc32cUnmask(stored_crc) != crc) {
        return Status::IoError("snapshot section checksum mismatch: " + path +
                               " (graph '" + sec.graph_iri + "')");
      }
      out.sections.push_back(std::move(sec));
    } else if (tag == kFooterTag) {
      uint32_t payload_len, stored_crc;
      if (!rdf::GetU32(data, &pos, &payload_len) ||
          pos + payload_len > data.size()) {
        return Status::IoError("snapshot footer truncated: " + path);
      }
      std::string payload = data.substr(pos, payload_len);
      pos += payload_len;
      if (!rdf::GetU32(data, &pos, &stored_crc) ||
          Crc32cUnmask(stored_crc) != Crc32c(payload)) {
        return Status::IoError("snapshot footer checksum mismatch: " + path);
      }
      SCISPARQL_ASSIGN_OR_RETURN(out.footer, DecodeFooterPayload(payload));
      saw_footer = true;
      if (pos != data.size()) {
        return Status::IoError("trailing bytes after snapshot footer: " + path);
      }
    } else {
      return Status::IoError("unknown snapshot tag: " + path);
    }
  }
  // A snapshot without a footer was cut off before the final write — the
  // atomic-rename protocol should make this impossible, but a damaged
  // filesystem can still hand it to us.
  if (!saw_footer) return Status::IoError("snapshot missing footer: " + path);
  return out;
}

std::string SnapshotFileName(uint64_t seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "snap-%016" PRIx64 ".ssnp", seq);
  return buf;
}

Result<std::vector<std::pair<uint64_t, std::string>>> ListSnapshots(
    Vfs* vfs, const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> snaps;
  auto names = vfs->ListDir(dir);
  if (!names.ok()) {
    if (names.status().code() == StatusCode::kNotFound) return snaps;
    return names.status();
  }
  for (const std::string& name : *names) {
    if (name.size() != 5 + 16 + 5 || name.rfind("snap-", 0) != 0 ||
        name.compare(name.size() - 5, 5, ".ssnp") != 0) {
      continue;
    }
    uint64_t seq = 0;
    bool valid = true;
    for (size_t i = 5; i < 21 && valid; ++i) {
      char c = name[i];
      if (c >= '0' && c <= '9') seq = (seq << 4) | static_cast<uint64_t>(c - '0');
      else if (c >= 'a' && c <= 'f') seq = (seq << 4) | static_cast<uint64_t>(c - 'a' + 10);
      else valid = false;
    }
    if (valid) snaps.emplace_back(seq, dir + "/" + name);
  }
  std::sort(snaps.begin(), snaps.end());
  return snaps;
}

}  // namespace storage
}  // namespace scisparql
