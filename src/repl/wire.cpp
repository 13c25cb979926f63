#include "repl/wire.h"

#include "client/server.h"
#include "rdf/term_codec.h"

namespace scisparql {
namespace repl {

namespace {

using rdf::GetString;
using rdf::GetU32;
using rdf::GetU64;
using rdf::PutString;
using rdf::PutU32;
using rdf::PutU64;

/// Strips the [0x02][verb] envelope, enforcing the expected verb.
Result<std::string> Unwrap(const std::string& payload, char verb,
                           const char* what) {
  if (payload.size() < 2 || payload[0] != kReplMarker || payload[1] != verb) {
    return Status::IoError(std::string("malformed ") + what + " payload");
  }
  return payload.substr(2);
}

}  // namespace

std::string EncodeProbeRequest() {
  return std::string() + kReplMarker + kReplProbe;
}

std::string EncodeSnapshotRequest() {
  return std::string() + kReplMarker + kReplSnapshot;
}

std::string EncodeFetchRequest(const ReplFetchRequest& req) {
  std::string out;
  out.push_back(kReplMarker);
  out.push_back(kReplFetch);
  PutString(&out, req.replica_id);
  PutU64(&out, req.after_lsn);
  PutU64(&out, req.applied_lsn);
  PutU32(&out, req.max_bytes);
  PutU64(&out, req.term);
  return out;
}

Result<ReplFetchRequest> DecodeFetchRequest(const std::string& payload) {
  SCISPARQL_ASSIGN_OR_RETURN(std::string body,
                             Unwrap(payload, kReplFetch, "repl fetch"));
  ReplFetchRequest req;
  size_t pos = 0;
  if (!GetString(body, &pos, &req.replica_id) ||
      !GetU64(body, &pos, &req.after_lsn) ||
      !GetU64(body, &pos, &req.applied_lsn) ||
      !GetU32(body, &pos, &req.max_bytes) ||
      !GetU64(body, &pos, &req.term) || pos != body.size()) {
    return Status::IoError("malformed repl fetch body");
  }
  return req;
}

std::string EncodeProbeReply(const ReplProbeReply& reply) {
  std::string out;
  out.push_back(kReplMarker);
  out.push_back(kReplProbeReply);
  PutU64(&out, reply.lsn);
  out.push_back(reply.replica ? 1 : 0);
  PutU64(&out, reply.term);
  PutString(&out, reply.node_id);
  return out;
}

Result<ReplProbeReply> DecodeProbeReply(const std::string& payload) {
  SCISPARQL_ASSIGN_OR_RETURN(std::string body,
                             Unwrap(payload, kReplProbeReply, "repl probe"));
  ReplProbeReply reply;
  size_t pos = 0;
  if (!GetU64(body, &pos, &reply.lsn) || pos >= body.size()) {
    return Status::IoError("malformed repl probe body");
  }
  reply.replica = body[pos++] != 0;
  if (!GetU64(body, &pos, &reply.term) ||
      !GetString(body, &pos, &reply.node_id) || pos != body.size()) {
    return Status::IoError("malformed repl probe body");
  }
  return reply;
}

std::string EncodeBatchReply(const ReplBatchReply& reply) {
  std::string out;
  out.push_back(kReplMarker);
  out.push_back(kReplBatchReply);
  PutU64(&out, reply.primary_lsn);
  PutU64(&out, reply.last_lsn);
  out.push_back(reply.truncated ? 1 : 0);
  PutString(&out, reply.frames);
  PutU64(&out, reply.term);
  return out;
}

Result<ReplBatchReply> DecodeBatchReply(const std::string& payload) {
  SCISPARQL_ASSIGN_OR_RETURN(std::string body,
                             Unwrap(payload, kReplBatchReply, "repl batch"));
  ReplBatchReply reply;
  size_t pos = 0;
  if (!GetU64(body, &pos, &reply.primary_lsn) ||
      !GetU64(body, &pos, &reply.last_lsn) || pos >= body.size()) {
    return Status::IoError("malformed repl batch body");
  }
  reply.truncated = body[pos++] != 0;
  if (!GetString(body, &pos, &reply.frames) ||
      !GetU64(body, &pos, &reply.term) || pos != body.size()) {
    return Status::IoError("malformed repl batch frames");
  }
  return reply;
}

std::string EncodeSnapshotBody(
    const std::vector<storage::SnapshotSection>& sections, uint64_t lsn,
    uint64_t term) {
  std::string out;
  PutU64(&out, lsn);
  PutU32(&out, static_cast<uint32_t>(sections.size()));
  for (const storage::SnapshotSection& sec : sections) {
    PutString(&out, sec.graph_iri);
    PutString(&out, sec.body);
  }
  PutU64(&out, term);
  return out;
}

Status DecodeSnapshotBody(const std::string& body,
                          std::vector<storage::SnapshotSection>* sections,
                          uint64_t* lsn, uint64_t* term) {
  *term = 0;
  size_t pos = 0;
  uint32_t n = 0;
  if (!GetU64(body, &pos, lsn) || !GetU32(body, &pos, &n)) {
    return Status::IoError("malformed repl snapshot header");
  }
  sections->clear();
  for (uint32_t i = 0; i < n; ++i) {
    storage::SnapshotSection sec;
    if (!GetString(body, &pos, &sec.graph_iri) ||
        !GetString(body, &pos, &sec.body)) {
      return Status::IoError("malformed repl snapshot section");
    }
    sections->push_back(std::move(sec));
  }
  // Pre-failover snapshot bodies end here; newer ones append the term.
  if (pos < body.size() && !GetU64(body, &pos, term)) {
    return Status::IoError("malformed repl snapshot term");
  }
  if (pos != body.size()) {
    return Status::IoError("trailing bytes in repl snapshot body");
  }
  return Status::OK();
}

std::string EncodeSnapshotReply(const ReplSnapshotReply& reply) {
  std::string out;
  out.push_back(kReplMarker);
  out.push_back(kReplSnapshotReply);
  out += EncodeSnapshotBody(reply.sections, reply.lsn, reply.term);
  return out;
}

Result<ReplSnapshotReply> DecodeSnapshotReply(const std::string& payload) {
  SCISPARQL_ASSIGN_OR_RETURN(
      std::string body, Unwrap(payload, kReplSnapshotReply, "repl snapshot"));
  ReplSnapshotReply reply;
  SCISPARQL_RETURN_NOT_OK(
      DecodeSnapshotBody(body, &reply.sections, &reply.lsn, &reply.term));
  return reply;
}

Result<ReplProbeReply> ProbeLsn(client::RemoteSession* session) {
  SCISPARQL_ASSIGN_OR_RETURN(
      std::string payload,
      session->Call(EncodeProbeRequest(), /*retry_safe=*/true));
  return DecodeProbeReply(payload);
}

Result<ReplBatchReply> FetchBatch(client::RemoteSession* session,
                                  const ReplFetchRequest& req) {
  SCISPARQL_ASSIGN_OR_RETURN(
      std::string payload,
      session->Call(EncodeFetchRequest(req), /*retry_safe=*/true));
  return DecodeBatchReply(payload);
}

Result<ReplSnapshotReply> FetchSnapshot(client::RemoteSession* session) {
  // Snapshots can dwarf the frame budget of normal traffic but stay under
  // the protocol's 64 MiB frame cap; idempotent, so retry-safe.
  SCISPARQL_ASSIGN_OR_RETURN(
      std::string payload,
      session->Call(EncodeSnapshotRequest(), /*retry_safe=*/true));
  return DecodeSnapshotReply(payload);
}

}  // namespace repl
}  // namespace scisparql
