#include "client/protocol.h"

#include <cstring>

#include "rdf/term_codec.h"

namespace scisparql {
namespace client {

using rdf::GetString;
using rdf::GetU32;
using rdf::GetU64;
using rdf::PutString;
using rdf::PutU32;
using rdf::PutU64;

Status SerializeTerm(const Term& term, std::string* out) {
  return rdf::SerializeTerm(term, out);
}

Result<Term> DeserializeTerm(const std::string& data, size_t* pos) {
  return rdf::DeserializeTerm(data, pos);
}

std::string SerializeResult(const sparql::QueryResult& result) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(result.columns.size()));
  for (const std::string& c : result.columns) PutString(&out, c);
  PutU32(&out, static_cast<uint32_t>(result.rows.size()));
  for (const auto& row : result.rows) {
    for (const Term& t : row) {
      Status st = SerializeTerm(t, &out);
      if (!st.ok()) {
        // Unserializable cell (e.g. dead proxy): degrade to UNDEF.
        out.push_back(static_cast<char>(Term::Kind::kUndef));
      }
    }
  }
  return out;
}

Result<sparql::QueryResult> DeserializeResult(const std::string& data) {
  sparql::QueryResult result;
  size_t pos = 0;
  uint32_t cols;
  if (!GetU32(data, &pos, &cols)) return Status::Internal("bad result");
  for (uint32_t c = 0; c < cols; ++c) {
    std::string name;
    if (!GetString(data, &pos, &name)) return Status::Internal("bad result");
    result.columns.push_back(std::move(name));
  }
  uint32_t rows;
  if (!GetU32(data, &pos, &rows)) return Status::Internal("bad result");
  for (uint32_t r = 0; r < rows; ++r) {
    std::vector<Term> row;
    for (uint32_t c = 0; c < cols; ++c) {
      SCISPARQL_ASSIGN_OR_RETURN(Term t, DeserializeTerm(data, &pos));
      row.push_back(std::move(t));
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

std::string Frame(const std::string& payload) {
  std::string out;
  PutU32(&out, static_cast<uint32_t>(payload.size()));
  out += payload;
  return out;
}

namespace {

constexpr uint8_t kFlagWantTrace = 1u << 0;
constexpr uint8_t kFlagHasOptimize = 1u << 1;
constexpr uint8_t kFlagOptimizeValue = 1u << 2;
constexpr uint8_t kFlagHasPushFilters = 1u << 3;
constexpr uint8_t kFlagPushFiltersValue = 1u << 4;
constexpr uint8_t kFlagPreparedExec = 1u << 5;

}  // namespace

std::string EncodeRequest(const WireRequest& req) {
  std::string out;
  out.push_back(kStructuredMarker);
  uint8_t flags = 0;
  if (req.want_trace) flags |= kFlagWantTrace;
  if (req.has_optimize) {
    flags |= kFlagHasOptimize;
    if (req.optimize) flags |= kFlagOptimizeValue;
  }
  if (req.has_push_filters) {
    flags |= kFlagHasPushFilters;
    if (req.push_filters) flags |= kFlagPushFiltersValue;
  }
  if (req.is_prepared) flags |= kFlagPreparedExec;
  out.push_back(static_cast<char>(flags));
  PutU64(&out, static_cast<uint64_t>(req.timeout.count()));
  if (req.is_prepared) {
    PutString(&out, req.prepared_name);
    PutU32(&out, static_cast<uint32_t>(req.prepared_args.size()));
    for (const Term& a : req.prepared_args) {
      Status st = SerializeTerm(a, &out);
      if (!st.ok()) {
        // Unserializable argument (e.g. dead proxy): degrade to UNDEF, as
        // the result serializer does for cells.
        out.push_back(static_cast<char>(Term::Kind::kUndef));
      }
    }
    return out;
  }
  out += req.text;
  return out;
}

Result<WireRequest> DecodeRequest(const std::string& payload) {
  if (payload.size() < 10 || payload[0] != kStructuredMarker) {
    return Status::InvalidArgument(
        "malformed request: expected a structured (0x01) frame");
  }
  WireRequest req;
  uint8_t flags = static_cast<uint8_t>(payload[1]);
  req.want_trace = (flags & kFlagWantTrace) != 0;
  req.has_optimize = (flags & kFlagHasOptimize) != 0;
  req.optimize = (flags & kFlagOptimizeValue) != 0;
  req.has_push_filters = (flags & kFlagHasPushFilters) != 0;
  req.push_filters = (flags & kFlagPushFiltersValue) != 0;
  uint64_t timeout_ms = 0;
  std::memcpy(&timeout_ms, payload.data() + 2, 8);
  req.timeout = std::chrono::milliseconds(timeout_ms);
  if ((flags & kFlagPreparedExec) != 0) {
    req.is_prepared = true;
    size_t pos = 10;
    uint32_t argc = 0;
    if (!GetString(payload, &pos, &req.prepared_name) ||
        !GetU32(payload, &pos, &argc)) {
      return Status::InvalidArgument("malformed prepared-exec request");
    }
    req.prepared_args.reserve(argc);
    for (uint32_t i = 0; i < argc; ++i) {
      SCISPARQL_ASSIGN_OR_RETURN(Term t, DeserializeTerm(payload, &pos));
      req.prepared_args.push_back(std::move(t));
    }
    return req;
  }
  req.text = payload.substr(10);
  return req;
}

std::string EncodeResponse(const WireResponse& resp) {
  std::string out;
  out.push_back(kStructuredMarker);
  out.push_back(resp.kind);
  PutU32(&out, static_cast<uint32_t>(resp.body.size()));
  out += resp.body;
  out += resp.trace;
  return out;
}

Result<WireResponse> DecodeResponse(const std::string& payload) {
  if (payload.size() < 6 || payload[0] != kStructuredMarker) {
    return Status::IoError("malformed structured response");
  }
  WireResponse resp;
  resp.kind = payload[1];
  size_t pos = 2;
  uint32_t body_len = 0;
  if (!GetU32(payload, &pos, &body_len) ||
      pos + body_len > payload.size()) {
    return Status::IoError("truncated structured response");
  }
  resp.body = payload.substr(pos, body_len);
  resp.trace = payload.substr(pos + body_len);
  return resp;
}

}  // namespace client
}  // namespace scisparql
