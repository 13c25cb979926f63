#include "storage/dict_section.h"

#include <cstring>
#include <vector>

#include "rdf/term_codec.h"

namespace scisparql {
namespace storage {

namespace {

constexpr char kMagic[5] = {'\0', 'S', 'S', 'D', 'S'};
constexpr uint32_t kFormat = 1;

/// Term framing inside the section: every term is inline bytes.
/// Snapshots must be self-contained (loadable with no array storage
/// attached), so arrays — including proxies — are always materialized;
/// SerializeTerm fetches proxy-backed data.
constexpr uint8_t kTermInline = 0;

Status PutTerm(const Term& term, std::string* out) {
  out->push_back(static_cast<char>(kTermInline));
  return rdf::SerializeTerm(term, out);
}

Result<Term> GetTerm(const std::string& data, size_t* pos) {
  if (*pos >= data.size()) {
    return Status::Internal("truncated dictionary-section term");
  }
  if (static_cast<uint8_t>(data[(*pos)++]) != kTermInline) {
    return Status::Internal("unknown dictionary-section term tag");
  }
  return rdf::DeserializeTerm(data, pos);
}

}  // namespace

bool IsDictSection(const std::string& body) {
  return body.size() >= sizeof(kMagic) &&
         std::memcmp(body.data(), kMagic, sizeof(kMagic)) == 0;
}

Result<std::string> EncodeDictSection(const Graph& g) {
  const TermDictionary& dict = g.dict();
  // Section-local remap: only terms live triples actually reference are
  // written (tombstoned rows may pin dictionary entries nothing uses).
  std::vector<uint32_t> local(dict.size(), TermDictionary::kNoId);
  std::vector<uint32_t> used;
  g.ForEachId([&](const IdTriple& t) {
    for (uint32_t id : {t.s, t.p, t.o}) {
      if (local[id] == TermDictionary::kNoId) {
        local[id] = static_cast<uint32_t>(used.size());
        used.push_back(id);
      }
    }
  });

  std::string out(kMagic, sizeof(kMagic));
  rdf::PutU32(&out, kFormat);
  rdf::PutU32(&out, static_cast<uint32_t>(used.size()));
  Status term_status = Status::OK();
  for (uint32_t id : used) {
    Status st = PutTerm(dict.term(id), &out);
    if (!st.ok() && term_status.ok()) term_status = st;
  }
  SCISPARQL_RETURN_NOT_OK(term_status);
  rdf::PutU32(&out, static_cast<uint32_t>(g.size()));
  g.ForEachId([&](const IdTriple& t) {
    rdf::PutU32(&out, local[t.s]);
    rdf::PutU32(&out, local[t.p]);
    rdf::PutU32(&out, local[t.o]);
  });
  return out;
}

Status DecodeDictSection(const std::string& body, Graph* g) {
  if (!IsDictSection(body)) {
    return Status::Internal("not a dictionary section");
  }
  size_t pos = sizeof(kMagic);
  uint32_t format, n_terms;
  if (!rdf::GetU32(body, &pos, &format) || format != kFormat) {
    return Status::Internal("unsupported dictionary-section format");
  }
  if (!rdf::GetU32(body, &pos, &n_terms)) {
    return Status::Internal("truncated dictionary-section header");
  }
  std::vector<Term> terms;
  terms.reserve(n_terms);
  for (uint32_t i = 0; i < n_terms; ++i) {
    SCISPARQL_ASSIGN_OR_RETURN(Term t, GetTerm(body, &pos));
    terms.push_back(std::move(t));
  }
  uint32_t n_triples;
  if (!rdf::GetU32(body, &pos, &n_triples)) {
    return Status::Internal("truncated dictionary-section triple count");
  }
  WriteBatch batch;
  for (uint32_t i = 0; i < n_triples; ++i) {
    uint32_t s, p, o;
    if (!rdf::GetU32(body, &pos, &s) || !rdf::GetU32(body, &pos, &p) ||
        !rdf::GetU32(body, &pos, &o)) {
      return Status::Internal("truncated dictionary-section triples");
    }
    if (s >= terms.size() || p >= terms.size() || o >= terms.size()) {
      return Status::Internal("dictionary-section index out of range");
    }
    batch.Add(terms[s], terms[p], terms[o]);
  }
  g->Apply(std::move(batch));
  return Status::OK();
}

}  // namespace storage
}  // namespace scisparql
