#include "storage/rdf_rel_store.h"

namespace scisparql {

namespace {

constexpr const char* kResTable = "rdf_res";
constexpr const char* kNumTable = "rdf_num";
constexpr const char* kLitTable = "rdf_lit";
constexpr const char* kArrTable = "rdf_arr";

/// Resources (IRIs and blanks) are encoded with a one-character kind
/// prefix so the text column is self-describing.
std::string EncodeResource(const Term& t) {
  if (t.IsIri()) return "I" + t.iri();
  return "B" + t.blank_label();
}

Result<Term> DecodeResource(const std::string& s) {
  if (s.empty()) return Status::Internal("empty resource encoding");
  if (s[0] == 'I') return Term::Iri(s.substr(1));
  if (s[0] == 'B') return Term::Blank(s.substr(1));
  return Status::Internal("bad resource encoding: " + s);
}

}  // namespace

Result<std::unique_ptr<RdfRelationalStore>> RdfRelationalStore::Attach(
    relstore::Database* db, std::shared_ptr<RelationalArrayStorage> arrays) {
  using relstore::ColType;
  using relstore::Schema;
  auto make = [&](const char* name, Schema schema) -> Status {
    if (db->HasTable(name)) return Status::OK();
    SCISPARQL_ASSIGN_OR_RETURN(auto* t, db->CreateTable(name, schema, false));
    (void)t;
    return Status::OK();
  };
  Schema res;
  res.columns = {{"s", ColType::kText},
                 {"p", ColType::kText},
                 {"o", ColType::kText}};
  SCISPARQL_RETURN_NOT_OK(make(kResTable, res));
  Schema num;
  num.columns = {{"s", ColType::kText},
                 {"p", ColType::kText},
                 {"value", ColType::kDouble},
                 {"is_int", ColType::kInt64}};
  SCISPARQL_RETURN_NOT_OK(make(kNumTable, num));
  Schema lit;
  lit.columns = {{"s", ColType::kText},
                 {"p", ColType::kText},
                 {"kind", ColType::kInt64},
                 {"lex", ColType::kText},
                 {"extra", ColType::kText}};
  SCISPARQL_RETURN_NOT_OK(make(kLitTable, lit));
  Schema arr;
  arr.columns = {{"s", ColType::kText},
                 {"p", ColType::kText},
                 {"array_id", ColType::kInt64}};
  SCISPARQL_RETURN_NOT_OK(make(kArrTable, arr));
  return std::unique_ptr<RdfRelationalStore>(
      new RdfRelationalStore(db, std::move(arrays)));
}

Status RdfRelationalStore::SaveGraph(const Graph& graph) {
  Status status = Status::OK();
  graph.ForEach([&](const Triple& t) {
    if (!status.ok()) return;
    std::string s = EncodeResource(t.s);
    std::string p = EncodeResource(t.p);
    switch (t.o.kind()) {
      case Term::Kind::kIri:
      case Term::Kind::kBlank: {
        auto rid = db_->Insert(kResTable, {s, p, EncodeResource(t.o)});
        if (!rid.ok()) status = rid.status();
        return;
      }
      case Term::Kind::kInteger: {
        auto rid = db_->Insert(
            kNumTable,
            {s, p, static_cast<double>(t.o.integer()), int64_t{1}});
        if (!rid.ok()) status = rid.status();
        return;
      }
      case Term::Kind::kDouble: {
        auto rid = db_->Insert(kNumTable, {s, p, t.o.dbl(), int64_t{0}});
        if (!rid.ok()) status = rid.status();
        return;
      }
      case Term::Kind::kString:
      case Term::Kind::kBoolean:
      case Term::Kind::kTypedLiteral: {
        std::string lex = t.o.kind() == Term::Kind::kBoolean
                              ? (t.o.boolean() ? "true" : "false")
                              : t.o.lexical();
        std::string extra = t.o.kind() == Term::Kind::kString
                                ? t.o.lang()
                                : (t.o.kind() == Term::Kind::kTypedLiteral
                                       ? t.o.datatype()
                                       : "");
        auto rid = db_->Insert(
            kLitTable,
            {s, p, static_cast<int64_t>(t.o.kind()), lex, extra});
        if (!rid.ok()) status = rid.status();
        return;
      }
      case Term::Kind::kArray: {
        ArrayId id = 0;
        // Proxies already backed by this store are saved by reference;
        // everything else is materialized and chunked in.
        auto* proxy = dynamic_cast<const ArrayProxy*>(t.o.array().get());
        if (proxy != nullptr && proxy->storage().get() == arrays_.get() &&
            proxy->CoversWholeArray()) {
          id = proxy->array_id();
        } else {
          auto m = t.o.array()->Materialize();
          if (!m.ok()) {
            status = m.status();
            return;
          }
          auto stored = arrays_->Store(*m, 8192);
          if (!stored.ok()) {
            status = stored.status();
            return;
          }
          id = *stored;
        }
        auto rid =
            db_->Insert(kArrTable, {s, p, static_cast<int64_t>(id)});
        if (!rid.ok()) status = rid.status();
        return;
      }
      case Term::Kind::kUndef:
        status = Status::InvalidArgument("cannot persist unbound term");
        return;
    }
  });
  SCISPARQL_RETURN_NOT_OK(status);
  return db_->Flush();
}

Status RdfRelationalStore::LoadGraph(Graph* graph,
                                     const AprConfig& apr) const {
  Status status = Status::OK();
  WriteBatch batch;
  auto decode_sp = [](const relstore::Row& row, Term* s,
                      Term* p) -> Status {
    SCISPARQL_ASSIGN_OR_RETURN(*s, DecodeResource(relstore::AsBytes(row[0])));
    SCISPARQL_ASSIGN_OR_RETURN(*p, DecodeResource(relstore::AsBytes(row[1])));
    return Status::OK();
  };

  SCISPARQL_RETURN_NOT_OK(
      db_->ScanAll(kResTable, [&](const relstore::Row& row) -> bool {
        Term s, p;
        status = decode_sp(row, &s, &p);
        if (!status.ok()) return false;
        auto o = DecodeResource(relstore::AsBytes(row[2]));
        if (!o.ok()) {
          status = o.status();
          return false;
        }
        batch.Add(std::move(s), std::move(p), std::move(*o));
        return true;
      }));
  SCISPARQL_RETURN_NOT_OK(status);

  SCISPARQL_RETURN_NOT_OK(
      db_->ScanAll(kNumTable, [&](const relstore::Row& row) -> bool {
        Term s, p;
        status = decode_sp(row, &s, &p);
        if (!status.ok()) return false;
        double v = relstore::AsDoubleValue(row[2]);
        bool is_int = relstore::AsInt(row[3]) != 0;
        batch.Add(std::move(s), std::move(p),
                  is_int ? Term::Integer(static_cast<int64_t>(v))
                         : Term::Double(v));
        return true;
      }));
  SCISPARQL_RETURN_NOT_OK(status);

  SCISPARQL_RETURN_NOT_OK(
      db_->ScanAll(kLitTable, [&](const relstore::Row& row) -> bool {
        Term s, p;
        status = decode_sp(row, &s, &p);
        if (!status.ok()) return false;
        Term::Kind kind = static_cast<Term::Kind>(relstore::AsInt(row[2]));
        const std::string& lex = relstore::AsBytes(row[3]);
        const std::string& extra = relstore::AsBytes(row[4]);
        Term o;
        switch (kind) {
          case Term::Kind::kBoolean:
            o = Term::Boolean(lex == "true");
            break;
          case Term::Kind::kTypedLiteral:
            o = Term::TypedLiteral(lex, extra);
            break;
          default:
            o = extra.empty() ? Term::String(lex)
                              : Term::LangString(lex, extra);
        }
        batch.Add(std::move(s), std::move(p), std::move(o));
        return true;
      }));
  SCISPARQL_RETURN_NOT_OK(status);

  SCISPARQL_RETURN_NOT_OK(
      db_->ScanAll(kArrTable, [&](const relstore::Row& row) -> bool {
        Term s, p;
        status = decode_sp(row, &s, &p);
        if (!status.ok()) return false;
        ArrayId id = static_cast<ArrayId>(relstore::AsInt(row[2]));
        auto proxy = ArrayProxy::Open(arrays_, id, apr);
        if (!proxy.ok()) {
          status = proxy.status();
          return false;
        }
        batch.Add(std::move(s), std::move(p), Term::Array(*proxy));
        return true;
      }));
  SCISPARQL_RETURN_NOT_OK(status);
  graph->Apply(std::move(batch));
  return Status::OK();
}

Result<RdfRelationalStore::PartitionCounts>
RdfRelationalStore::CountPartitions() const {
  PartitionCounts counts;
  auto count = [&](const char* table, uint64_t* out) -> Status {
    return db_->ScanAll(table, [out](const relstore::Row&) {
      ++*out;
      return true;
    });
  };
  SCISPARQL_RETURN_NOT_OK(count(kResTable, &counts.resources));
  SCISPARQL_RETURN_NOT_OK(count(kNumTable, &counts.numbers));
  SCISPARQL_RETURN_NOT_OK(count(kLitTable, &counts.literals));
  SCISPARQL_RETURN_NOT_OK(count(kArrTable, &counts.arrays));
  return counts;
}

}  // namespace scisparql
