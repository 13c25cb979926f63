#include "client/session.h"

namespace scisparql {
namespace client {

Session::Session(SSDM* engine, std::string storage_name)
    : engine_(engine), storage_name_(std::move(storage_name)) {}

Result<Term> Session::StoreResult(
    const std::string& experiment_iri, const std::string& property_iri,
    const NumericArray& array,
    const std::vector<std::pair<std::string, Term>>& metadata) {
  Term value;
  if (storage_name_.empty()) {
    value = Term::Array(ResidentArray::Make(array.Compact()));
  } else {
    SCISPARQL_ASSIGN_OR_RETURN(value,
                               engine_->StoreArray(array, storage_name_));
  }
  // The result and its annotations land as one batch: no reader sees
  // the array without its metadata.
  WriteBatch batch;
  batch.Add(Term::Iri(experiment_iri), Term::Iri(property_iri), value);
  for (const auto& [prop, term] : metadata) {
    batch.Add(Term::Iri(experiment_iri), Term::Iri(prop), term);
  }
  engine_->dataset().default_graph().Apply(std::move(batch));
  return value;
}

Status Session::Annotate(const std::string& subject_iri,
                         const std::string& property_iri, Term value) {
  WriteBatch batch;
  batch.Add(Term::Iri(subject_iri), Term::Iri(property_iri), std::move(value));
  engine_->dataset().default_graph().Apply(std::move(batch));
  return Status::OK();
}

Result<QueryOutcome> Session::Execute(QueryRequest req) {
  if (req.timeout.count() == 0) req.timeout = query_timeout_;
  return engine_->Execute(req);
}

Result<sparql::QueryResult> Session::RunQuery(const std::string& text) {
  QueryRequest req;
  req.text = text;
  SCISPARQL_ASSIGN_OR_RETURN(QueryOutcome out, Execute(std::move(req)));
  if (out.kind() != QueryOutcome::Kind::kRows) {
    return Status::InvalidArgument("statement is not a SELECT query");
  }
  return std::move(out.rows());
}

Result<sparql::QueryResult> Session::Query(const std::string& text) {
  return RunQuery(text);
}

Status Session::Prepare(const std::string& name,
                        const std::vector<std::string>& params,
                        const std::string& query) {
  std::string text = "PREPARE " + name;
  if (!params.empty()) {
    text += "(";
    for (size_t i = 0; i < params.size(); ++i) {
      if (i > 0) text += ", ";
      text += "?" + params[i];
    }
    text += ")";
  }
  text += " AS " + query;
  QueryRequest req;
  req.text = std::move(text);
  return Execute(std::move(req)).status();
}

Result<QueryOutcome> Session::ExecutePrepared(const std::string& name,
                                              std::vector<Term> args) {
  QueryRequest req;
  QueryRequest::PreparedCall call;
  call.name = name;
  call.args = std::move(args);
  req.prepared = std::move(call);
  return Execute(std::move(req));
}

namespace {

/// The projected variable a Fetch call is after — names the thing that was
/// missing or malformed in error messages.
std::string FetchTarget(const sparql::QueryResult& r) {
  return r.columns.empty() ? std::string("(no projection)")
                           : "?" + r.columns[0];
}

/// Shared single-cell contract of FetchArray/FetchScalar: exactly one row
/// with at least one column. Zero rows is NotFound (the query matched
/// nothing — a distinct, often retryable condition); anything else is a
/// malformed request.
Status CheckSingleCell(const sparql::QueryResult& r, const char* what) {
  if (r.rows.empty()) {
    return Status::NotFound(std::string(what) + ": no result row for " +
                            FetchTarget(r));
  }
  if (r.rows.size() > 1) {
    return Status::InvalidArgument(
        std::string(what) + " expects exactly one result row for " +
        FetchTarget(r) + ", got " + std::to_string(r.rows.size()));
  }
  if (r.rows[0].empty()) {
    return Status::InvalidArgument(std::string(what) +
                                   ": result row has no columns");
  }
  return Status::OK();
}

}  // namespace

Result<NumericArray> Session::FetchArray(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(sparql::QueryResult r, RunQuery(text));
  SCISPARQL_RETURN_NOT_OK(CheckSingleCell(r, "FetchArray"));
  const Term& cell = r.rows[0][0];
  if (!cell.IsArray()) {
    return Status::TypeError("FetchArray: value of " + FetchTarget(r) +
                             " is not an array: " + cell.ToString());
  }
  return cell.array()->Materialize();
}

Result<double> Session::FetchScalar(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(sparql::QueryResult r, RunQuery(text));
  SCISPARQL_RETURN_NOT_OK(CheckSingleCell(r, "FetchScalar"));
  return r.rows[0][0].AsDouble();
}

}  // namespace client
}  // namespace scisparql
