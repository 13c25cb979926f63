#include "engine/ssdm.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <sstream>

#include "common/string_util.h"
#include "engine/durability.h"
#include "loaders/turtle.h"
#include "obs/metrics.h"
#include "repl/wire.h"
#include "sparql/calculus.h"
#include "storage/dict_section.h"
#include "storage/snapshot.h"
#include "storage/wal.h"

namespace scisparql {

SSDM::SSDM() : prefixes_(PrefixMap::WithDefaults()) {
  EnsureStats(&dataset_.default_graph());
  exec_options_.stats = &stats_;
}

SSDM::~SSDM() = default;

void SSDM::EnsureStats(Graph* graph) {
  const opt::GraphStats* existing = stats_.Find(graph);
  // graph() == nullptr means a previous graph at this address was dropped
  // and the collector orphaned; re-attach rebuilds from current content.
  if (existing == nullptr || existing->graph() == nullptr) {
    stats_.Attach(graph);
  }
}

Status SSDM::LoadTurtleFile(const std::string& path,
                            const std::string& graph_iri) {
  Graph* g = graph_iri.empty() ? &dataset_.default_graph()
                               : &dataset_.GetOrCreateNamed(graph_iri);
  EnsureStats(g);
  loaders::TurtleOptions opts;
  opts.prefixes = prefixes_;
  return loaders::LoadTurtleFile(path, g, opts);
}

Status SSDM::LoadTurtleString(const std::string& text,
                              const std::string& graph_iri) {
  Graph* g = graph_iri.empty() ? &dataset_.default_graph()
                               : &dataset_.GetOrCreateNamed(graph_iri);
  EnsureStats(g);
  loaders::TurtleOptions opts;
  opts.prefixes = prefixes_;
  return loaders::LoadTurtleString(text, g, opts);
}

sched::StatementClass SSDM::ClassifyStatement(const std::string& text) {
  size_t i = 0;
  const size_t n = text.size();
  auto word_at = [&](size_t pos) -> std::string {
    std::string w;
    while (pos < n && (std::isalpha(static_cast<unsigned char>(text[pos])) !=
                       0)) {
      w.push_back(static_cast<char>(
          std::toupper(static_cast<unsigned char>(text[pos]))));
      ++pos;
    }
    return w;
  };
  while (i < n) {
    char c = text[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
    } else if (c == '#') {  // comment to end of line
      while (i < n && text[i] != '\n') ++i;
    } else if (c == '<') {  // IRI token (a prolog PREFIX/BASE argument)
      while (i < n && text[i] != '>') ++i;
      if (i < n) ++i;
    } else if (std::isalpha(static_cast<unsigned char>(c)) != 0) {
      std::string w = word_at(i);
      if (w == "PREFIX" || w == "BASE") {
        i += w.size();
        // Skip the prefix label up to ':' so e.g. "PREFIX select:" cannot
        // confuse the classifier; the IRI is skipped by the '<' branch.
        while (i < n && text[i] != ':' && text[i] != '<' && text[i] != '\n') {
          ++i;
        }
        if (i < n && text[i] == ':') ++i;
        continue;
      }
      if (w == "REPL") {
        // REPL LSN/STATUS are introspection: replicas serve them under
        // the shared lock while applying. REPL SNAPSHOT folds the deltas
        // and must see no writer between its content and its LSN.
        i += w.size();
        while (i < n && std::isspace(static_cast<unsigned char>(text[i]))) ++i;
        return word_at(i) == "SNAPSHOT" ? sched::StatementClass::kExclusive
                                        : sched::StatementClass::kRead;
      }
      if (w == "SELECT" || w == "ASK" || w == "CONSTRUCT" ||
          w == "DESCRIBE" || w == "EXPLAIN" || w == "STATS" ||
          w == "METRICS" || w == "EXECUTE") {
        // EXECUTE runs a PREPARE'd body, which is always a query form.
        return sched::StatementClass::kRead;
      }
      if (w == "INSERT" || w == "DELETE" || w == "WITH") {
        // Data updates run under the shared lock: they append into the
        // differential index and group-commit their WAL batch. WITH is the
        // `WITH <g> DELETE/INSERT` modify form. A write that turns out to
        // need exclusivity anyway (it would create a named graph) reports
        // the retry sentinel and the scheduler escalates.
        return sched::StatementClass::kWrite;
      }
      // LOAD, CLEAR, DEFINE, PREPARE, CHECKPOINT and anything unrecognized
      // mutate engine or dataset structure: exclusive lock.
      return sched::StatementClass::kExclusive;
    } else {
      // Anything else before the statement keyword: not a query form.
      return sched::StatementClass::kExclusive;
    }
  }
  return sched::StatementClass::kExclusive;
}

namespace {
/// The escalation sentinel's message (see NeedsExclusiveRetry): matched by
/// string so the Status needs no side channel.
constexpr const char* kNeedsExclusiveMsg =
    "statement requires exclusive engine access";
}  // namespace

bool SSDM::NeedsExclusiveRetry(const Status& st) {
  return st.code() == StatusCode::kFailedPrecondition &&
         st.message() == kNeedsExclusiveMsg;
}

namespace {

/// Per-statement-kind execution counters (registered once, bumped with one
/// sharded atomic add per statement).
obs::Counter& StatementCounter(const char* kind) {
  return obs::DefaultMetrics().GetCounter(
      "ssdm_statements_total", std::string("kind=\"") + kind + "\"",
      "Statements executed by the engine, by statement kind.");
}

}  // namespace

std::string SSDM::CacheKeyFor(const std::string& text) const {
  // The same text parses differently under a different prefix table, so
  // the key carries a fingerprint of the session prefixes.
  size_t fp = 0;
  for (const auto& [prefix, iri] : prefixes_.entries()) {
    fp = HashCombine(fp, std::hash<std::string>{}(prefix));
    fp = HashCombine(fp, std::hash<std::string>{}(iri));
  }
  std::string key = NormalizeQueryText(text);
  key += '\x1f';
  key += std::to_string(fp);
  return key;
}

void SSDM::EnableResultCache(size_t budget_bytes) {
  cache::QueryCache::Config c = cache_.config();
  c.result_cache = true;
  c.result_budget_bytes = budget_bytes;
  cache_.Configure(c);
}

void SSDM::DisableResultCache() {
  cache::QueryCache::Config c = cache_.config();
  c.result_cache = false;
  cache_.Configure(c);
}

namespace {

/// Result-cache key for a prepared call: name + definition generation +
/// rendered arguments. Returns false (uncacheable call) when an argument
/// is an array — rendering one would materialize the payload.
bool PreparedResultKey(const cache::PreparedStatement& ps,
                       const std::vector<Term>& args, std::string* out) {
  std::string key = "\x1d";
  key += "EXECUTE";
  key += '\x1f';
  key += ps.name;
  key += '\x1f';
  key += std::to_string(ps.generation);
  for (const Term& a : args) {
    if (a.kind() == Term::Kind::kArray) return false;
    key += '\x1f';
    key += a.ToString();
  }
  *out = std::move(key);
  return true;
}

}  // namespace

bool SSDM::TryCachedResult(const QueryRequest& req, QueryOutcome* out) {
  if (req.trace_sink != nullptr || !cache_.config().result_cache) {
    return false;
  }
  std::string key;
  if (req.prepared.has_value()) {
    std::shared_ptr<const cache::PreparedStatement> ps =
        cache_.FindPrepared(req.prepared->name);
    if (ps == nullptr || !PreparedResultKey(*ps, req.prepared->args, &key)) {
      return false;
    }
  } else {
    key = CacheKeyFor(req.text);
  }
  return cache_.LookupResult(key, dataset_, registry_.generation(), out,
                             /*count_miss=*/false);
}

Result<QueryOutcome> SSDM::RunQueryForm(const ast::SelectQuery& q,
                                        sparql::Executor& exec,
                                        obs::TraceSpan* exec_span) {
  switch (q.form) {
    case ast::SelectQuery::Form::kSelect: {
      SCISPARQL_ASSIGN_OR_RETURN(sparql::QueryResult rows, exec.Select(q));
      StatementCounter("select").Add();
      if (exec_span != nullptr) {
        exec_span->SetAttr("rows", static_cast<int64_t>(rows.rows.size()));
      }
      return QueryOutcome{std::move(rows)};
    }
    case ast::SelectQuery::Form::kAsk: {
      SCISPARQL_ASSIGN_OR_RETURN(bool b, exec.Ask(q));
      StatementCounter("ask").Add();
      return QueryOutcome{b};
    }
    case ast::SelectQuery::Form::kConstruct: {
      SCISPARQL_ASSIGN_OR_RETURN(Graph g, exec.Construct(q));
      StatementCounter("construct").Add();
      if (exec_span != nullptr) {
        exec_span->SetAttr("triples", static_cast<int64_t>(g.size()));
      }
      return QueryOutcome{std::move(g)};
    }
    case ast::SelectQuery::Form::kDescribe: {
      SCISPARQL_ASSIGN_OR_RETURN(Graph g, exec.Describe(q));
      StatementCounter("describe").Add();
      return QueryOutcome{std::move(g)};
    }
  }
  return Status::Internal("unknown query form");
}

Result<QueryOutcome> SSDM::RunPrepared(const std::string& name,
                                       const std::vector<Term>& args,
                                       const sparql::ExecOptions& base_options,
                                       const sched::QueryContext* ctx,
                                       obs::QueryTrace* trace) {
  std::shared_ptr<const cache::PreparedStatement> ps = cache_.FindPrepared(name);
  if (ps == nullptr) {
    return Status::NotFound("no prepared statement named '" + name + "'");
  }
  if (args.size() != ps->params.size()) {
    return Status::InvalidArgument(
        "prepared statement '" + name + "' takes " +
        std::to_string(ps->params.size()) + " argument(s), got " +
        std::to_string(args.size()));
  }

  std::string key;
  bool keyable = PreparedResultKey(*ps, args, &key);
  bool use_result_cache =
      keyable && trace == nullptr && cache_.config().result_cache;
  if (use_result_cache) {
    QueryOutcome hit;
    if (cache_.LookupResult(key, dataset_, registry_.generation(), &hit)) {
      StatementCounter(hit.kind() == QueryOutcome::Kind::kAsk ? "ask"
                                                              : "select")
          .Add();
      return hit;
    }
  }

  // Bind the parameters by prepending a single-row VALUES block to a
  // shallow copy of the shared body: the executor's sideways information
  // passing then treats them as constants everywhere (BGPs, FILTERs,
  // projections), and the plan memo keys on the resolved constants.
  ast::SelectQuery bound = *ps->body;
  if (!ps->params.empty()) {
    ast::PatternElement values;
    values.kind = ast::PatternElement::Kind::kValues;
    values.values.vars = ps->params;
    values.values.rows.push_back(args);
    bound.where.elements.insert(bound.where.elements.begin(),
                                std::move(values));
  }

  sparql::ExecOptions options = base_options;
  options.stats = &stats_;
  options.query = ctx;
  options.trace = trace;
  options.plan_memo = ps->memo.get();
  sparql::Executor exec(&dataset_, &registry_, options);

  obs::TraceSpan* exec_span =
      trace != nullptr ? trace->AddChild(nullptr, "execute") : nullptr;
  if (trace != nullptr) trace->set_attach_point(exec_span);
  obs::SpanTimer exec_timer(exec_span);
  SCISPARQL_ASSIGN_OR_RETURN(QueryOutcome out,
                             RunQueryForm(bound, exec, exec_span));
  exec_timer.Stop();

  if (use_result_cache) {
    cache::CacheAnalysis analysis = cache::AnalyzeQuery(bound, &registry_);
    if (analysis.cacheable) {
      cache_.StoreResult(key, out,
                         cache::DepsFor(analysis, dataset_,
                                        registry_.generation()));
    }
  }
  return out;
}

Result<QueryOutcome> SSDM::Execute(const QueryRequest& req,
                                   const sched::QueryContext* ctx) {
  // Build a context from the request when the caller didn't hand one down
  // (the scheduler computes its own at admission, with queue wait already
  // counted against the deadline).
  sched::QueryContext local_ctx;
  if (ctx == nullptr && (req.timeout.count() > 0 || req.cancel != nullptr)) {
    if (req.timeout.count() > 0) {
      local_ctx = sched::QueryContext::WithTimeout(req.timeout);
    }
    local_ctx.cancel = req.cancel;
    ctx = &local_ctx;
  }

  // Structured prepared execution skips the parser entirely.
  if (req.prepared.has_value()) {
    return RunPrepared(req.prepared->name, req.prepared->args,
                       req.options.has_value() ? *req.options : exec_options_,
                       ctx, req.trace_sink);
  }

  // Introspection statements (not part of the query grammar). All are
  // classified as reads, so the scheduler serves them under its shared
  // lock like any query.
  std::string_view trimmed = StripWhitespace(req.text);
  auto leading_word = [](std::string_view sv) {
    std::string w;
    for (char c : sv) {
      if (std::isalpha(static_cast<unsigned char>(c)) == 0) break;
      w.push_back(static_cast<char>(std::toupper(static_cast<unsigned char>(c))));
    }
    return w;
  };
  std::string head = leading_word(trimmed);
  if (head == "STATS" && head.size() == trimmed.size()) {
    StatementCounter("info").Add();
    return QueryOutcome{QueryOutcome::Info{StatsReport()}};
  }
  if (head == "METRICS" && head.size() == trimmed.size()) {
    StatementCounter("info").Add();
    return QueryOutcome{
        QueryOutcome::Info{obs::DefaultMetrics().RenderPrometheusText()}};
  }
  if (head == "REPL" && trimmed.size() > head.size()) {
    std::string verb =
        leading_word(StripWhitespace(trimmed.substr(head.size())));
    if (verb == "SNAPSHOT" && ctx != nullptr && !ctx->exclusive) {
      return Status::FailedPrecondition(kNeedsExclusiveMsg);
    }
    StatementCounter("info").Add();
    return ExecuteReplStatement(verb);
  }
  // CHECKPOINT is deliberately absent from ClassifyStatement's read list,
  // so the scheduler runs it under the exclusive lock like any update.
  if (head == "CHECKPOINT" && head.size() == trimmed.size()) {
    SCISPARQL_ASSIGN_OR_RETURN(std::string summary, Checkpoint());
    StatementCounter("checkpoint").Add();
    return QueryOutcome{QueryOutcome::Info{std::move(summary)}};
  }
  if (head == "EXPLAIN" && trimmed.size() > head.size()) {
    std::string_view rest = StripWhitespace(trimmed.substr(head.size()));
    std::string second = leading_word(rest);
    if (second == "ANALYZE" && rest.size() > second.size()) {
      // EXPLAIN ANALYZE: execute the statement with a local trace sink and
      // return the rendered span tree (phase timings plus the same
      // per-scan actual cardinalities EXPLAIN reports).
      obs::QueryTrace trace;
      QueryRequest sub = req;
      sub.text = std::string(rest.substr(second.size()));
      sub.trace_sink = &trace;
      SCISPARQL_ASSIGN_OR_RETURN(QueryOutcome sub_out, Execute(sub, ctx));
      (void)sub_out;
      StatementCounter("info").Add();
      return QueryOutcome{QueryOutcome::Info{trace.Render()}};
    }
    StatementCounter("info").Add();
    SCISPARQL_ASSIGN_OR_RETURN(std::string plan,
                               Explain(std::string(rest)));
    return QueryOutcome{QueryOutcome::Info{std::move(plan)}};
  }

  obs::QueryTrace* trace = req.trace_sink;
  obs::SpanTimer total_timer(trace != nullptr ? trace->root() : nullptr);

  const std::string cache_key = CacheKeyFor(req.text);
  obs::TraceSpan* cache_span =
      trace != nullptr ? trace->AddChild(nullptr, "cache") : nullptr;
  obs::SpanTimer cache_timer(cache_span);

  // Result cache: serve a still-valid read outcome without parsing. Text
  // EXECUTE is excluded — its result key must carry the prepared-statement
  // generation (re-PREPARE changes the result under identical text), so
  // RunPrepared owns that lookup.
  bool result_cacheable_form =
      ClassifyStatement(req.text) == sched::StatementClass::kRead &&
      head != "EXECUTE" && head != "EXPLAIN" && head != "STATS" &&
      head != "METRICS";
  bool use_result_cache = result_cacheable_form && trace == nullptr &&
                          cache_.config().result_cache;
  if (use_result_cache) {
    QueryOutcome hit;
    if (cache_.LookupResult(cache_key, dataset_, registry_.generation(),
                            &hit)) {
      StatementCounter(hit.kind() == QueryOutcome::Kind::kAsk ? "ask"
                                                              : "select")
          .Add();
      return hit;
    }
  }

  // Plan cache: normalized text -> parsed AST + memoized BGP orders. The
  // memo's shared_ptr is held locally so a concurrent clear of the plan
  // map cannot free it mid-execution.
  ast::Statement stmt;
  std::shared_ptr<cache::PlanMemo> memo;
  bool plan_hit = false;
  {
    cache::QueryCache::CachedPlan cached;
    if (cache_.LookupPlan(cache_key, &cached)) {
      stmt = std::move(cached.stmt);
      memo = std::move(cached.memo);
      plan_hit = true;
    }
  }
  if (cache_span != nullptr) {
    cache_span->SetAttr("plan", plan_hit ? "hit" : "miss");
  }
  cache_timer.Stop();

  if (!plan_hit) {
    obs::TraceSpan* parse_span =
        trace != nullptr ? trace->AddChild(nullptr, "parse") : nullptr;
    obs::SpanTimer parse_timer(parse_span);
    SCISPARQL_ASSIGN_OR_RETURN(stmt,
                               sparql::ParseStatement(req.text, prefixes_));
    parse_timer.Stop();
    // Only query forms are worth caching: the AST is data-independent and
    // parses dominate short statements. Updates, DEFINE and PREPARE have
    // side effects on execution, so they always take the full path.
    if (std::holds_alternative<std::shared_ptr<ast::SelectQuery>>(
            stmt.node)) {
      memo = std::make_shared<cache::PlanMemo>();
      cache_.StorePlan(cache_key, {stmt, memo});
    }
  }

  sparql::ExecOptions options =
      req.options.has_value() ? *req.options : exec_options_;
  // Engine-owned state always wins over caller-supplied option structs:
  // the statistics registry belongs to this engine, and the per-call
  // context/trace come from the request.
  options.stats = &stats_;
  options.query = ctx;
  options.trace = trace;
  options.plan_memo = memo.get();
  sparql::Executor exec(&dataset_, &registry_, options);

  if (auto* def = std::get_if<ast::FunctionDef>(&stmt.node)) {
    SCISPARQL_RETURN_NOT_OK(registry_.Define(*def));
    StatementCounter("define").Add();
    // The generation bump makes result entries that called registry
    // functions stale; drop them now so the counters move with the DEFINE.
    cache_.Sweep(dataset_, registry_.generation());
    return QueryOutcome{QueryOutcome::UpdateCount{0}};
  }
  if (auto* prep = std::get_if<ast::PrepareStmt>(&stmt.node)) {
    SCISPARQL_RETURN_NOT_OK(cache_.DefinePrepared(
        prep->name, prep->params,
        std::shared_ptr<const ast::SelectQuery>(prep->body)));
    StatementCounter("prepare").Add();
    return QueryOutcome{QueryOutcome::UpdateCount{0}};
  }
  if (auto* call = std::get_if<ast::ExecuteStmt>(&stmt.node)) {
    return RunPrepared(call->name, call->args, options, ctx, trace);
  }

  obs::TraceSpan* exec_span =
      trace != nullptr ? trace->AddChild(nullptr, "execute") : nullptr;
  if (trace != nullptr) trace->set_attach_point(exec_span);
  obs::SpanTimer exec_timer(exec_span);

  if (auto* update = std::get_if<ast::UpdateOp>(&stmt.node)) {
    if (rejects_writes()) {
      return Status::Unavailable(write_reject_reason());
    }
    if (ctx != nullptr && !ctx->exclusive) {
      // Running under the scheduler's shared lock (the differential write
      // path). Statements that must mutate dataset or engine structure —
      // LOAD, CLEAR, or any update whose named target graph does not exist
      // yet (creating it mutates the shared graph map) — report the retry
      // sentinel; the scheduler re-runs them under the exclusive lock.
      bool needs_exclusive = update->kind == ast::UpdateOp::Kind::kLoad ||
                             update->kind == ast::UpdateOp::Kind::kClear ||
                             (!update->graph.empty() &&
                              dataset_.FindNamed(update->graph) == nullptr);
      if (needs_exclusive) {
        return Status::FailedPrecondition(kNeedsExclusiveMsg);
      }
    }
    engine::WalCapture capture;
    if (durability_ != nullptr) exec.options().mutations = &capture;
    Result<int64_t> updated = exec.Update(*update);
    // The WAL must cover whatever reached memory even when the statement
    // failed partway (there is no rollback): recovery replays this log to
    // reconverge with the state surviving readers observed.
    uint64_t ack_lsn = 0;
    if (durability_ != nullptr) {
      SCISPARQL_RETURN_NOT_OK(
          durability_->LogStatement(&capture.records(), &ack_lsn));
      // A no-op statement logs nothing; its read-your-writes token is
      // whatever is durable already.
      if (ack_lsn == 0) ack_lsn = durability_->durable_lsn();
    }
    SCISPARQL_RETURN_NOT_OK(updated.status());
    int64_t n = *updated;
    StatementCounter("update").Add();
    if (exec_span != nullptr) exec_span->SetAttr("triples_touched", n);
    if (update->kind == ast::UpdateOp::Kind::kClear && update->clear_all) {
      // CLEAR ALL destroys the named graph objects: epoch-bump both cache
      // layers rather than chase dead pointers.
      cache_.InvalidateAll();
    } else {
      cache_.Sweep(dataset_, registry_.generation());
    }
    // The LSN in the ack is the read-your-writes token: under group commit
    // concurrent committers finish out of order, so the ack carries this
    // statement's own commit LSN (the out-param), not the global gauge.
    return QueryOutcome{QueryOutcome::UpdateCount{n, ack_lsn, term()}};
  }
  const auto& q = std::get<std::shared_ptr<ast::SelectQuery>>(stmt.node);
  SCISPARQL_ASSIGN_OR_RETURN(QueryOutcome out,
                             RunQueryForm(*q, exec, exec_span));
  exec_timer.Stop();
  if (use_result_cache) {
    cache::CacheAnalysis analysis = cache::AnalyzeQuery(*q, &registry_);
    if (analysis.cacheable) {
      cache_.StoreResult(cache_key, out,
                         cache::DepsFor(analysis, dataset_,
                                        registry_.generation()));
    }
  }
  return out;
}

Result<std::string> SSDM::Explain(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(auto q, sparql::ParseQuery(text, prefixes_));
  sparql::Executor exec(&dataset_, &registry_, exec_options_);
  return exec.Explain(*q);
}

std::string SSDM::StatsReport() const {
  std::ostringstream out;
  out << "optimizer statistics (" << (exec_options_.optimize_join_order
                                          ? "join reordering on"
                                          : "join reordering off")
      << "):\n";
  out << stats_.ReportText();
  return out.str();
}

Result<std::string> SSDM::Translate(const std::string& text) {
  SCISPARQL_ASSIGN_OR_RETURN(auto q, sparql::ParseQuery(text, prefixes_));
  if (!exec_options_.optimize_join_order) {
    return sparql::RenderCalculus(*q);
  }
  return sparql::RenderCalculus(*q, &dataset_.default_graph(), &stats_);
}

void SSDM::RegisterForeign(
    const std::string& name,
    std::function<Result<Term>(std::span<const Term>)> fn, int arity,
    double cost) {
  sparql::ForeignFunction f;
  f.fn = std::move(fn);
  f.arity = arity;
  f.cost = cost;
  registry_.RegisterForeign(name, std::move(f));
}

void SSDM::AttachStorage(std::shared_ptr<ArrayStorage> storage) {
  storages_[storage->name()] = std::move(storage);
}

std::shared_ptr<ArrayStorage> SSDM::FindStorage(
    const std::string& name) const {
  auto it = storages_.find(name);
  return it == storages_.end() ? nullptr : it->second;
}

Result<Term> SSDM::StoreArray(const NumericArray& array,
                              const std::string& storage_name,
                              int64_t chunk_elems) {
  std::shared_ptr<ArrayStorage> storage = FindStorage(storage_name);
  if (storage == nullptr) {
    return Status::NotFound("no attached storage: " + storage_name);
  }
  SCISPARQL_ASSIGN_OR_RETURN(ArrayId id, storage->Store(array, chunk_elems));
  return OpenStoredArray(storage_name, id);
}

namespace {

/// Renders the dataset into checksummed-snapshot sections + footer, one
/// dictionary-encoded section per graph (distinct terms once, triples as
/// index tuples). The encoder walks the base indexes only: the caller
/// folds the deltas first, under exclusivity.
Status BuildSnapshotSections(const Dataset& dataset, uint64_t wal_lsn,
                             std::vector<storage::SnapshotSection>* sections,
                             storage::SnapshotFooter* footer) {
  footer->wal_lsn = wal_lsn;
  SCISPARQL_ASSIGN_OR_RETURN(
      std::string body, storage::EncodeDictSection(dataset.default_graph()));
  sections->push_back({"", std::move(body)});
  footer->graphs.push_back({"", dataset.default_graph().version(),
                            dataset.default_graph().size()});
  for (const auto& [iri, graph] : dataset.named_graphs()) {
    SCISPARQL_ASSIGN_OR_RETURN(body, storage::EncodeDictSection(graph));
    sections->push_back({iri, std::move(body)});
    footer->graphs.push_back({iri, graph.version(), graph.size()});
  }
  return Status::OK();
}

/// Builds a Dataset from decoded snapshot sections.
Status BuildDatasetFromSections(
    const std::vector<storage::SnapshotSection>& sections, Dataset* out) {
  for (const storage::SnapshotSection& sec : sections) {
    if (!storage::IsDictSection(sec.body)) {
      return Status::IoError(
          "snapshot section for graph '" + sec.graph_iri +
          "' is not a dictionary section (pre-dictionary Turtle snapshots "
          "no longer load)");
    }
    Graph* g = sec.graph_iri.empty() ? &out->default_graph()
                                     : &out->GetOrCreateNamed(sec.graph_iri);
    SCISPARQL_RETURN_NOT_OK(storage::DecodeDictSection(sec.body, g));
  }
  return Status::OK();
}

}  // namespace

void SSDM::BeginConcurrentWrites() {
  if (concurrent_refs_.fetch_add(1, std::memory_order_acq_rel) == 0) {
    dataset_.SetConcurrentWrites(true);
  }
}

void SSDM::EndConcurrentWrites() {
  if (concurrent_refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last holder out: fold what remains so base-mode callers (snapshot
    // encoding, ID-index builds) see the complete picture, then return the
    // graphs to in-place base mutation.
    dataset_.FoldDeltas();
    dataset_.SetConcurrentWrites(false);
  }
}

size_t SSDM::PendingDeltaOps() const { return dataset_.PendingDeltaOps(); }

size_t SSDM::FoldDeltas() { return dataset_.FoldDeltas(); }

void SSDM::InstallDataset(Dataset fresh) {
  // Replacing the dataset invalidates every statistics collector (named
  // graph objects die; the default graph keeps its address but gets new
  // content and a null listener from the moved-in graph). Drop them while
  // the old graphs are still alive, then re-attach against the new state.
  stats_.Clear();
  dataset_ = std::move(fresh);
  // The moved-in dataset carries its own flag state; the engine's
  // concurrent-writes refcount is the truth.
  dataset_.SetConcurrentWrites(
      concurrent_refs_.load(std::memory_order_acquire) > 0);
  // Graph objects were just destroyed and replaced: bump the cache epoch so
  // neither layer can serve (or revalidate against) the old dataset.
  cache_.InvalidateAll();
  EnsureStats(&dataset_.default_graph());
  for (const auto& [iri, graph] : dataset_.named_graphs()) {
    (void)graph;
    EnsureStats(dataset_.FindNamed(iri));
  }
}

Status SSDM::SaveSnapshot(const std::string& path) {
  storage::Vfs* vfs =
      durability_ != nullptr ? durability_->vfs() : storage::DefaultVfs();
  dataset_.FoldDeltas();
  std::vector<storage::SnapshotSection> sections;
  storage::SnapshotFooter footer;
  // A standalone snapshot is not coordinated with the WAL; only
  // Checkpoint() stamps a real LSN.
  SCISPARQL_RETURN_NOT_OK(
      BuildSnapshotSections(dataset_, /*wal_lsn=*/0, &sections, &footer));
  return storage::WriteSnapshot(vfs, path, sections, footer);
}

Status SSDM::LoadSnapshot(const std::string& path) {
  storage::Vfs* vfs =
      durability_ != nullptr ? durability_->vfs() : storage::DefaultVfs();
  Result<storage::SnapshotContents> contents = storage::ReadSnapshot(vfs, path);
  if (!contents.ok()) {
    return Status::IoError("cannot read snapshot: " +
                           contents.status().message());
  }
  Dataset fresh;
  SCISPARQL_RETURN_NOT_OK(
      BuildDatasetFromSections(contents->sections, &fresh));
  InstallDataset(std::move(fresh));
  return Status::OK();
}

// --- Durable store. ---

namespace {

/// Feeds a replayed WAL record stream through Graph::Apply: contiguous
/// add/remove runs against the same graph accumulate into one WriteBatch,
/// so replay uses the batch-atomic mutation entry point (and its delta or
/// base mode) instead of issuing a one-element batch per record. CLEAR
/// records flush the staged batch first, then take effect in stream order.
class ReplayBatcher {
 public:
  using EnsureFn = std::function<void(Graph*)>;

  /// `ensure` (optional) runs on a target graph right before its batch is
  /// applied — the replication path attaches statistics collectors to
  /// graphs the stream creates.
  explicit ReplayBatcher(Dataset* dataset, EnsureFn ensure = nullptr)
      : dataset_(dataset), ensure_(std::move(ensure)) {}

  Status Apply(const storage::WalRecord& rec) {
    using T = storage::WalRecord::Type;
    switch (rec.type) {
      case T::kAdd:
        Stage(rec.graph)->Add(rec.triple);
        return Status::OK();
      case T::kRemove:
        Stage(rec.graph)->RemoveAll(rec.triple);
        return Status::OK();
      case T::kClearGraph:
        // Flush first: a staged batch may be what creates the graph this
        // record clears.
        Flush();
        if (rec.graph.empty()) {
          dataset_->default_graph().Clear();
        } else if (Graph* g = dataset_->FindNamed(rec.graph)) {
          g->Clear();
        }
        return Status::OK();
      case T::kClearAll: {
        Flush();
        dataset_->default_graph().Clear();
        std::vector<std::string> names;
        for (const auto& [iri, g] : dataset_->named_graphs()) {
          (void)g;
          names.push_back(iri);
        }
        for (const std::string& iri : names) dataset_->DropNamed(iri);
        cleared_all_ = true;
        return Status::OK();
      }
      case T::kCommit:
        return Status::OK();  // markers are consumed by the replayer
      case T::kTermBump:
        return Status::OK();  // no dataset effect; callers track the term
    }
    return Status::Internal("unknown WAL record type");
  }

  /// Applies the staged batch, if any. Call once more after the stream
  /// ends.
  void Flush() {
    if (batch_.empty()) return;
    Graph* g = target_.empty() ? &dataset_->default_graph()
                               : &dataset_->GetOrCreateNamed(target_);
    if (ensure_) ensure_(g);
    g->Apply(std::move(batch_));
    batch_ = WriteBatch();
  }

  /// True once a kClearAll record went through — the caller epoch-bumps
  /// its caches instead of sweeping against destroyed graph objects.
  bool cleared_all() const { return cleared_all_; }

 private:
  WriteBatch* Stage(const std::string& graph) {
    if (!batch_.empty() && graph != target_) Flush();
    target_ = graph;
    return &batch_;
  }

  Dataset* dataset_;
  EnsureFn ensure_;
  WriteBatch batch_;
  std::string target_;
  bool cleared_all_ = false;
};

}  // namespace

bool SSDM::read_only() const {
  if (durability_ != nullptr) return durability_->read_only();
  return soft_read_only_.load(std::memory_order_acquire);
}

void SSDM::EnterReadOnly(const std::string& reason) {
  if (durability_ != nullptr) {
    durability_->EnterReadOnly(reason);
    return;
  }
  if (soft_read_only_reason_.empty()) soft_read_only_reason_ = reason;
  soft_read_only_.store(true, std::memory_order_release);
  obs::DefaultMetrics()
      .GetGauge("ssdm_engine_read_only", "",
                "1 while the engine rejects writes after a durable-media "
                "failure.")
      .Set(1);
}

std::string SSDM::read_only_reason() const {
  if (durability_ != nullptr) return durability_->read_only_reason();
  return soft_read_only_reason_;
}

Status SSDM::Open(const std::string& dir, storage::Vfs* vfs) {
  // A degraded (sticky read-only) engine must not start writing a fresh
  // store: recovery would WAL-replay and StartWal against media the engine
  // already decided it cannot trust. Checked before the already-open guard
  // so a degraded store reports its real condition, not "already open".
  if (read_only()) {
    return Status::FailedPrecondition(
        "engine is read-only and cannot open a durable store: " +
        read_only_reason());
  }
  if (durability_ != nullptr) {
    return Status::InvalidArgument("durable store already open: " +
                                   durability_->dir());
  }
  if (vfs == nullptr) vfs = storage::DefaultVfs();
  SCISPARQL_ASSIGN_OR_RETURN(std::unique_ptr<engine::DurabilityManager> dm,
                             engine::DurabilityManager::Open(vfs, dir));
  engine::DurabilityManager::RecoveryInfo info;

  // Newest CRC-valid snapshot wins; corrupt ones fall back to older
  // snapshots (whose WAL segments the failed checkpoint never truncated).
  SCISPARQL_ASSIGN_OR_RETURN(auto snaps, storage::ListSnapshots(vfs, dir));
  Dataset fresh;
  uint64_t after_lsn = 0;
  for (auto it = snaps.rbegin(); it != snaps.rend(); ++it) {
    Result<storage::SnapshotContents> contents =
        storage::ReadSnapshot(vfs, it->second);
    if (!contents.ok()) {
      ++info.snapshots_skipped;
      continue;
    }
    Dataset candidate;
    Status built = BuildDatasetFromSections(contents->sections, &candidate);
    if (!built.ok()) {
      ++info.snapshots_skipped;
      continue;
    }
    fresh = std::move(candidate);
    after_lsn = contents->footer.wal_lsn;
    AdoptTerm(contents->footer.term);
    info.snapshot_path = it->second;
    break;
  }

  // Replay committed WAL batches past the snapshot. Replay is idempotent
  // relative to the snapshot because every record below `after_lsn` is
  // skipped and batches apply whole-or-not-at-all.
  auto resolve = [this](const std::string& storage_name,
                        uint64_t array_id) -> Result<Term> {
    return OpenStoredArray(storage_name, static_cast<ArrayId>(array_id));
  };
  ReplayBatcher batcher(&fresh);
  auto apply = [this, &batcher](const storage::WalRecord& rec) -> Status {
    if (rec.type == storage::WalRecord::Type::kTermBump) {
      AdoptTerm(rec.aux);
      return Status::OK();
    }
    return batcher.Apply(rec);
  };
  SCISPARQL_ASSIGN_OR_RETURN(
      storage::WalReplayStats replay,
      storage::ReplayWal(vfs, dm->wal_dir(), after_lsn, resolve, apply));
  batcher.Flush();

  InstallDataset(std::move(fresh));
  uint64_t next_lsn = std::max(after_lsn, replay.last_lsn) + 1;
  SCISPARQL_RETURN_NOT_OK(dm->StartWal(next_lsn));
  dm->set_snapshot_seq(snaps.empty() ? 0 : snaps.back().first);
  dm->set_last_snapshot_lsn(after_lsn);
  info.records_replayed = replay.records_applied;
  info.batches_replayed = replay.batches_applied;
  info.torn_tail = replay.torn_tail;
  info.next_lsn = next_lsn;
  dm->RecordRecovery(info);
  durability_ = std::move(dm);
  return Status::OK();
}

Result<std::string> SSDM::Checkpoint() {
  if (replica_mode()) {
    // Client CHECKPOINT belongs on the primary — answered first so even a
    // memory-only replica points the caller there; the applier compacts a
    // durable replica's own store via CheckpointAsReplica on its schedule.
    return Status::Unavailable(write_reject_reason());
  }
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "no durable store attached: call Open() first");
  }
  if (durability_->read_only()) {
    return Status::Unavailable("engine is read-only: " +
                               durability_->read_only_reason());
  }
  return CheckpointLocked();
}

Result<std::string> SSDM::CheckpointAsReplica() {
  if (durability_ == nullptr) {
    return Status::InvalidArgument(
        "no durable store attached: call Open() first");
  }
  if (durability_->read_only()) {
    return Status::Unavailable("engine is read-only: " +
                               durability_->read_only_reason());
  }
  return CheckpointLocked();
}

Result<std::string> SSDM::CheckpointLocked() {
  // The snapshot encoder reads the base indexes only; the caller holds the
  // engine exclusively, so folding here is safe and makes the snapshot
  // cover every committed delta.
  dataset_.FoldDeltas();
  storage::WalWriter* wal = durability_->wal();
  // Rotation seals the current segment so every LSN covered by the new
  // snapshot lives in segments the truncation below may delete, and no
  // kept segment mixes covered with uncovered records.
  wal->Rotate();
  const uint64_t snapshot_lsn = wal->next_lsn() - 1;

  std::vector<storage::SnapshotSection> sections;
  storage::SnapshotFooter footer;
  SCISPARQL_RETURN_NOT_OK(
      BuildSnapshotSections(dataset_, snapshot_lsn, &sections, &footer));
  footer.term = term();

  uint64_t seq = durability_->AllocateSnapshotSeq();
  std::string path =
      durability_->dir() + "/" + storage::SnapshotFileName(seq);
  SCISPARQL_RETURN_NOT_OK(
      storage::WriteSnapshot(durability_->vfs(), path, sections, footer));
  // Truncate only WAL the *previous* snapshot no longer needs: if this new
  // snapshot is later found corrupt, recovery falls back to the retained
  // one and replays the kept segments across the gap.
  const uint64_t keep_from = durability_->last_snapshot_lsn() + 1;
  SCISPARQL_RETURN_NOT_OK(storage::TruncateWalBelow(
      durability_->vfs(), durability_->wal_dir(), keep_from));
  durability_->set_last_snapshot_lsn(snapshot_lsn);
  // Keep the newest two snapshots — current plus the corruption fallback;
  // pruning older ones is best-effort cleanup.
  SCISPARQL_ASSIGN_OR_RETURN(
      auto snaps, storage::ListSnapshots(durability_->vfs(),
                                         durability_->dir()));
  for (size_t i = 0; i + 2 < snaps.size(); ++i) {
    (void)durability_->vfs()->Remove(snaps[i].second);
  }
  durability_->RecordCheckpoint();
  std::ostringstream out;
  out << "checkpoint: snapshot " << path << " at lsn " << snapshot_lsn
      << ", wal truncated below lsn " << keep_from;
  return out.str();
}

// --- Replication. ---

uint64_t SSDM::last_lsn() const {
  uint64_t durable = durability_ != nullptr ? durability_->durable_lsn() : 0;
  uint64_t applied = applied_lsn_.load(std::memory_order_acquire);
  return std::max(durable, applied);
}

void SSDM::EnterReplicaMode(const std::string& primary_desc) {
  replica_primary_ = primary_desc;
  // Recovery hand-off: whatever snapshot + local-WAL recovery rebuilt is
  // the stream position to resume from.
  applied_lsn_.store(last_lsn(), std::memory_order_release);
  replica_mode_.store(true, std::memory_order_release);
}

namespace {

obs::Gauge& TermGauge() {
  return obs::DefaultMetrics().GetGauge(
      "ssdm_repl_term", "", "Current replication fencing term of this node.");
}

}  // namespace

void SSDM::AdoptTerm(uint64_t t) {
  uint64_t cur = term_.load(std::memory_order_relaxed);
  while (t > cur && !term_.compare_exchange_weak(cur, t,
                                                 std::memory_order_release,
                                                 std::memory_order_relaxed)) {
  }
  TermGauge().Set(static_cast<int64_t>(term()));
}

Status SSDM::Promote(uint64_t new_term) {
  if (!replica_mode()) {
    return Status::FailedPrecondition("Promote: engine is not a replica");
  }
  if (read_only()) {
    return Status::Unavailable("Promote: engine is read-only: " +
                               read_only_reason());
  }
  if (new_term <= term()) new_term = term() + 1;
  if (durability_ != nullptr) {
    // The bump is a normal committed batch: it persists locally, ships to
    // followers through the ordinary stream (they adopt it on apply), and
    // replays on restart. If it cannot be made durable, promotion fails
    // and the engine stays a replica.
    std::vector<storage::WalRecord> records;
    storage::WalRecord bump;
    bump.type = storage::WalRecord::Type::kTermBump;
    bump.aux = new_term;
    records.push_back(std::move(bump));
    SCISPARQL_RETURN_NOT_OK(durability_->LogStatement(&records));
  }
  AdoptTerm(new_term);
  replica_mode_.store(false, std::memory_order_release);
  replica_primary_.clear();
  obs::DefaultMetrics()
      .GetCounter("ssdm_repl_promotions_total", "",
                  "Times this node promoted itself to primary.")
      .Add();
  return Status::OK();
}

void SSDM::DemoteToReplica(uint64_t new_term, const std::string& primary_desc) {
  AdoptTerm(new_term);
  EnterReplicaMode(primary_desc);
  obs::DefaultMetrics()
      .GetCounter("ssdm_repl_demotions_total", "",
                  "Times this node stepped down after seeing a higher term.")
      .Add();
}

std::string SSDM::write_reject_reason() const {
  if (read_only()) return "engine is read-only: " + read_only_reason();
  if (replica_mode()) {
    std::string r = "replica is read-only; send writes to the primary";
    if (!replica_primary_.empty()) r += " at " + replica_primary_;
    return r;
  }
  return "";
}

Status SSDM::ApplyReplicationFrames(const std::string& frames) {
  const uint64_t after = last_lsn();
  auto resolve = [this](const std::string& storage_name,
                        uint64_t array_id) -> Result<Term> {
    return OpenStoredArray(storage_name, static_cast<ArrayId>(array_id));
  };
  ReplayBatcher batcher(&dataset_,
                        [this](Graph* g) { EnsureStats(g); });
  auto apply = [this, &batcher](const storage::WalRecord& rec) -> Status {
    if (rec.type == storage::WalRecord::Type::kTermBump) {
      // A promotion upstream: the stream carries the new term to every
      // follower, exactly like recovery does locally.
      AdoptTerm(rec.aux);
      return Status::OK();
    }
    return batcher.Apply(rec);
  };
  SCISPARQL_ASSIGN_OR_RETURN(
      storage::WalReplayStats stats,
      storage::ApplyWalFrames(frames, after, resolve, apply));
  batcher.Flush();
  if (stats.last_lsn > after) {
    // Write the shipped batches through to the local log before exposing
    // the new LSN: a durable replica's WAL stays a byte-identical prefix of
    // the primary's. A write-through failure flips the store read-only
    // (inside LogShippedFrames) and replication degrades to memory-only —
    // the applied LSN still advances so reads stay fresh.
    if (durability_ != nullptr && !durability_->read_only()) {
      (void)durability_->LogShippedFrames(frames, stats.last_lsn);
    }
    applied_lsn_.store(stats.last_lsn, std::memory_order_release);
  }
  // Same invalidation discipline as the local update path: version bumps
  // from Add/Remove/Clear let Sweep evict precisely; CLEAR ALL destroyed
  // graph objects, so epoch-bump instead.
  if (batcher.cleared_all()) {
    cache_.InvalidateAll();
  } else if (stats.records_applied > 0) {
    cache_.Sweep(dataset_, registry_.generation());
  }
  return Status::OK();
}

Status SSDM::BootstrapFromReplication(
    const std::vector<storage::SnapshotSection>& sections, uint64_t lsn) {
  Dataset fresh;
  SCISPARQL_RETURN_NOT_OK(BuildDatasetFromSections(sections, &fresh));
  InstallDataset(std::move(fresh));
  applied_lsn_.store(lsn, std::memory_order_release);
  if (durability_ != nullptr && !durability_->read_only()) {
    // Re-base the local store on the primary's timeline: drop the ENTIRE
    // local WAL — a demoted ex-primary can hold segments AHEAD of the
    // snapshot LSN whose contents diverge from the new timeline, so
    // keeping anything past the snapshot would poison the next recovery.
    // Then restart the writer at lsn+1 and persist a checkpoint so the
    // next restart recovers to this point instead of a stale one. Failure
    // leaves memory correct but the store untrustworthy -> sticky
    // read-only, replication continues memory-only.
    Status st = storage::TruncateWalBelow(
        durability_->vfs(), durability_->wal_dir(), UINT64_MAX);
    if (st.ok()) {
      durability_->wal()->ResetTo(lsn + 1);
      durability_->set_durable_lsn(lsn);
      st = CheckpointLocked().status();
    }
    if (st.ok()) {
      // Old-timeline snapshots are equally poisonous as fallbacks: prune
      // everything but the checkpoint just written.
      auto snaps =
          storage::ListSnapshots(durability_->vfs(), durability_->dir());
      if (snaps.ok()) {
        for (size_t i = 0; i + 1 < snaps->size(); ++i) {
          (void)durability_->vfs()->Remove((*snaps)[i].second);
        }
      }
    }
    if (!st.ok()) {
      EnterReadOnly("replica bootstrap could not re-base the local store: " +
                    st.message());
    }
  }
  return Status::OK();
}

Result<QueryOutcome> SSDM::ExecuteReplStatement(const std::string& verb) {
  if (verb == "LSN") {
    return QueryOutcome{QueryOutcome::Info{std::to_string(last_lsn())}};
  }
  if (verb == "STATUS") {
    std::ostringstream out;
    out << "role=" << (replica_mode() ? "replica" : "primary")
        << " lsn=" << last_lsn() << " term=" << term()
        << " node=" << node_id_
        << " durable=" << (durability_ != nullptr ? "true" : "false")
        << " read_only=" << (read_only() ? "true" : "false");
    if (replica_mode() && !replica_primary_.empty()) {
      out << " primary=" << replica_primary_;
    }
    return QueryOutcome{QueryOutcome::Info{out.str()}};
  }
  if (verb == "SNAPSHOT") {
    // Replica bootstrap: the checkpoint's own section encoding, under the
    // same exclusivity as CHECKPOINT. No writer can commit between the
    // fold and the LSN read, so the LSN covers exactly the encoded
    // content. The Info body is the replication snapshot encoding, not
    // display text.
    dataset_.FoldDeltas();
    std::vector<storage::SnapshotSection> sections;
    storage::SnapshotFooter footer;
    SCISPARQL_RETURN_NOT_OK(
        BuildSnapshotSections(dataset_, last_lsn(), &sections, &footer));
    return QueryOutcome{QueryOutcome::Info{
        repl::EncodeSnapshotBody(sections, footer.wal_lsn, term())}};
  }
  return Status::InvalidArgument(
      "unknown REPL statement: REPL " + verb +
      " (expected REPL LSN, REPL STATUS or REPL SNAPSHOT)");
}

Result<Term> SSDM::OpenStoredArray(const std::string& storage_name,
                                   ArrayId id) {
  std::shared_ptr<ArrayStorage> storage = FindStorage(storage_name);
  if (storage == nullptr) {
    return Status::NotFound("no attached storage: " + storage_name);
  }
  SCISPARQL_ASSIGN_OR_RETURN(
      std::shared_ptr<ArrayProxy> proxy,
      ArrayProxy::Open(std::move(storage), id, exec_options_.apr));
  return Term::Array(std::move(proxy));
}

}  // namespace scisparql
