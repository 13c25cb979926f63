// End-to-end benchmark: starts an in-process SsdmServer, drives one
// workload through RemoteSession clients over loopback TCP, checks every
// answer and prints one JSON result line (see README.md in this directory).
//
//   e2ebench --workload <spb-read|bistab-array|write-mix> --seed <n>
//            --seconds <s> --trace <0|1> --workdir <dir>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "apps/bistab.h"
#include "array/array.h"
#include "client/server.h"
#include "dblp.h"
#include "engine/ssdm.h"
#include "harness.h"
#include "loaders/turtle.h"
#include "obs/metrics.h"
#include "probes.h"
#include "rdf/write_batch.h"
#include "relstore/database.h"
#include "sparql/parser.h"
#include "storage/relational_backend.h"

namespace e2ebench {
namespace {

using scisparql::QueryOutcome;
using scisparql::QueryRequest;
using scisparql::Result;
using scisparql::SSDM;
using scisparql::Status;
using scisparql::Term;
namespace fs = std::filesystem;

// Set-up is repeated several times per run, so a regression that moves
// work into set-up shows above run-to-run noise. Shorter set-ups repeat
// more often. On spb-read and bistab-array each set-up's engine serves one
// slice of the recorded window: host speed drifts over tens of seconds, and
// slices spread over the whole run average that drift instead of sampling
// one stretch of it. write-mix serves one window, as its durability check
// reopens the one store that window wrote.
constexpr int kSpbSetups = 4;
constexpr int kBistabSetups = 8;
constexpr int kWriteMixSetups = 8;
// Closed-loop clients per workload: one per core of the 4-core reference
// host, matching the server's 4 scheduler workers. bistab-array runs one:
// the array back-ends and ArrayProxy's element cache have no locking, so
// concurrent array reads crash the server (see README.md, "Known defects").
constexpr int kClients = 4;
constexpr int kBistabClients = 1;
constexpr int kWorkers = 4;
// Warm-up before samples are recorded (plan cache, stats histograms).
constexpr double kWarmupSeconds = 0.5;
// Statements in the sending order readers cycle through.
constexpr size_t kDeckSize = 4000;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

struct Metric {
  double value;
  const char* unit;
};

/// Every per-layer metric the traced run prints, in output order, with its
/// unit. Metrics a workload does not exercise print 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"client.wire_ms_mean", "ms"},
    {"sched.wait_ms_mean", "ms"},
    {"sched.exec_read_ms_mean", "ms"},
    {"sched.exec_write_ms_mean", "ms"},
    {"sched.escalated", "count"},
    {"sched.compactions", "count"},
    {"sched.rejected", "count"},
    {"sparql.parse_ms_mean", "ms"},
    {"sparql.execute_ms_mean", "ms"},
    {"opt.optimize_ms_mean", "ms"},
    {"sparql.serialize_ms_mean", "ms"},
    {"sparql.traced_statements", "count"},
    {"sparql.id_path_share", "ratio"},
    {"sparql.id_path_templates", "count"},
    {"sparql.bgp_templates", "count"},
    {"cache.plan_hit_ratio", "ratio"},
    {"cache.plan_hits", "count"},
    {"cache.plan_misses", "count"},
    {"rdf.scan_rows_per_result", "ratio"},
    {"rdf.scan_rows", "count"},
    {"rdf.result_rows", "count"},
    {"rdf.first_query_ms", "ms"},
    {"rdf.apply_triples_per_s", "1/s"},
    {"loaders.turtle_triples_per_s", "1/s"},
    {"storage.wal_fsyncs_per_commit", "ratio"},
    {"storage.wal_fsyncs", "count"},
    {"storage.acked_updates", "count"},
    {"storage.wal_bytes_per_user_byte", "ratio"},
    {"storage.wal_bytes", "B"},
    {"storage.user_bytes", "B"},
    {"storage.fsync_ms_mean", "ms"},
    {"storage.fsync_busy_share", "ratio"},
    {"storage.fsync_calls", "count"},
    {"storage.apr_ms_mean", "ms"},
    {"storage.apr_calls", "count"},
    {"storage.apr_chunks_per_result", "ratio"},
    {"storage.apr_chunks", "count"},
    {"storage.aapr_pushdown_share", "ratio"},
    {"storage.aapr_pushdowns", "count"},
    {"relstore.pool_hit_ratio", "ratio"},
    {"relstore.pool_hits", "count"},
    {"relstore.pool_misses", "count"},
    {"relstore.pool_evictions", "count"},
    {"write_qps", "1/s"},
    {"write_p50_ms", "ms"},
    {"write_p99_ms", "ms"},
    {"write_samples", "count"},
    {"read_samples", "count"},
    {"error_rate", "ratio"},
    {"trace.read_p50_ms", "ms"},
    {"trace.spans", "count"},
    {"durability.checked_docs", "count"},
    {"storage.recovery_s", "s"},
};

/// Everything one run produced.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<std::pair<std::string, Metric>> e2e;
  std::map<std::string, double> layer;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_error.empty()) first_error = what;
    }
  }
};

double Seconds(Clock::time_point since) {
  return std::chrono::duration<double>(Clock::now() - since).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : s) h = (h ^ c) * 1099511628211ULL;
  return h;
}

/// Progress line on stderr, stamped with seconds since the process began.
void Note(const std::string& what) {
  std::fprintf(stderr, "[%7.2f s] %s\n", NowMicros() / 1e6, what.c_str());
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "e2ebench: %s\n", what.c_str());
  std::exit(1);
}

void CheckOk(const Status& st, const std::string& what) {
  if (!st.ok()) Fatal(what + ": " + st.ToString());
}

// ---------------------------------------------------------------------------
// Statement pools.

Stmt MakeStmt(std::string text, bool ordered = false) {
  Stmt s;
  s.text = std::move(text);
  s.ordered = ordered;
  return s;
}

void AddClass(Pool* pool, std::string name, double weight, int patterns,
              int count, const std::function<Stmt(int)>& make) {
  StmtClass c;
  c.name = std::move(name);
  c.weight = weight;
  c.bgp_patterns = patterns;
  for (int i = 0; i < count; ++i) {
    c.stmts.push_back(make(i));
    c.stmts.back().cls = pool->classes.size();
  }
  pool->classes.push_back(std::move(c));
}

/// The read mix over SP²Bench-shaped data, shaped like the query logs:
/// ~70% point lookups and 1-2-pattern BGPs with Zipf-drawn constants, ~25%
/// 3-5-pattern stars and chains around one selective constant, ~5% heavy
/// SP²Bench-like queries. `small_only` keeps the first group (the readers
/// of write-mix).
///
/// The three group shares are the ones the query-log study motivates; no
/// source gives shares for the classes inside a group, so every class of a
/// group gets the same share.
Pool DblpReadPool(const DblpData& d, uint64_t seed, bool small_only) {
  Rng rng(seed ^ 0x51b2b3c4d5e6f708ULL);
  const std::string P = kDblpPrefixes;
  const int kSmall = 150, kMedium = 100, kHeavy = 12;
  const double small = 0.70 / 5, medium = 0.25 / 4, heavy = 0.05 / 3;
  // Constants are Zipf ranks at stratified quantiles: statement i of a
  // class of n draws its rank from the i-th n-quantile, so every pool
  // covers the popularity curve the same way and the seed changes which
  // entities sit at each rank, not how heavy the mix is.
  int count = 0;
  auto rank = [&](size_t n, int i) {
    return Rng::ZipfRank(n, 1.0, (i + rng.Uniform()) / count);
  };
  auto doc = [&](int i) {
    const auto& v = i % 5 < 3 || d.inprocs.empty() ? d.articles : d.inprocs;
    return "pub:" + v[rank(v.size(), i)];
  };
  auto person = [&](int i) { return "per:" + d.persons[rank(d.persons.size(), i)]; };
  Pool pool;
  count = kSmall;
  AddClass(&pool, "point_doc", small, 1, count, [&](int i) {
    return MakeStmt(P + "SELECT ?p ?o WHERE { " + doc(i) + " ?p ?o }");
  });
  AddClass(&pool, "person_name", small, 1, count, [&](int i) {
    return MakeStmt(P + "SELECT ?n WHERE { " + person(i) + " foaf:name ?n }");
  });
  AddClass(&pool, "ask_creator", small, 1, count, [&](int i) {
    return MakeStmt(P + "ASK { " + doc(i) + " dc:creator " +
                    person(count - 1 - i) + " }");
  });
  AddClass(&pool, "docs_by_person", small, 2, count, [&](int i) {
    return MakeStmt(P + "SELECT ?d ?t WHERE { ?d dc:creator " + person(i) +
                    " . ?d dc:title ?t }");
  });
  AddClass(&pool, "citers", small, 2, count, [&](int i) {
    return MakeStmt(P + "SELECT ?d ?y WHERE { ?d dcterms:references pub:" +
                    d.cited[rank(d.cited.size(), i)] +
                    " . ?d dcterms:issued ?y }");
  });
  if (small_only) return pool;

  count = kMedium;
  AddClass(&pool, "person_star", medium, 4, count, [&](int i) {
    return MakeStmt(P + "SELECT ?d ?t ?y ?pg WHERE { ?d dc:creator " +
                    person(i) +
                    " ; dc:title ?t ; dcterms:issued ?y ; swrc:pages ?pg }");
  });
  AddClass(&pool, "coauthors", medium, 3, count, [&](int i) {
    return MakeStmt(P + "SELECT DISTINCT ?c ?n WHERE { ?d dc:creator " +
                    person(i) + " . ?d dc:creator ?c . ?c foaf:name ?n }");
  });
  AddClass(&pool, "cited_details", medium, 3, count, [&](int i) {
    return MakeStmt(P + "SELECT ?c ?t ?y WHERE { pub:" +
                    d.citing[rank(d.citing.size(), i)] +
                    " dcterms:references ?c . ?c dc:title ?t . "
                    "?c dcterms:issued ?y }");
  });
  AddClass(&pool, "journal_authors", medium, 4, count, [&](int i) {
    return MakeStmt(P + "SELECT ?d ?t ?n WHERE { ?d swrc:journal pub:" +
                    d.journals[rank(d.journals.size(), i)] +
                    " . ?d dc:title ?t . ?d dc:creator ?a . ?a foaf:name ?n }");
  });

  // Heavy queries take their year from a fixed stratified cycle over the
  // last complete years, so their mean cost does not hinge on the seed.
  auto year = [&](int i) { return std::to_string(d.last_year - 1 - i % 12); };
  AddClass(&pool, "inproc_star", heavy, 6, kHeavy, [&](int i) {
    return MakeStmt(
        P + "SELECT ?ip ?a ?bt ?t ?pr ?pg ?hp WHERE {\n"
            "  ?ip a bench:Inproceedings ; dc:creator ?a ; bench:booktitle ?bt ;\n"
            "      dc:title ?t ; dcterms:partOf ?pr ; dcterms:issued " +
        year(i) +
        " .\n"
        "  OPTIONAL { ?ip swrc:pages ?pg }\n"
        "  OPTIONAL { ?ip foaf:homepage ?hp }\n"
        "  FILTER (STRLEN(?t) > 30)\n}");
  });
  AddClass(&pool, "cite_aggregate", heavy, 3, kHeavy, [&](int i) {
    return MakeStmt(P +
                    "SELECT ?a (COUNT(?d) AS ?n) WHERE { ?d dcterms:issued " +
                    year(i) +
                    " . ?d dcterms:references ?c . ?c dc:creator ?a } "
                    "GROUP BY ?a");
  });
  AddClass(&pool, "recent_articles", heavy, 3, kHeavy, [&](int i) {
    return MakeStmt(
        P + "SELECT ?d ?t ?y WHERE { ?d a bench:Article ; dc:title ?t ; "
            "dcterms:issued ?y . FILTER (?y >= " +
            year(i) + ") } ORDER BY DESC(?y) ?d LIMIT 10",
        true);
  });
  return pool;
}

/// The BISTAB mix: the thesis application queries Q1-Q4 with seeded
/// parameters, and minibench-style array retrievals on uniformly drawn
/// tasks written as SciSPARQL subscripts. No source gives a mix of these,
/// so every class gets the same share.
///
/// Single elements are written as one-row ranges (`?r[i:i, j]`): a view
/// that is materialized through APR. A plain `?r[i, j]` would be served
/// from the stored array's proxy, which keeps the last chunk it read, and
/// these arrays have one chunk each.
Pool BistabPool(int tasks, int timesteps, uint64_t seed) {
  Rng rng(seed ^ 0x2545f4914f6cdd1dULL);
  using namespace scisparql::apps;
  const std::string bi =
      std::string("PREFIX bi: <") + kBistabNs + ">\nSELECT ";
  auto task = [&]() {
    return "bi:task" + std::to_string(1 + rng.Below(static_cast<size_t>(tasks)));
  };
  auto row = [&]() { return 1 + static_cast<int>(rng.Below(timesteps)); };
  auto retrieval = [&](const std::string& vars, const std::string& binds) {
    return MakeStmt(bi + vars + " WHERE { " + task() + " bi:result ?r . " +
                    binds + " }");
  };
  Pool pool;
  // Query parameters sit at stratified quantiles of their ranges, so the
  // selectivity mix is the same for every seed.
  auto at = [&](double lo, double hi, int i, int n) {
    return lo + (hi - lo) * (i + rng.Uniform()) / n;
  };
  AddClass(&pool, "q1_params", 0.1, 3, 20, [&](int i) {
    return MakeStmt(BistabQ1(at(10, 50, i, 20)), true);
  });
  AddClass(&pool, "q2_final", 0.1, 3, 20, [&](int i) {
    return MakeStmt(BistabQ2(at(30, 50, i, 20)), true);
  });
  AddClass(&pool, "q3_mean", 0.1, 2, 10, [&](int i) {
    return MakeStmt(BistabQ3(at(40, 60, i, 10)), true);
  });
  AddClass(&pool, "q4_switch", 0.1, 3, 10, [&](int i) {
    return MakeStmt(BistabQ4(static_cast<int>(at(timesteps / 2, timesteps, i, 10))),
                    true);
  });
  auto element = [&]() {
    std::string i = std::to_string(row());
    return "?r[" + i + ":" + i + ", " + std::to_string(1 + rng.Below(2)) + "]";
  };
  AddClass(&pool, "element", 0.1, 1, 150, [&](int) {
    return retrieval("?v", "BIND (" + element() + " AS ?v)");
  });
  AddClass(&pool, "row", 0.1, 1, 150, [&](int) {
    return retrieval("?v", "BIND (?r[" + std::to_string(row()) + ", :] AS ?v)");
  });
  AddClass(&pool, "column", 0.1, 1, 150, [&](int) {
    return retrieval("?v", "BIND (?r[:, " + std::to_string(1 + rng.Below(2)) +
                               "] AS ?v)");
  });
  AddClass(&pool, "strided_rows", 0.1, 1, 150, [&](int) {
    int lo = 1 + static_cast<int>(rng.Below(timesteps / 2));
    int hi = lo + 200 + static_cast<int>(rng.Below(400));
    return retrieval("?v", "BIND (?r[" + std::to_string(lo) + ":" +
                               std::to_string(hi) + ":" +
                               std::to_string(2 + rng.Below(9)) +
                               ", :] AS ?v)");
  });
  AddClass(&pool, "random_elements", 0.1, 1, 150, [&](int) {
    std::string vars, binds;
    for (int k = 1; k <= 8; ++k) {
      vars += " ?v" + std::to_string(k);
      binds += "BIND (" + element() + " AS ?v" + std::to_string(k) + ") ";
    }
    return retrieval(vars, binds);
  });
  AddClass(&pool, "whole_mean", 0.1, 1, 150, [&](int) {
    return retrieval("?v", "BIND (AAVG(?r) AS ?v)");
  });
  return pool;
}

// ---------------------------------------------------------------------------
// Shared phases.

/// Times sparql::ParseStatement over every pool statement.
double ParseMsMean(const Pool& pool) {
  scisparql::PrefixMap prefixes = scisparql::PrefixMap::WithDefaults();
  Clock::time_point t0 = Clock::now();
  size_t n = 0;
  for (const StmtClass& c : pool.classes) {
    for (const Stmt& s : c.stmts) {
      auto st = scisparql::sparql::ParseStatement(s.text, prefixes);
      if (!st.ok()) Fatal("parse: " + st.status().ToString());
      ++n;
    }
  }
  return Seconds(t0) * 1000 / static_cast<double>(n);
}

/// Share of the multi-pattern BGP templates whose EXPLAIN shows an ID-space
/// operator. Runs on the embedded engine before the server starts.
void IdPathShare(SSDM* engine, const Pool& pool, Outcome* o) {
  int templates = 0, id = 0;
  for (const StmtClass& c : pool.classes) {
    if (c.bgp_patterns < 2) continue;
    ++templates;
    auto plan = engine->Explain(c.stmts.front().text);
    if (!plan.ok()) Fatal("explain: " + plan.status().ToString());
    if (plan->find("index-scan(") != std::string::npos) ++id;
  }
  o->layer["sparql.id_path_share"] = Ratio(id, templates);
  o->layer["sparql.id_path_templates"] = id;
  o->layer["sparql.bgp_templates"] = templates;
}

/// What one write-mix writer sent, for the durability check.
struct WriterLog {
  struct Doc {
    std::vector<std::string> triples;  // "s p o" in Term::ToString form
    bool inserted = false;             // INSERT acknowledged
    bool deleted = false;              // DELETE acknowledged
  };
  std::vector<Doc> docs;
};

/// Writer client of write-mix, defined with that workload below.
void RunWriter(int port, int writer, uint64_t seed, const Window& w,
               WriterLog* log, ClientStats* out);

/// The recorded windows served so far: what the clients saw, and the
/// engine's counters summed over the windows (each the difference of
/// snapshots taken at the window's start and end).
struct Served {
  std::vector<ClientStats> readers;
  std::vector<ClientStats> writers;
  MetricsSnapshot metrics;
  uint64_t escalated = 0, compactions = 0, rejected = 0;
  TimingStorage::Counts arrays;
  uint64_t syncs = 0, sync_us = 0;
  double window_s = 0;
};

/// Snapshot of the counters a window's deltas are taken from.
struct Counters {
  scisparql::sched::SchedulerStats sched;
  MetricsSnapshot metrics;
  TimingStorage::Counts arrays;
  uint64_t syncs = 0, sync_us = 0;
};

Counters Snapshot(scisparql::client::SsdmServer* server,
                  const TimingStorage* arrays, const TimingVfs* vfs) {
  Counters c;
  c.sched = server->scheduler_stats();
  c.metrics =
      ParseExposition(scisparql::obs::DefaultMetrics().RenderPrometheusText());
  if (arrays != nullptr) c.arrays = arrays->counts();
  if (vfs != nullptr) {
    c.syncs = vfs->syncs();
    c.sync_us = vfs->sync_micros();
  }
  return c;
}

/// Runs window `part` of `parts` against a running server: readers (and
/// writers) for a warm-up, then a recorded window of `seconds` / `parts`.
/// Reader i starts in the deck where window `part` hands it its own
/// stretch, so the windows together send the whole deck. Adds what the
/// window saw to *out.
void Serve(scisparql::client::SsdmServer* server, const Pool& pool,
           const Args& a, int part, int parts, int n_readers, int n_writers,
           std::vector<WriterLog>* wlogs, SpanLog* log, TimingStorage* arrays,
           TimingVfs* vfs, Served* out) {
  std::vector<ClientStats> readers(n_readers), writers(n_writers);
  Window w;
  w.start = Clock::now() + std::chrono::milliseconds(200);
  w.record_from = w.start + std::chrono::milliseconds(
                                static_cast<int64_t>(kWarmupSeconds * 1000));
  w.end = w.record_from + std::chrono::microseconds(static_cast<int64_t>(
                              a.seconds * 1e6 / parts));
  const std::vector<const Stmt*> deck = Deal(pool, kDeckSize, a.seed);
  const size_t stretches = static_cast<size_t>(parts) * n_readers;
  std::vector<std::thread> threads;
  for (int i = 0; i < n_readers; ++i) {
    threads.emplace_back(RunReader, server->port(), std::cref(pool),
                         std::cref(deck),
                         deck.size() * (part * n_readers + i) / stretches,
                         std::cref(w), log, &readers[i]);
  }
  for (int i = 0; i < n_writers; ++i) {
    threads.emplace_back(RunWriter, server->port(), i, a.seed * 1000 + 100 + i,
                         std::cref(w), &(*wlogs)[i], &writers[i]);
  }
  std::this_thread::sleep_until(w.record_from);
  Counters c0 = Snapshot(server, arrays, vfs);
  std::this_thread::sleep_until(w.end);
  Counters c1 = Snapshot(server, arrays, vfs);
  for (auto& t : threads) t.join();
  out->readers.insert(out->readers.end(), readers.begin(), readers.end());
  out->writers.insert(out->writers.end(), writers.begin(), writers.end());
  AddDelta(c0.metrics, c1.metrics, &out->metrics);
  out->escalated += c1.sched.escalated - c0.sched.escalated;
  out->compactions += c1.sched.compactions - c0.sched.compactions;
  out->rejected += c1.sched.rejected - c0.sched.rejected;
  out->arrays.apr_calls += c1.arrays.apr_calls - c0.arrays.apr_calls;
  out->arrays.apr_micros += c1.arrays.apr_micros - c0.arrays.apr_micros;
  out->arrays.pushdowns += c1.arrays.pushdowns - c0.arrays.pushdowns;
  out->arrays.chunks += c1.arrays.chunks - c0.arrays.chunks;
  out->syncs += c1.syncs - c0.syncs;
  out->sync_us += c1.sync_us - c0.sync_us;
  out->window_s += std::chrono::duration<double>(w.end - w.record_from).count();
}

/// Folds client results into the outcome: read/write latency metrics,
/// failures, and (when tracing) the per-layer numbers every workload has.
void Report(const Served& r, const Args& a, Outcome* o) {
  std::vector<double> reads, writes;
  double lat_sum = 0;
  uint64_t rows = 0, user_bytes = 0;
  for (const auto* group : {&r.readers, &r.writers}) {
    for (const ClientStats& c : *group) {
      o->attempted += c.attempted;
      o->failed += c.failed;
      if (o->first_error.empty()) o->first_error = c.first_error;
      lat_sum += c.latency_sum_ms;
      rows += c.rows;
      user_bytes += c.user_bytes;
      auto& dst = group == &r.readers ? reads : writes;
      dst.insert(dst.end(), c.latency_ms.begin(), c.latency_ms.end());
    }
  }
  Latency rl = Summarize(reads), wl = Summarize(writes);
  std::fprintf(stderr,
               "reads: %zu samples p50 %.4f ms p99 %.4f ms | writes: %zu "
               "samples p50 %.4f ms p99 %.4f ms | window %.2f s\n",
               rl.samples, rl.p50_ms, rl.p99_ms, wl.samples, wl.p50_ms,
               wl.p99_ms, r.window_s);
  o->e2e = {{"read_qps", {rl.samples / r.window_s, "1/s"}},
            {"read_p50_ms", {rl.p50_ms, "ms"}},
            {"read_p99_ms", {rl.p99_ms, "ms"}}};
  auto& L = o->layer;
  L["read_samples"] = rl.samples;
  L["write_samples"] = wl.samples;
  L["write_qps"] = wl.samples / r.window_s;
  L["write_p50_ms"] = wl.p50_ms;
  L["write_p99_ms"] = wl.p99_ms;
  L["trace.read_p50_ms"] = rl.p50_ms;
  if (!a.trace) return;

  auto d = [&](const std::string& k) {
    auto it = r.metrics.find(k);
    return it == r.metrics.end() ? 0.0 : it->second;
  };
  double wait_n = d("ssdm_sched_wait_micros_count");
  double rd_n = d("ssdm_query_micros_count{class=\"read\"}");
  double wr_n = d("ssdm_query_micros_count{class=\"write\"}");
  double wait_us = d("ssdm_sched_wait_micros_sum");
  double rd_us = d("ssdm_query_micros_sum{class=\"read\"}");
  double wr_us = d("ssdm_query_micros_sum{class=\"write\"}");
  L["sched.wait_ms_mean"] = Ratio(wait_us, wait_n) / 1000;
  L["sched.exec_read_ms_mean"] = Ratio(rd_us, rd_n) / 1000;
  L["sched.exec_write_ms_mean"] = Ratio(wr_us, wr_n) / 1000;
  // Client latency not spent queued or executing: framing, (de)serializing
  // and loopback transfer on both sides.
  double client_mean = Ratio(lat_sum, static_cast<double>(rl.samples + wl.samples));
  L["client.wire_ms_mean"] =
      client_mean - Ratio(wait_us + rd_us + wr_us, rd_n + wr_n) / 1000;
  L["sched.escalated"] = r.escalated;
  L["sched.compactions"] = r.compactions;
  L["sched.rejected"] = r.rejected;
  double hits = d("ssdm_cache_plan_hits_total");
  double misses = d("ssdm_cache_plan_misses_total");
  L["cache.plan_hits"] = hits;
  L["cache.plan_misses"] = misses;
  L["cache.plan_hit_ratio"] = Ratio(hits, hits + misses);
  double scan_rows = d("ssdm_rdf_scan_rows_total");
  L["rdf.scan_rows"] = scan_rows;
  L["rdf.result_rows"] = rows;
  L["rdf.scan_rows_per_result"] = Ratio(scan_rows, rows);
  double fsyncs = d("ssdm_wal_fsyncs_total");
  double wal_bytes = d("ssdm_wal_bytes_total");
  L["storage.wal_fsyncs"] = fsyncs;
  L["storage.acked_updates"] = wl.samples;
  L["storage.wal_fsyncs_per_commit"] = Ratio(fsyncs, wl.samples);
  L["storage.wal_bytes"] = wal_bytes;
  L["storage.user_bytes"] = user_bytes;
  L["storage.wal_bytes_per_user_byte"] = Ratio(wal_bytes, user_bytes);
  double syncs = r.syncs;
  double sync_ms = r.sync_us / 1000.0;
  L["storage.fsync_calls"] = syncs;
  L["storage.fsync_ms_mean"] = Ratio(sync_ms, syncs);
  L["storage.fsync_busy_share"] = sync_ms / (r.window_s * 1000);
  double apr = r.arrays.apr_calls;
  double push = r.arrays.pushdowns;
  double chunks = r.arrays.chunks;
  L["storage.apr_calls"] = apr;
  L["storage.apr_ms_mean"] = Ratio(r.arrays.apr_micros / 1000.0, apr);
  L["storage.apr_chunks"] = chunks;
  L["storage.apr_chunks_per_result"] = Ratio(chunks, apr);
  L["storage.aapr_pushdowns"] = push;
  L["storage.aapr_pushdown_share"] = Ratio(push, push + apr);
  double ph = d("ssdm_buffer_pool_hits_total");
  double pm = d("ssdm_buffer_pool_misses_total");
  L["relstore.pool_hits"] = ph;
  L["relstore.pool_misses"] = pm;
  L["relstore.pool_hit_ratio"] = Ratio(ph, ph + pm);
  L["relstore.pool_evictions"] = d("ssdm_buffer_pool_evictions_total");
}

/// Replays a seeded sample of the pool through a traced remote session once
/// the timed window is over, and attributes server time to phases from the
/// span trees (query -> parse / execute{optimize, bgp, scan} / serialize).
void TracedReplay(int port, const Pool& pool, uint64_t seed, SpanLog* log,
                  Outcome* o) {
  auto session = scisparql::client::RemoteSession::Connect(
      "127.0.0.1", port, std::chrono::seconds(60));
  if (!session.ok()) Fatal("connect: " + session.status().ToString());
  const int kReplay = 300;
  std::vector<const Stmt*> sample = Deal(pool, kReplay, seed ^ 0x7aceULL);
  std::map<std::string, double> ms;
  for (const Stmt* s : sample) {
    const Stmt& stmt = *s;
    scisparql::obs::QueryTrace trace;
    QueryRequest req(stmt.text);
    req.trace_sink = &trace;
    int64_t start = NowMicros();
    auto r = session->Execute(req);
    uint64_t rows = 0;
    o->Check(r.ok() && Matches(stmt, *r, &rows), "traced replay answer");
    uint64_t parent = log->Add(0, "replay." + pool.classes[stmt.cls].name,
                               start, NowMicros());
    std::map<std::string, double> one;
    AddSelfTimes(trace.Render(), &one);
    for (const auto& [name, v] : one) {
      ms[name] += v;
      if (name.rfind("total:", 0) == 0) {
        log->Add(parent, "server." + name.substr(6), start,
                 start + static_cast<int64_t>(v * 1000));
      }
    }
  }
  double n = static_cast<double>(sample.size());
  o->layer["sparql.traced_statements"] = n;
  o->layer["sparql.execute_ms_mean"] = ms["total:execute"] / n;
  o->layer["opt.optimize_ms_mean"] = ms["total:optimize"] / n;
  o->layer["sparql.serialize_ms_mean"] = ms["total:serialize"] / n;
  for (const char* phase : {"query", "parse", "execute", "optimize", "bgp",
                            "scan", "serialize", "cache"}) {
    std::fprintf(stderr, "  trace self-time %-10s %.4f ms/stmt\n", phase,
                 ms[phase] / n);
  }
}

scisparql::client::SsdmServer::Options ServerOptions() {
  scisparql::client::SsdmServer::Options opts;
  opts.sched.workers = kWorkers;
  return opts;
}

/// The generator's determinism check: same seed, byte-identical Turtle;
/// another seed, different Turtle.
void CheckGeneratorDeterminism(uint64_t seed, Outcome* o) {
  std::string a = GenerateDblp(seed, 20000).turtle;
  o->Check(a == GenerateDblp(seed, 20000).turtle,
           "generator: same seed gave different Turtle");
  o->Check(a != GenerateDblp(seed + 1, 20000).turtle,
           "generator: different seeds gave identical Turtle");
}

/// Loads the same Turtle twice into fresh graphs: through the Turtle loader
/// and, pre-parsed, as one WriteBatch through Graph::Apply.
void LoaderVsApply(uint64_t seed, Outcome* o) {
  std::string ttl = GenerateDblp(seed, 100000).turtle;
  scisparql::Graph parsed;
  Clock::time_point t0 = Clock::now();
  CheckOk(scisparql::loaders::LoadTurtleString(ttl, &parsed), "turtle load");
  double turtle_s = Seconds(t0);
  scisparql::WriteBatch batch;
  batch.reserve(parsed.size());
  parsed.Match(Term(), Term(), Term(),
               [&](const scisparql::Triple& t) {
                 batch.Add(t);
                 return true;
               });
  size_t n = batch.size();
  scisparql::Graph applied;
  t0 = Clock::now();
  applied.Apply(std::move(batch));
  double apply_s = Seconds(t0);
  o->Check(applied.size() == parsed.size(), "apply: triple count differs");
  o->layer["loaders.turtle_triples_per_s"] = parsed.size() / turtle_s;
  o->layer["rdf.apply_triples_per_s"] = n / apply_s;
}

const char* kFirstQuery =
    "PREFIX dc: <http://purl.org/dc/elements/1.1/>\n"
    "PREFIX per: <http://localhost/persons/>\n"
    "SELECT ?d ?t WHERE { ?d dc:creator per:p1 . ?d dc:title ?t }";

/// Timings of a workload's repeated set-ups.
struct Setups {
  std::vector<double> total_s, load_tps, first_ms;
  double rss_bpt = 0;

  /// Records one set-up; the first one also gives the RSS growth per
  /// stored triple (later ones reuse memory the allocator kept).
  void Add(double total, size_t triples, double load_s, double first,
           int64_t rss_growth) {
    if (total_s.empty()) rss_bpt = static_cast<double>(rss_growth) / triples;
    total_s.push_back(total);
    load_tps.push_back(triples / load_s);
    first_ms.push_back(first);
    std::fprintf(stderr, "setup %zu: %zu triples, %.3f s (load %.3f s, first query %.2f ms)\n",
                 total_s.size(), triples, total, load_s, first);
  }

  /// setup_s is the median set-up; load_triples_per_s the median set-up's
  /// load rate.
  void Finish(const Args& a, Outcome* o) const {
    o->e2e.insert(o->e2e.begin(),
                  {{"setup_s", {Median(total_s), "s"}},
                   {"load_triples_per_s", {Median(load_tps), "1/s"}},
                   {"rss_bytes_per_triple", {rss_bpt, "B/triple"}}});
    if (a.trace) o->layer["rdf.first_query_ms"] = Median(first_ms);
  }
};

// ---------------------------------------------------------------------------
// spb-read

Outcome SpbRead(const Args& a, SpanLog* log) {
  Outcome o;
  const size_t kTriples = 500000;
  Setups su;
  DblpData data;
  uint64_t hash0 = 0;
  // Generate, load, first query. Every set-up hashes its Turtle: the same
  // seed must give the same bytes.
  auto set_up = [&]() {
    data = DblpData();
    Clock::time_point t0 = Clock::now();
    data = GenerateDblp(a.seed, kTriples);
    auto engine = std::make_unique<SSDM>();
    int64_t rss0 = RssBytes();
    Clock::time_point tl = Clock::now();
    CheckOk(engine->LoadTurtleString(data.turtle), "load");
    double load_s = Seconds(tl);
    Clock::time_point tq = Clock::now();
    CheckOk(engine->Execute(QueryRequest(kFirstQuery)).status(), "first query");
    double first_ms = Seconds(tq) * 1000;
    su.Add(Seconds(t0), engine->dataset().default_graph().size(), load_s,
           first_ms, RssBytes() - rss0);
    uint64_t h = Fnv1a(data.turtle);
    if (hash0 == 0) hash0 = h;
    o.Check(h == hash0, "generator: same seed gave different Turtle");
    data.turtle = std::string();
    return engine;
  };
  Pool pool;
  Served served;
  // Every set-up's engine serves one of the recorded windows, so the
  // windows sample the host across the whole run. The first engine also
  // gives the reference answers.
  for (int k = 0; k < kSpbSetups; ++k) {
    std::unique_ptr<SSDM> engine = set_up();
    if (k == 0) {
      CheckGeneratorDeterminism(a.seed, &o);
      pool = DblpReadPool(data, a.seed, false);
      CheckOk(ComputeExpected(&pool, [&](const std::string& t) {
                return engine->Execute(QueryRequest(t));
              }),
              "reference answers");
      Note("reference answers computed");
      // The scan-and-bind reference path must agree with the ID-join
      // answers: the head statement of every class plus a seeded sample.
      scisparql::sparql::ExecOptions scan_only = engine->exec_options();
      scan_only.use_id_joins = false;
      std::vector<const Stmt*> sample = Deal(pool, 30, a.seed ^ 0x5ca7ULL);
      for (const StmtClass& c : pool.classes) sample.push_back(&c.stmts.front());
      for (const Stmt* s : sample) {
        QueryRequest req(s->text);
        req.options = scan_only;
        auto r = engine->Execute(req);
        uint64_t rows = 0;
        o.Check(r.ok() && Matches(*s, *r, &rows),
                "scan-and-bind disagrees with the ID path on " + s->text);
      }
      Note("scan-and-bind sample checked");
      if (a.trace) {
        IdPathShare(engine.get(), pool, &o);
        o.layer["sparql.parse_ms_mean"] = ParseMsMean(pool);
      }
    }
    scisparql::client::SsdmServer server(engine.get(), ServerOptions());
    auto port = server.Start(0);
    CheckOk(port.status(), "server start");
    Serve(&server, pool, a, k, kSpbSetups, kClients, 0, nullptr, log, nullptr,
          nullptr, &served);
    if (a.trace && k + 1 == kSpbSetups) TracedReplay(*port, pool, a.seed, log, &o);
  }
  Report(served, a, &o);
  su.Finish(a, &o);
  if (a.trace) LoaderVsApply(a.seed, &o);
  return o;
}

// ---------------------------------------------------------------------------
// bistab-array

/// One BISTAB store: the relational back-end's database, the timing
/// decorator over it (traced runs only), and the engine (destroyed first,
/// as its array proxies reference the storage).
struct BistabStore {
  std::unique_ptr<scisparql::relstore::Database> db;
  std::shared_ptr<TimingStorage> timing;
  std::unique_ptr<SSDM> engine;
};

Outcome BistabArray(const Args& a, SpanLog* log) {
  Outcome o;
  using namespace scisparql::apps;
  // 1000 tasks x (2000 x 2 doubles) = 32 MB of arrays in the relational
  // back-end, 16x its default 256 x 8 KiB buffer pool. The pages behind the
  // pool live in relstore's in-memory page store, so a pool miss copies a
  // page; a page file's write-back and deletion between set-ups would
  // otherwise land in the set-up timings.
  BistabConfig cfg;
  cfg.parameter_cases = 50;
  cfg.realizations = 20;
  cfg.timesteps = 2000;
  cfg.seed = a.seed;
  const int tasks = cfg.parameter_cases * cfg.realizations;

  Setups su;
  // The first set-up's resident data answers the reference queries.
  std::unique_ptr<SSDM> resident_ref;
  // Generation simulates every trajectory into an engine with the arrays
  // resident. The load, timed on its own, stores each array in the
  // relational back-end and adds the triples to the served engine.
  auto set_up = [&]() {
    auto store = std::make_unique<BistabStore>();
    BistabStore& st = *store;
    Clock::time_point t0 = Clock::now();
    auto resident = std::make_unique<SSDM>();
    CheckOk(GenerateBistab(resident.get(), cfg).status(), "bistab generate");
    std::vector<scisparql::Triple> triples;
    resident->dataset().default_graph().Match(
        Term(), Term(), Term(), [&](const scisparql::Triple& t) {
          triples.push_back(t);
          return true;
        });
    auto opened = scisparql::relstore::Database::Open("");
    CheckOk(opened.status(), "relstore open");
    st.db = std::move(*opened);
    auto rel = scisparql::RelationalArrayStorage::Attach(st.db.get());
    CheckOk(rel.status(), "relational attach");
    std::shared_ptr<scisparql::ArrayStorage> storage(std::move(*rel));
    if (a.trace) {
      st.timing = std::make_shared<TimingStorage>(storage, log);
      storage = st.timing;
    }
    const std::string backend = storage->name();
    st.engine = std::make_unique<SSDM>();
    st.engine->AttachStorage(storage);
    int64_t rss0 = RssBytes();
    Clock::time_point tl = Clock::now();
    scisparql::WriteBatch batch;
    batch.reserve(triples.size());
    for (scisparql::Triple& t : triples) {
      if (t.o.IsArray()) {
        auto* arr = dynamic_cast<const scisparql::ResidentArray*>(t.o.array().get());
        if (arr == nullptr) Fatal("bistab generate: array not resident");
        auto stored = st.engine->StoreArray(arr->array(), backend, cfg.chunk_elems);
        CheckOk(stored.status(), "store array");
        t.o = std::move(*stored);
      }
      batch.Add(std::move(t));
    }
    st.engine->dataset().default_graph().Apply(std::move(batch));
    double load_s = Seconds(tl);
    Clock::time_point tq = Clock::now();
    CheckOk(st.engine->Execute(QueryRequest(BistabQ4(cfg.timesteps))).status(),
            "first query");
    double first_ms = Seconds(tq) * 1000;
    su.Add(Seconds(t0), st.engine->dataset().default_graph().size(), load_s,
           first_ms, RssBytes() - rss0);
    if (resident_ref == nullptr) resident_ref = std::move(resident);
    return store;
  };
  Pool pool = BistabPool(tasks, cfg.timesteps, a.seed);
  Served served;
  // Every set-up's store serves one of the recorded windows, as on
  // spb-read.
  for (int k = 0; k < kBistabSetups; ++k) {
    std::unique_ptr<BistabStore> store = set_up();
    if (k == 0) {
      CheckOk(ComputeExpected(&pool, [&](const std::string& t) {
                return resident_ref->Execute(QueryRequest(t));
              }),
              "reference answers");
      resident_ref.reset();
      if (a.trace) {
        IdPathShare(store->engine.get(), pool, &o);
        o.layer["sparql.parse_ms_mean"] = ParseMsMean(pool);
      }
    }
    scisparql::client::SsdmServer server(store->engine.get(), ServerOptions());
    auto port = server.Start(0);
    CheckOk(port.status(), "server start");
    Serve(&server, pool, a, k, kBistabSetups, kBistabClients, 0, nullptr, log,
          store->timing.get(), nullptr, &served);
    if (a.trace && k + 1 == kBistabSetups) {
      TracedReplay(*port, pool, a.seed, log, &o);
    }
  }
  Report(served, a, &o);
  su.Finish(a, &o);
  return o;
}

// ---------------------------------------------------------------------------
// write-mix

constexpr const char* kWriterNs = "http://localhost/w/";
// Documents each writer keeps live; past it every insert is preceded by
// the delete of the writer's oldest document, so the graph size is bounded.
constexpr size_t kLiveDocs = 200;

void RunWriter(int port, int writer, uint64_t seed, const Window& w,
               WriterLog* log, ClientStats* out) {
  auto session = scisparql::client::RemoteSession::Connect(
      "127.0.0.1", port, std::chrono::seconds(60));
  if (!session.ok()) {
    ++out->attempted;
    out->Fail("connect: " + session.status().ToString());
    return;
  }
  Rng rng(seed);
  const std::string ns = std::string(kWriterNs) + std::to_string(writer) + "/";
  auto iri = [](const std::string& s) { return Term::Iri(s); };
  const Term rdf_type = iri("http://www.w3.org/1999/02/22-rdf-syntax-ns#type");
  std::vector<size_t> live;  // indexes into log->docs, oldest first
  size_t oldest = 0;
  std::this_thread::sleep_until(w.start);
  while (true) {
    Clock::time_point t0 = Clock::now();
    if (t0 >= w.end) break;
    bool del = live.size() - oldest >= kLiveDocs;
    size_t idx;
    if (del) {
      idx = live[oldest++];
    } else {
      // A new 5-10 triple document with its own author, linked to nothing
      // the readers query, so their expected answers stay valid.
      idx = log->docs.size();
      std::string d = ns + "d" + std::to_string(idx);
      std::string p = ns + "p" + std::to_string(idx);
      std::vector<std::array<Term, 3>> t = {
          {iri(d), rdf_type, iri("http://localhost/vocabulary/bench/Article")},
          {iri(d), iri("http://purl.org/dc/elements/1.1/title"),
           Term::String("write-mix document " + std::to_string(idx))},
          {iri(d), iri("http://purl.org/dc/terms/issued"),
           Term::Integer(1990 + static_cast<int64_t>(rng.Below(30)))},
          {iri(d), iri("http://purl.org/dc/elements/1.1/creator"), iri(p)},
          {iri(p), iri("http://xmlns.com/foaf/0.1/name"),
           Term::String("Writer " + std::to_string(writer) + " author " +
                        std::to_string(idx))}};
      int extra = static_cast<int>(rng.Below(6));
      for (int k = 0; k < extra; ++k) {
        t.push_back({iri(d), iri("http://swrc.ontoware.org/ontology#note"),
                     Term::String("note " + std::to_string(k))});
      }
      WriterLog::Doc doc;
      for (const auto& x : t) {
        doc.triples.push_back(x[0].ToString() + " " + x[1].ToString() + " " +
                              x[2].ToString());
      }
      log->docs.push_back(std::move(doc));
    }
    WriterLog::Doc& doc = log->docs[idx];
    std::string body;
    for (const std::string& line : doc.triples) body += line + " .\n";
    std::string text =
        std::string(del ? "DELETE DATA {\n" : "INSERT DATA {\n") + body + "}";
    auto r = session->Execute(QueryRequest(text));
    Clock::time_point t1 = Clock::now();
    ++out->attempted;
    if (!r.ok()) {
      out->Fail(std::string(del ? "delete: " : "insert: ") + r.status().ToString());
      continue;
    }
    if (r->kind() != QueryOutcome::Kind::kUpdateCount ||
        r->update_count() != static_cast<int64_t>(doc.triples.size())) {
      out->Fail("update touched an unexpected number of triples");
      continue;
    }
    (del ? doc.deleted : doc.inserted) = true;
    if (!del) live.push_back(idx);
    if (t1 > w.record_from && t1 <= w.end) {
      double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
      out->latency_ms.push_back(ms);
      out->latency_sum_ms += ms;
      out->user_bytes += body.size();
    }
  }
}

/// Reopens the store from disk and compares every triple under the writers'
/// namespace with the acknowledged history: each acknowledged INSERT must be
/// present, each acknowledged DELETE absent.
void CheckDurability(const std::string& dir, const std::vector<WriterLog>& logs,
                     Outcome* o) {
  SSDM reopened;
  Clock::time_point t0 = Clock::now();
  CheckOk(reopened.Open(dir), "reopen");
  o->layer["storage.recovery_s"] = Seconds(t0);
  Note("reopened");
  auto r = reopened.Execute(QueryRequest(
      std::string("SELECT ?s ?p ?o WHERE { ?s ?p ?o . FILTER (STRSTARTS(STR(?s), \"") +
      kWriterNs + "\")) }"));
  CheckOk(r.status(), "durability scan");
  std::multiset<std::string> found;
  for (const auto& row : r->rows().rows) {
    found.insert(row[0].ToString() + " " + row[1].ToString() + " " +
                 row[2].ToString());
  }
  size_t checked = 0;
  for (const WriterLog& log : logs) {
    for (const WriterLog::Doc& doc : log.docs) {
      if (!doc.inserted) continue;
      ++checked;
      bool ok = true;
      for (const std::string& t : doc.triples) {
        auto it = found.find(t);
        if (doc.deleted) {
          ok = ok && it == found.end();
        } else if (it == found.end()) {
          ok = false;
        } else {
          found.erase(it);
        }
      }
      o->Check(ok, doc.deleted ? "durability: an acknowledged DELETE reappeared"
                               : "durability: an acknowledged INSERT was lost");
    }
  }
  // Whatever is left was never acknowledged as live.
  o->Check(found.empty(), "durability: unacknowledged triples present");
  o->layer["durability.checked_docs"] = static_cast<double>(checked);
}

Outcome WriteMix(const Args& a, SpanLog* log) {
  Outcome o;
  const size_t kTriples = 100000;
  const std::string dir = a.workdir + "/store";
  std::unique_ptr<TimingVfs> vfs;
  if (a.trace) {
    vfs = std::make_unique<TimingVfs>(scisparql::storage::DefaultVfs(), log);
  }
  Setups su;
  DblpData data;
  // Generate, open a fresh durable store in `at`, load, checkpoint, first
  // query.
  auto set_up = [&](const std::string& at) {
    fs::remove_all(at);
    data = DblpData();
    Clock::time_point t0 = Clock::now();
    data = GenerateDblp(a.seed, kTriples);
    auto engine = std::make_unique<SSDM>();
    CheckOk(engine->Open(at, vfs.get()), "open");
    int64_t rss0 = RssBytes();
    Clock::time_point tl = Clock::now();
    CheckOk(engine->LoadTurtleString(data.turtle), "load");
    double load_s = Seconds(tl);
    CheckOk(engine->Checkpoint().status(), "checkpoint");
    Clock::time_point tq = Clock::now();
    CheckOk(engine->Execute(QueryRequest(kFirstQuery)).status(), "first query");
    double first_ms = Seconds(tq) * 1000;
    su.Add(Seconds(t0), engine->dataset().default_graph().size(), load_s,
           first_ms, RssBytes() - rss0);
    data.turtle = std::string();
    return engine;
  };
  std::unique_ptr<SSDM> engine;
  for (int i = 0; i < kWriteMixSetups / 2; ++i) {
    engine.reset();
    engine = set_up(dir);
  }
  CheckGeneratorDeterminism(a.seed, &o);

  Pool pool = DblpReadPool(data, a.seed, true);
  CheckOk(ComputeExpected(&pool, [&](const std::string& t) {
            return engine->Execute(QueryRequest(t));
          }),
          "reference answers");
  Note("reference answers computed");
  if (a.trace) {
    IdPathShare(engine.get(), pool, &o);
    o.layer["sparql.parse_ms_mean"] = ParseMsMean(pool);
  }

  std::vector<WriterLog> wlogs(2);
  {
    scisparql::client::SsdmServer server(engine.get(), ServerOptions());
    auto port = server.Start(0);
    CheckOk(port.status(), "server start");
    Served served;
    Serve(&server, pool, a, 0, 1, kClients - 2, 2, &wlogs, log, nullptr,
          vfs.get(), &served);
    Report(served, a, &o);
    if (a.trace) TracedReplay(*port, pool, a.seed, log, &o);
  }
  engine.reset();
  Note("server stopped, store closed");
  CheckDurability(dir, wlogs, &o);
  Note("durability checked");
  fs::remove_all(dir);
  for (int i = kWriteMixSetups / 2; i < kWriteMixSetups; ++i) set_up(dir).reset();
  fs::remove_all(dir);
  su.Finish(a, &o);
  if (a.trace) LoaderVsApply(a.seed, &o);
  return o;
}

// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::max(1, std::stoi(v));
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else if (k == "--workdir") {
      a.workdir = v;
    } else {
      Fatal("unknown argument " + k);
    }
  }
  return a;
}

std::string Num(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  NowMicros();  // starts the clock progress notes and spans are stamped with
  Args a = ParseArgs(argc, argv);
  std::fprintf(stderr, "host: nproc=%u compiler=%s build=%s workload=%s seed=%llu\n",
               std::thread::hardware_concurrency(), E2E_COMPILER, E2E_BUILD_TYPE,
               a.workload.c_str(), static_cast<unsigned long long>(a.seed));
  std::error_code ec;
  fs::create_directories(a.workdir, ec);
  if (ec) Fatal("cannot create " + a.workdir);
  SpanLog spans;
  SpanLog* log = a.trace ? &spans : nullptr;
  Outcome o;
  if (a.workload == "spb-read") {
    o = SpbRead(a, log);
  } else if (a.workload == "bistab-array") {
    o = BistabArray(a, log);
  } else if (a.workload == "write-mix") {
    o = WriteMix(a, log);
  } else {
    Fatal("unknown workload '" + a.workload + "'");
  }
  o.layer["error_rate"] = Ratio(o.failed, o.attempted);
  o.layer["trace.spans"] = spans.size();
  if (a.trace) {
    std::string path = (fs::path(a.workdir).parent_path() /
                        ("trace-" + a.workload + "-seed" +
                         std::to_string(a.seed) + ".jsonl"))
                           .string();
    if (!spans.WriteJsonLines(path)) Fatal("cannot write " + path);
    std::fprintf(stderr, "spans: %zu written to %s\n", spans.size(), path.c_str());
  }
  if (!o.first_error.empty()) {
    std::fprintf(stderr, "first failure: %s\n", o.first_error.c_str());
  }
  std::string metrics;
  auto add = [&](const std::string& name, double v, const char* unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + Num(v) + ", \"unit\": \"" +
               unit + "\"}";
  };
  if (a.trace) {
    for (const auto& [name, unit] : kLayerMetrics) add(name, o.layer[name], unit);
  } else {
    for (const auto& [name, m] : o.e2e) add(name, m.value, m.unit);
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              o.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), metrics.c_str());
  return 0;
}
