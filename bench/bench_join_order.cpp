// Join-order benchmark: cost-based BGP ordering vs. forced textual order.
//
// Three workloads exercise the statistics-driven planner (src/opt/):
//   star  — patterns share a subject; the textual order starts with the
//           highest-fanout predicate, the planner must rotate the rare
//           predicate to the front.
//   chain — a 3-hop path whose only selective pattern (a constant object)
//           is textually last; the planner must start from it.
//   thesis — the Section 5.4.5 running example ("Alice" lookup via
//           foaf-style name/knows edges) with the constant pattern last.
//
// Each query runs with optimize_join_order on and off; the harness checks
// via EXPLAIN that the cost plan actually deviates from the textual order
// on the star and chain queries, and that the star query speeds up by at
// least 2x. Exits non-zero when either check fails, so the CI smoke run
// (`bench_join_order --smoke`, one timing iteration) doubles as a
// regression gate. The join-order A/B pins use_id_joins off: ID joins make
// both pattern orders fast, which is exactly what --dict-smoke measures.
//
// `bench_join_order --dict-smoke` is the dictionary/ID-join gate: it
// builds SP²Bench-style star and chain workloads at 1M+ triples each,
// runs the same cost-ordered query with the dictionary ID-join executor
// on and off, requires the star and chain joins to speed up by at least
// 5x, and writes BENCH_dict.json.

#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/ssdm.h"

namespace scisparql {
namespace {

using bench::Fmt;
using bench::Json;
using bench::Table;
using bench::Timer;

const char* kNs = "http://example.org/";

/// Star data: every subject carries `fan` wide-predicate triples, a tenth
/// of them a mid predicate, and a handful the rare predicate the planner
/// should lead with.
void BuildStar(Graph* g, int subjects, int fan) {
  WriteBatch batch;
  Term wide = Term::Iri(std::string(kNs) + "wide");
  Term mid = Term::Iri(std::string(kNs) + "mid");
  Term rare = Term::Iri(std::string(kNs) + "rare");
  for (int i = 0; i < subjects; ++i) {
    Term s = Term::Iri(std::string(kNs) + "s" + std::to_string(i));
    for (int f = 0; f < fan; ++f) {
      batch.Add(s, wide, Term::Integer(i * fan + f));
    }
    if (i % 10 == 0) batch.Add(s, mid, Term::Integer(i));
    if (i % (subjects / 8 + 1) == 0) batch.Add(s, rare, Term::Integer(i));
  }
  g->Apply(std::move(batch));
}

/// Chain data: a ring of e1/e2 edges; exactly one node carries the target
/// name so the chain query's last textual pattern is the selective one.
void BuildChain(Graph* g, int nodes) {
  WriteBatch batch;
  Term e1 = Term::Iri(std::string(kNs) + "e1");
  Term e2 = Term::Iri(std::string(kNs) + "e2");
  Term name = Term::Iri(std::string(kNs) + "name");
  for (int i = 0; i < nodes; ++i) {
    Term a = Term::Iri(std::string(kNs) + "c" + std::to_string(i));
    Term b = Term::Iri(std::string(kNs) + "c" + std::to_string((i + 1) % nodes));
    batch.Add(a, e1, b);
    batch.Add(a, e2, Term::Iri(std::string(kNs) + "c" +
                               std::to_string((i + 3) % nodes)));
    batch.Add(a, name, Term::String("node" + std::to_string(i)));
  }
  batch.Add(Term::Iri(std::string(kNs) + "c0"), name, Term::String("target"));
  g->Apply(std::move(batch));
}

/// Thesis-example data: persons with names, knows edges, one "Alice".
void BuildThesis(Graph* g, int people) {
  WriteBatch batch;
  Term name = Term::Iri(std::string(kNs) + "fname");
  Term knows = Term::Iri(std::string(kNs) + "knows");
  for (int i = 0; i < people; ++i) {
    Term p = Term::Iri(std::string(kNs) + "person" + std::to_string(i));
    batch.Add(p, name, Term::String("p" + std::to_string(i)));
    batch.Add(p, knows, Term::Iri(std::string(kNs) + "person" +
                                  std::to_string((i + 1) % people)));
    batch.Add(p, knows, Term::Iri(std::string(kNs) + "person" +
                                  std::to_string((i * 13 + 5) % people)));
  }
  batch.Add(Term::Iri(std::string(kNs) + "person42"), name,
            Term::String("Alice"));
  g->Apply(std::move(batch));
}

double TimeQuery(SSDM* db, const std::string& q, int reps, size_t* rows) {
  Timer timer;
  for (int i = 0; i < reps; ++i) {
    auto r = db->Execute(q);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n%s\n",
                   r.status().ToString().c_str(), q.c_str());
      std::exit(1);
    }
    *rows = r->rows().rows.size();
  }
  return timer.ElapsedMs() / reps;
}

/// True when EXPLAIN (with optimization on) reports a plan that deviates
/// from the textual pattern order.
bool PlanReordered(SSDM* db, const std::string& q) {
  auto plan = db->Explain(q);
  if (!plan.ok()) {
    std::fprintf(stderr, "EXPLAIN failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return plan->find(", reordered") != std::string::npos;
}

// ---------------------------------------------------------------------------
// --dict-smoke: dictionary ID-join gate at SP²Bench scale.
// ---------------------------------------------------------------------------

/// SP²Bench-flavoured document star: three equally large predicate
/// extents (creator / issued / journal, each on `docs` subjects with long
/// IRIs — the dictionary's bread and butter) whose subject ranges overlap
/// on only `docs / 350` documents. No single pattern is selective, so
/// join ordering can't save the scan-and-bind executor from probing an
/// entire extent; the join *output* is small. `3 * docs` triples.
void BuildSpbStar(Graph* g, int docs) {
  WriteBatch batch;
  const std::string base = "http://localhost/publications/journal/doc";
  Term creator = Term::Iri("http://purl.org/dc/elements/1.1/creator");
  Term year = Term::Iri("http://purl.org/dc/terms/issued");
  Term journal = Term::Iri("http://swrc.ontoware.org/ontology#journal");
  const int overlap = docs / 350;
  for (int i = 0; i < docs; ++i) {
    // creator on docs [0, N); issued and journal on [N - overlap, 2N - overlap).
    Term d = Term::Iri(base + std::to_string(i));
    batch.Add(d, creator, Term::Iri("http://localhost/persons/p" +
                                    std::to_string(i % 977)));
    Term d2 = Term::Iri(base + std::to_string(docs - overlap + i));
    batch.Add(d2, year, Term::Integer(1940 + i % 70));
    batch.Add(d2, journal, Term::Iri("http://localhost/publications/journal/j" +
                                     std::to_string(i % 211)));
  }
  g->Apply(std::move(batch));
}

/// Citation-style chain: a ring of `cites` edges, plus an `extends` edge
/// from every paper — but most extends targets are dangling references
/// (papers outside the corpus) that cite nothing. Both hops of the chain
/// join are full-extent, the result is small. `2 * nodes` triples.
void BuildSpbChain(Graph* g, int nodes) {
  WriteBatch batch;
  const std::string base = "http://localhost/publications/inproc/paper";
  Term cites = Term::Iri("http://purl.org/ontology/bibo/cites");
  Term extends = Term::Iri("http://localhost/vocabulary/bench#extends");
  const int overlap = nodes / 500;
  for (int i = 0; i < nodes; ++i) {
    Term a = Term::Iri(base + std::to_string(i));
    Term b = Term::Iri(base + std::to_string((i + 1) % nodes));
    batch.Add(a, cites, b);
    bool real = (i % (nodes / overlap)) == 0;
    Term c = real ? Term::Iri(base + std::to_string((i * 31 + 7) % nodes))
                  : Term::Iri(base + "-dangling" + std::to_string(i));
    batch.Add(a, extends, c);
  }
  g->Apply(std::move(batch));
}

double TimeIdMode(SSDM* db, const std::string& q, bool id_joins, int reps,
                  size_t* rows) {
  db->exec_options().use_id_joins = id_joins;
  double ms = TimeQuery(db, q, 1, rows);  // warm-up (and index build)
  if (reps > 0) ms = TimeQuery(db, q, reps, rows);
  db->exec_options().use_id_joins = true;
  return ms;
}

/// True when the executed plan's EXPLAIN output names `op` as a physical
/// operator on some scan line.
bool PlanShows(SSDM* db, const std::string& q, const char* op) {
  auto plan = db->Explain(q);
  if (!plan.ok()) {
    std::fprintf(stderr, "EXPLAIN failed: %s\n",
                 plan.status().ToString().c_str());
    std::exit(1);
  }
  return plan->find(op) != std::string::npos;
}

int RunDictSmoke(int reps) {
  struct DictResult {
    std::string name;
    double id_ms;
    double scan_ms;
    double speedup;
    size_t rows;
    size_t triples;
    bool gated;  // participates in the 5x floor
  };
  std::vector<DictResult> results;

  // Workloads are built in separate scopes so peak memory stays at one
  // 1M+-triple graph at a time.
  {
    SSDM db;
    db.prefixes().Set("dc", "http://purl.org/dc/elements/1.1/");
    db.prefixes().Set("dcterms", "http://purl.org/dc/terms/");
    db.prefixes().Set("swrc", "http://swrc.ontoware.org/ontology#");
    Graph& g = db.dataset().default_graph();
    const int kDocs = 350000;  // 1.05M triples
    BuildSpbStar(&g, kDocs);
    const std::string q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?d dc:creator ?a . "
        "?d dcterms:issued ?y . ?d swrc:journal ?j }";
    size_t rows = 0;
    double id_ms = TimeIdMode(&db, q, true, reps, &rows);
    double scan_ms = TimeIdMode(&db, q, false, reps, &rows);
    if (!PlanShows(&db, q, "hash-join")) {
      std::fprintf(stderr, "FAIL: star EXPLAIN does not show a hash join\n");
      return 1;
    }
    results.push_back({"star", id_ms, scan_ms,
                       id_ms > 0 ? scan_ms / id_ms : 0.0, rows, g.size(),
                       true});
  }
  {
    SSDM db;
    db.prefixes().Set("bibo", "http://purl.org/ontology/bibo/");
    db.prefixes().Set("bench", "http://localhost/vocabulary/bench#");
    Graph& g = db.dataset().default_graph();
    const int kNodes = 525000;  // 1.05M triples
    BuildSpbChain(&g, kNodes);
    const std::string chain_q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?a bibo:cites ?b . "
        "?b bench:extends ?c . ?c bibo:cites ?d }";
    size_t rows = 0;
    double id_ms = TimeIdMode(&db, chain_q, true, reps, &rows);
    double scan_ms = TimeIdMode(&db, chain_q, false, reps, &rows);
    results.push_back({"chain", id_ms, scan_ms,
                       id_ms > 0 ? scan_ms / id_ms : 0.0, rows, g.size(),
                       true});

    // Object-object join: both scans are sorted on the join column, so the
    // executor picks a merge join. Reported, not gated.
    const std::string merge_q =
        "SELECT (COUNT(*) AS ?n) WHERE { ?a bibo:cites ?j . "
        "?b bench:extends ?j }";
    double mid_ms = TimeIdMode(&db, merge_q, true, reps, &rows);
    double mscan_ms = TimeIdMode(&db, merge_q, false, reps, &rows);
    if (!PlanShows(&db, merge_q, "merge-join")) {
      std::fprintf(stderr, "FAIL: EXPLAIN does not show a merge join\n");
      return 1;
    }
    results.push_back({"merge", mid_ms, mscan_ms,
                       mid_ms > 0 ? mscan_ms / mid_ms : 0.0, rows, g.size(),
                       false});
  }

  std::printf("Dictionary ID-join benchmark (%d reps)\n\n", reps);
  Table table({"workload", "triples", "rows", "scan ms", "id ms", "speedup"});
  bool ok = true;
  std::string json = "{\"floor\": 5.0, \"workloads\": [";
  for (size_t i = 0; i < results.size(); ++i) {
    const DictResult& r = results[i];
    table.AddRow({r.name, std::to_string(r.triples), std::to_string(r.rows),
                  Fmt(r.scan_ms, 1), Fmt(r.id_ms, 1), Fmt(r.speedup, 2) + "x"});
    if (i > 0) json += ", ";
    json += Json()
                .Str("workload", r.name)
                .Int("triples", static_cast<long long>(r.triples))
                .Int("rows", static_cast<long long>(r.rows))
                .Num("scan_ms", r.scan_ms)
                .Num("id_ms", r.id_ms)
                .Num("speedup", r.speedup)
                .Int("gated", r.gated ? 1 : 0)
                .Build();
    if (r.gated && r.speedup < 5.0) {
      std::fprintf(stderr, "FAIL: %s speedup %.2fx below the 5x floor\n",
                   r.name.c_str(), r.speedup);
      ok = false;
    }
  }
  json += "], \"pass\": ";
  json += ok ? "true" : "false";
  json += "}\n";
  table.Print();
  std::ofstream json_out("BENCH_dict.json");
  json_out << json;
  json_out.close();
  std::printf("wrote BENCH_dict.json\n%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace scisparql

int main(int argc, char** argv) {
  using namespace scisparql;
  bool smoke = false;
  bool dict = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--dict-smoke") == 0) dict = true;
  }
  if (dict) return RunDictSmoke(smoke ? 1 : 3);
  const int reps = smoke ? 1 : 5;
  const int kSubjects = smoke ? 400 : 1500;
  const int kFan = 4;

  SSDM db;
  db.prefixes().Set("ex", kNs);
  Graph& g = db.dataset().default_graph();
  BuildStar(&g, kSubjects, kFan);
  BuildChain(&g, kSubjects);
  BuildThesis(&g, kSubjects);

  struct Workload {
    const char* label;
    std::string query;
    bool must_reorder;
  };
  const Workload workloads[] = {
      {"star", // wide first textually; rare must move to the front
       "SELECT ?s ?w ?r WHERE { ?s ex:wide ?w . ?s ex:mid ?m . "
       "?s ex:rare ?r }",
       true},
      {"chain", // selective constant-object pattern is textually last
       "SELECT ?a WHERE { ?a ex:e1 ?b . ?b ex:e2 ?c . "
       "?c ex:name \"target\" }",
       true},
      {"thesis", // Section 5.4.5 example, Alice lookup last
       "SELECT ?n WHERE { ?p ex:knows ?f . ?f ex:fname ?n . "
       "?p ex:fname \"Alice\" }",
       false},
  };

  std::printf("Join-order benchmark (%d subjects, %d reps%s)\n\n", kSubjects,
              reps, smoke ? ", smoke" : "");

  Table table({"workload", "order", "rows", "ms", "speedup"});
  bool ok = true;
  double star_speedup = 0.0;
  // Force the scan-and-bind executor: with ID joins on, both pattern
  // orders are fast and the cost-vs-textual gap this gate watches
  // disappears. --dict-smoke covers the ID-join path.
  db.exec_options().use_id_joins = false;
  for (const Workload& w : workloads) {
    size_t rows_cost = 0;
    size_t rows_text = 0;
    db.exec_options().optimize_join_order = true;
    TimeQuery(&db, w.query, 1, &rows_cost);  // warm-up
    double cost_ms = TimeQuery(&db, w.query, reps, &rows_cost);
    bool reordered = PlanReordered(&db, w.query);
    db.exec_options().optimize_join_order = false;
    double text_ms = TimeQuery(&db, w.query, reps, &rows_text);
    db.exec_options().optimize_join_order = true;

    double speedup = cost_ms > 0 ? text_ms / cost_ms : 0.0;
    table.AddRow({w.label, "cost", std::to_string(rows_cost), Fmt(cost_ms, 2),
                  Fmt(speedup, 2) + "x"});
    table.AddRow({w.label, "parse", std::to_string(rows_text), Fmt(text_ms, 2),
                  "1.00x"});
    std::printf("%s\n", Json()
                            .Str("workload", w.label)
                            .Num("cost_ms", cost_ms)
                            .Num("parse_ms", text_ms)
                            .Num("speedup", speedup)
                            .Int("rows", static_cast<long long>(rows_cost))
                            .Int("reordered", reordered ? 1 : 0)
                            .Build()
                            .c_str());
    if (rows_cost != rows_text) {
      std::fprintf(stderr, "FAIL: %s returns %zu rows cost-ordered but %zu "
                   "rows parse-ordered\n", w.label, rows_cost, rows_text);
      ok = false;
    }
    if (w.must_reorder && !reordered) {
      std::fprintf(stderr, "FAIL: %s plan did not deviate from textual order\n",
                   w.label);
      ok = false;
    }
    if (std::strcmp(w.label, "star") == 0) star_speedup = speedup;
  }
  std::printf("\n");
  table.Print();

  db.exec_options().optimize_join_order = true;
  db.exec_options().use_id_joins = true;
  std::printf("\nStar plan:\n%s\n", db.Explain(workloads[0].query)->c_str());

  if (star_speedup < 2.0) {
    std::fprintf(stderr, "FAIL: star speedup %.2fx below the 2x floor\n",
                 star_speedup);
    ok = false;
  }
  std::printf("%s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
