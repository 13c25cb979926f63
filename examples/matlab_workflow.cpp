// Matlab-style workflow (thesis Chapter 7): a scientific-computing client
// produces numeric results, stores them through the Session API with
// Semantic Web metadata, and later *searches* for results by metadata —
// fetching only the slices it needs. Arrays live in container files (the
// stand-in for .mat files); a second session links one of those files
// directly (the mediator scenario).

#include <cmath>
#include <cstdio>

#include "bench/bench_common.h"
#include "client/session.h"
#include "storage/file_backend.h"

namespace {

/// The "computation": a damped oscillation, parameterized by frequency.
scisparql::NumericArray Simulate(double freq, int samples) {
  scisparql::NumericArray a = scisparql::NumericArray::Zeros(
      scisparql::ElementType::kDouble, {samples});
  for (int t = 0; t < samples; ++t) {
    a.SetDoubleAt(t, std::exp(-t / 400.0) * std::sin(freq * t * 0.01));
  }
  return a;
}

}  // namespace

int main() {
  using namespace scisparql;
  std::string dir = bench::TempDir("matlab_workflow");

  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  db.AttachStorage(std::make_shared<FileArrayStorage>(dir));
  client::Session session(&db, "file");

  // --- Phase 1: the traditional workflow, plus metadata. -----------------
  for (int run = 1; run <= 5; ++run) {
    double freq = 0.5 * run;
    NumericArray result = Simulate(freq, 2000);
    auto stored = session.StoreResult(
        "http://example.org/run" + std::to_string(run),
        "http://example.org/signal", result,
        {{"http://example.org/frequency", Term::Double(freq)},
         {"http://example.org/solver", Term::String("rk4")},
         {"http://example.org/samples", Term::Integer(2000)}});
    if (!stored.ok()) {
      std::fprintf(stderr, "%s\n", stored.status().ToString().c_str());
      return 1;
    }
  }
  std::printf("Stored 5 runs (arrays in %s, metadata as %zu triples).\n\n",
              dir.c_str(), db.dataset().default_graph().size());

  // --- Phase 2: search by metadata, aggregate server-side. ---------------
  auto summary = session.Query(R"(
SELECT ?run ?freq (AMAX(?s) AS ?peak) (AMIN(?s) AS ?trough)
WHERE { ?run <http://example.org/frequency> ?freq ;
             <http://example.org/signal> ?s
        FILTER (?freq >= 1.0) }
ORDER BY ?freq)");
  std::printf("Runs with frequency >= 1.0 (peaks computed by AAPR):\n%s\n",
              summary->ToTable().c_str());

  // --- Phase 3: fetch only a slice of one matching result. ---------------
  NumericArray head = *session.FetchArray(R"(
SELECT ?s[1:10] WHERE { ?r <http://example.org/frequency> 1.5 ;
                           <http://example.org/signal> ?s })");
  std::printf("First 10 samples of the 1.5 Hz run: %s\n\n",
              head.ToString().c_str());

  // --- Phase 4: annotate a result after inspection. ----------------------
  (void)session.Annotate("http://example.org/run3",
                         "http://example.org/quality",
                         Term::String("publication-ready"));
  std::printf("Annotated run3: %s\n",
              db.Execute("ASK { ?r <http://example.org/quality> "
                         "\"publication-ready\" }")
                      ->ask()
                  ? "found"
                  : "missing");

  // --- Phase 5: another session links a container file directly. ---------
  SSDM db2;
  auto storage2 = std::make_shared<FileArrayStorage>(dir + "/second");
  ArrayId linked = *storage2->LinkExisting(dir + "/arr_2.ssa");
  db2.AttachStorage(storage2);
  Term proxy = *db2.OpenStoredArray("file", linked);
  WriteBatch import;
  import.Add(Term::Iri("http://example.org/imported"),
             Term::Iri("http://example.org/signal"), proxy);
  db2.dataset().default_graph().Apply(std::move(import));
  auto check = db2.Execute(
      "SELECT (AELEMS(?s) AS ?n) WHERE { ?x "
      "<http://example.org/signal> ?s }");
  std::printf("Mediator scenario: linked foreign file has %s samples.\n",
              check->rows().rows[0][0].ToString().c_str());
  return 0;
}
