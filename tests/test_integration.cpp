#include <cmath>

#include <gtest/gtest.h>

#include "apps/bistab.h"
#include "loaders/turtle.h"
#include "storage/file_backend.h"
#include "storage/memory_backend.h"
#include "storage/rdf_rel_store.h"
#include "storage/relational_backend.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

/// End-to-end: Turtle with arrays -> persist to the relational back-end ->
/// reload into a fresh engine -> SciSPARQL queries see identical answers,
/// with arrays arriving as lazy proxies.
TEST(Integration, TurtleToRelationalAndBack) {
  SSDM original;
  original.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(original.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:exp1 a ex:Experiment ; ex:temperature 300.5 ;
        ex:samples ((1 2 3) (4 5 6)) .
ex:exp2 a ex:Experiment ; ex:temperature 310.0 ;
        ex:samples ((10 20 30) (40 50 60)) .
)").ok());

  auto db = *relstore::Database::Open("");
  std::shared_ptr<RelationalArrayStorage> arrays(
      std::move(*RelationalArrayStorage::Attach(db.get())));
  auto store = *RdfRelationalStore::Attach(db.get(), arrays);
  ASSERT_TRUE(store->SaveGraph(original.dataset().default_graph()).ok());

  SSDM reloaded;
  reloaded.prefixes().Set("ex", "http://example.org/");
  reloaded.AttachStorage(arrays);
  ASSERT_TRUE(
      store->LoadGraph(&reloaded.dataset().default_graph()).ok());

  const char* query =
      "SELECT ?e (ASUM(?a) AS ?total) (?a[2, 3] AS ?corner) WHERE { "
      "?e a ex:Experiment ; ex:samples ?a ; ex:temperature ?t "
      "FILTER (?t > 305) }";
  auto r1 = Query(original, query);
  auto r2 = Query(reloaded, query);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  ASSERT_TRUE(r2.ok()) << r2.status().ToString();
  ASSERT_EQ(r1->rows.size(), 1u);
  ASSERT_EQ(r2->rows.size(), 1u);
  EXPECT_EQ(r1->rows[0][1], r2->rows[0][1]);  // 210
  EXPECT_EQ(r2->rows[0][1], Term::Double(210));
  EXPECT_EQ(r2->rows[0][2], Term::Integer(60));
}

/// The full BISTAB pipeline against the relational back-end with small
/// chunks, exercising APR batching inside real queries.
TEST(Integration, BistabOverRelationalBackend) {
  SSDM db;
  auto rel_db = *relstore::Database::Open("");
  std::shared_ptr<RelationalArrayStorage> arrays(
      std::move(*RelationalArrayStorage::Attach(rel_db.get())));
  arrays->set_strategy(relstore::SelectStrategy::kInterval);
  db.AttachStorage(arrays);

  apps::BistabConfig cfg;
  cfg.parameter_cases = 2;
  cfg.realizations = 2;
  cfg.timesteps = 100;
  cfg.storage = "relational";
  cfg.chunk_elems = 32;
  ASSERT_TRUE(apps::GenerateBistab(&db, cfg).ok());

  auto q3 = Query(db, apps::BistabQ3(-1e9));
  ASSERT_TRUE(q3.ok()) << q3.status().ToString();
  EXPECT_EQ(q3->rows.size(), 4u);  // every task has a mean
  for (const auto& row : q3->rows) {
    double mean = *row[1].AsDouble();
    EXPECT_GT(mean, 0);
    EXPECT_LT(mean, 120);
  }

  auto q4 = Query(db, apps::BistabQ4(cfg.timesteps));
  ASSERT_TRUE(q4.ok()) << q4.status().ToString();
  EXPECT_EQ(q4->rows.size(), 2u);  // one row per parameter case
}

/// CONSTRUCT the results of an array query into a new graph, then query
/// that graph — data and metadata stay combined end to end.
TEST(Integration, ConstructWithArrayPostprocessing) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:vec (3 1 2) .
ex:b ex:vec (9 8 7) .
)").ok());
  Graph derived = *Construct(db, 
      "CONSTRUCT { ?s ex:max ?m } WHERE { ?s ex:vec ?v "
      "BIND (AMAX(?v) AS ?m) }");
  EXPECT_EQ(derived.size(), 2u);
  EXPECT_TRUE(derived.Contains(Term::Iri("http://example.org/a"),
                               Term::Iri("http://example.org/max"),
                               Term::Double(3)));
  EXPECT_TRUE(derived.Contains(Term::Iri("http://example.org/b"),
                               Term::Iri("http://example.org/max"),
                               Term::Double(9)));
}

/// Stored functional views compose with array storage: a view defined over
/// proxied arrays computes without materializing whole arrays client-side.
TEST(Integration, FunctionalViewOverProxies) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  db.AttachStorage(std::make_shared<MemoryArrayStorage>());
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {1000});
  for (int64_t i = 0; i < 1000; ++i) a.SetDoubleAt(i, i % 10);
  Term proxy = *db.StoreArray(a, "memory", 128);
  WriteBatch batch;
  batch.Add(Term::Iri("http://example.org/series"),
            Term::Iri("http://example.org/data"), proxy);
  db.dataset().default_graph().Apply(std::move(batch));
  ASSERT_TRUE(scisparql::Run(db, 
      "DEFINE FUNCTION ex:mean(?arr) AS SELECT (AAVG(?arr) AS ?m) WHERE { }")
                  .ok());
  auto r = Query(db, 
      "SELECT (ex:mean(?d) AS ?m) WHERE { ex:series ex:data ?d }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows[0][0], Term::Double(4.5));
}

/// The polymorphic-properties situation of Section 5.5: one property holds
/// scalars for some subjects and arrays for others; queries must cope.
TEST(Integration, PolymorphicPropertyValues) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:value 5 .
ex:b ex:value (1 2 3) .
ex:c ex:value "text" .
)").ok());
  // ISARRAY dispatches; non-arrays survive via IF.
  auto r = Query(db, 
      "SELECT ?s (IF(ISARRAY(?v), ASUM(?v), ?v) AS ?n) "
      "WHERE { ?s ex:value ?v } ORDER BY ?s");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 3u);
  EXPECT_EQ(r->rows[0][1], Term::Integer(5));
  EXPECT_EQ(r->rows[1][1], Term::Double(6));
  EXPECT_EQ(r->rows[2][1], Term::String("text"));
}

/// Graph round trip through the Turtle writer preserves query answers.
TEST(Integration, TurtleWriterRoundTripPreservesAnswers) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:s ex:m ((1.5 2.5) (3.5 4.5)) ; ex:tag "roundtrip" .
)").ok());
  PrefixMap prefixes = PrefixMap::WithDefaults();
  prefixes.Set("ex", "http://example.org/");
  std::string ttl =
      loaders::WriteTurtle(db.dataset().default_graph(), prefixes);

  SSDM db2;
  db2.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db2.LoadTurtleString(ttl).ok());
  const char* q = "SELECT (ASUM(?m) AS ?s) WHERE { ?x ex:m ?m }";
  EXPECT_EQ(Query(db, q)->rows[0][0], Query(db2, q)->rows[0][0]);
}

}  // namespace
}  // namespace scisparql
