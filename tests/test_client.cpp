#include <gtest/gtest.h>

#include "client/session.h"
#include "storage/file_backend.h"
#include "storage/memory_backend.h"
#include "query_helpers.h"

namespace scisparql {
namespace client {
namespace {

NumericArray Simulated(int64_t n) {
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {n});
  for (int64_t i = 0; i < n; ++i) a.SetDoubleAt(i, 100.0 - i);
  return a;
}

TEST(Session, StoreResultResidentAndQueryBack) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  Session session(&db);
  ASSERT_TRUE(session
                  .StoreResult("http://example.org/exp1",
                               "http://example.org/result", Simulated(10),
                               {{"http://example.org/method",
                                 Term::String("euler")},
                                {"http://example.org/steps",
                                 Term::Integer(10)}})
                  .ok());
  // Metadata search finds the experiment; array fetch round-trips.
  NumericArray back = *session.FetchArray(
      "SELECT ?r WHERE { ?e <http://example.org/method> \"euler\" ; "
      "<http://example.org/result> ?r }");
  EXPECT_TRUE(back.NumericEquals(Simulated(10)));
}

TEST(Session, StoreResultInBackendYieldsProxy) {
  SSDM db;
  db.AttachStorage(std::make_shared<MemoryArrayStorage>());
  Session session(&db, "memory");
  Term stored = *session.StoreResult("http://example.org/exp1",
                                     "http://example.org/result",
                                     Simulated(100));
  ASSERT_TRUE(stored.IsArray());
  EXPECT_FALSE(stored.array()->resident());
}

TEST(Session, FetchScalarAndSliceWorkflow) {
  // The Chapter 7 workflow: store a result + parameters, search by
  // metadata, post-process server-side, fetch only what is needed.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  db.AttachStorage(std::make_shared<MemoryArrayStorage>());
  Session session(&db, "memory");
  for (int run = 1; run <= 3; ++run) {
    NumericArray a = Simulated(50);
    a.SetDoubleAt(0, run * 1000.0);  // make runs distinguishable
    ASSERT_TRUE(session
                    .StoreResult("http://example.org/run" +
                                     std::to_string(run),
                                 "http://example.org/trajectory", a,
                                 {{"http://example.org/param",
                                   Term::Double(run * 0.25)}})
                    .ok());
  }
  // Server-side aggregation (AAPR) over the matching run only.
  double mx = *session.FetchScalar(
      "SELECT (AMAX(?t) AS ?m) WHERE { ?r ex:param 0.5 ; ex:trajectory ?t }");
  EXPECT_DOUBLE_EQ(mx, 2000.0);
  // Slice fetch: only the first 5 elements cross the wire.
  NumericArray head = *session.FetchArray(
      "SELECT ?t[1:5] WHERE { ?r ex:param 0.75 ; ex:trajectory ?t }");
  EXPECT_EQ(head.NumElements(), 5);
  EXPECT_DOUBLE_EQ(head.DoubleAt(0), 3000.0);
}

TEST(Session, AnnotateAfterTheFact) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  Session session(&db);
  ASSERT_TRUE(session
                  .StoreResult("http://example.org/exp",
                               "http://example.org/result", Simulated(4))
                  .ok());
  ASSERT_TRUE(session
                  .Annotate("http://example.org/exp",
                            "http://example.org/quality",
                            Term::String("validated"))
                  .ok());
  EXPECT_TRUE(*Ask(db, "ASK { ?e ex:quality \"validated\" }"));
}

TEST(Session, FetchArrayErrors) {
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  Session session(&db);
  // Zero rows.
  EXPECT_FALSE(session.FetchArray("SELECT ?x WHERE { ?x ex:no ?y }").ok());
  // Non-array cell.
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:v 5 }").ok());
  EXPECT_FALSE(session.FetchArray("SELECT ?v WHERE { ex:a ex:v ?v }").ok());
  EXPECT_DOUBLE_EQ(
      *session.FetchScalar("SELECT ?v WHERE { ex:a ex:v ?v }"), 5.0);
}

TEST(Session, FileBackendWorkflowSurvivesEngineRestart) {
  std::string dir = ::testing::TempDir() + "/session_files";
  (void)::system(("mkdir -p " + dir).c_str());
  // First engine stores trajectories to files (like .mat files).
  {
    SSDM db;
    db.AttachStorage(std::make_shared<FileArrayStorage>(dir));
    Session session(&db, "file");
    ASSERT_TRUE(session
                    .StoreResult("http://example.org/exp",
                                 "http://example.org/result", Simulated(20))
                    .ok());
  }
  // A second engine links the file directly (the mediator scenario).
  {
    SSDM db;
    auto storage = std::make_shared<FileArrayStorage>(dir + "/other");
    ArrayId id = *storage->LinkExisting(dir + "/arr_1.ssa");
    db.AttachStorage(storage);
    Term t = *db.OpenStoredArray("file", id);
    WriteBatch batch;
    batch.Add(Term::Iri("http://example.org/exp"),
              Term::Iri("http://example.org/linked"), t);
    db.dataset().default_graph().Apply(std::move(batch));
    auto r = Query(db, 
        "SELECT (ASUM(?a) AS ?s) WHERE { ?e "
        "<http://example.org/linked> ?a }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    double expected = 0;
    for (int64_t i = 0; i < 20; ++i) expected += 100.0 - i;
    EXPECT_EQ(r->rows[0][0], Term::Double(expected));
  }
}

}  // namespace
}  // namespace client
}  // namespace scisparql
