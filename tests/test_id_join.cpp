// Dictionary / ID-tuple layer tests: term interning, permutation indexes,
// ID-join vs scan-and-bind equivalence, physical-operator reporting in
// EXPLAIN / EXPLAIN ANALYZE, the solution-modifier pipeline over both
// executors, dictionary-encoded WAL batches and snapshot sections.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "rdf/dictionary.h"
#include "rdf/graph.h"
#include "rdf/id_index.h"
#include "storage/dict_section.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

Term I(const std::string& local) {
  return Term::Iri("http://example.org/" + local);
}

// ---------------------------------------------------------------------------
// TermDictionary.
// ---------------------------------------------------------------------------

TEST(Dictionary, InternIsExactIdentityAndRoundTrips) {
  TermDictionary d;
  uint32_t a = d.Intern(I("a"));
  uint32_t b = d.Intern(I("b"));
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Intern(I("a")), a);  // same term, same ID
  EXPECT_EQ(d.term(a), I("a"));
  EXPECT_EQ(d.term(b), I("b"));
  EXPECT_EQ(d.size(), 2u);
  EXPECT_EQ(*d.Find(I("a")), a);
  EXPECT_FALSE(d.Find(I("missing")).has_value());
}

TEST(Dictionary, NumericAliasDisablesJoinSafety) {
  TermDictionary d;
  d.Intern(Term::Integer(2));
  d.Intern(Term::Double(2.5));
  // 2 and 2.5 are not value-equal: still join safe.
  EXPECT_TRUE(d.join_safe());
  d.Intern(Term::Double(2.0));
  // 2 and 2.0 compare equal under SPARQL `=` but hold distinct IDs.
  EXPECT_TRUE(d.has_numeric_alias());
  EXPECT_FALSE(d.join_safe());
}

TEST(Dictionary, HugeNumericCoexistenceFlagsAliasConservatively) {
  // Past 2^53 the int64 -> double cast stops being injective:
  // (double)9007199254740993 is exactly 9007199254740992.0, so the two
  // compare equal under SPARQL `=` while interning apart.
  {
    TermDictionary d;
    d.Intern(Term::Double(9007199254740992.0));  // 2^53
    EXPECT_TRUE(d.join_safe());
    d.Intern(Term::Integer(9007199254740993));
    // The integer-side probe is exact at any magnitude.
    EXPECT_FALSE(d.join_safe());
  }
  {
    TermDictionary d;
    d.Intern(Term::Integer(9007199254740993));
    EXPECT_TRUE(d.join_safe());
    // The double-side probe cannot enumerate every integer that widens to
    // 2^53, so coexistence with any huge integer flags conservatively.
    d.Intern(Term::Double(9007199254740992.0));
    EXPECT_FALSE(d.join_safe());
  }
  {
    // Below the bound detection stays exact: distinct values never flag.
    TermDictionary d;
    d.Intern(Term::Integer(4096));
    d.Intern(Term::Double(4097.0));
    EXPECT_TRUE(d.join_safe());
  }
}

TEST(Dictionary, SignedZerosAliasAcrossRepresentations) {
  // 0.0 and -0.0 intern apart (bit-pattern identity) but compare equal.
  {
    TermDictionary d;
    d.Intern(Term::Double(0.0));
    EXPECT_TRUE(d.join_safe());
    d.Intern(Term::Double(-0.0));
    EXPECT_FALSE(d.join_safe());
  }
  {
    TermDictionary d;
    d.Intern(Term::Double(-0.0));
    d.Intern(Term::Integer(0));
    EXPECT_FALSE(d.join_safe());
  }
}

TEST(Dictionary, ArrayTermsDisableJoinSafety) {
  TermDictionary d;
  EXPECT_TRUE(d.join_safe());
  NumericArray a = NumericArray::Zeros(ElementType::kInt64, {2});
  d.Intern(Term::Array(ResidentArray::Make(std::move(a))));
  EXPECT_EQ(d.array_terms(), 1u);
  EXPECT_FALSE(d.join_safe());
}

TEST(Dictionary, StringBytesTrackLexicalPayloads) {
  TermDictionary d;
  EXPECT_EQ(d.string_bytes(), 0u);
  d.Intern(Term::Integer(7));
  EXPECT_EQ(d.string_bytes(), 0u);
  d.Intern(Term::String("hello"));
  size_t after_string = d.string_bytes();
  EXPECT_GE(after_string, 5u);
  d.Intern(I("a-rather-long-iri-to-count"));
  EXPECT_GT(d.string_bytes(), after_string);
  d.Clear();
  EXPECT_EQ(d.string_bytes(), 0u);
  EXPECT_EQ(d.size(), 0u);
}

// ---------------------------------------------------------------------------
// Permutation indexes.
// ---------------------------------------------------------------------------

TEST(IdIndexes, PermutationsAreSortedAndCoverLiveRows) {
  WriteBatch b;
  b.Add(I("s1"), I("p"), I("o1"));
  b.Add(I("s2"), I("p"), I("o2"));
  b.Add(I("s1"), I("q"), I("o2"));
  b.Add(I("s3"), I("p"), I("o1"));
  Graph g;
  g.Apply(std::move(b));
  const IdIndexes& idx = g.EnsureIdIndexes();
  ASSERT_EQ(idx.spo.size(), 4u);
  ASSERT_EQ(idx.pos.size(), 4u);
  ASSERT_EQ(idx.osp.size(), 4u);
  for (Perm perm : {Perm::kSpo, Perm::kPos, Perm::kOsp}) {
    const auto& v = idx.perm(perm);
    EXPECT_TRUE(std::is_sorted(v.begin(), v.end(),
                               [perm](const IdTriple& a, const IdTriple& b) {
                                 return PermKey(perm, a) < PermKey(perm, b);
                               }))
        << PermName(perm);
  }
  EXPECT_EQ(idx.distinct_s, 3u);
  EXPECT_EQ(idx.distinct_p, 2u);
  EXPECT_EQ(idx.distinct_o, 2u);
  EXPECT_EQ(idx.distinct_sp, 4u);  // every (s,p) pair is unique here
}

TEST(IdIndexes, PrefixRangeSelectsMatchingRun) {
  WriteBatch b;
  for (int i = 0; i < 5; ++i) b.Add(I("s" + std::to_string(i)), I("p"), I("o"));
  b.Add(I("s0"), I("q"), I("x"));
  Graph g;
  g.Apply(std::move(b));
  const IdIndexes& idx = g.EnsureIdIndexes();
  uint32_t p = *g.dict().Find(I("p"));
  auto [lo, hi] = PrefixRange(idx.pos, Perm::kPos, {p, 0, 0}, 1);
  EXPECT_EQ(hi - lo, 5u);
  for (size_t i = lo; i < hi; ++i) EXPECT_EQ(idx.pos[i].p, p);
  // Whole-table range.
  auto [alo, ahi] = PrefixRange(idx.spo, Perm::kSpo, {0, 0, 0}, 0);
  EXPECT_EQ(ahi - alo, g.size());
}

TEST(IdIndexes, RebuildAfterRemoveSkipsTombstones) {
  WriteBatch load;
  load.Add(I("a"), I("p"), I("b"));
  load.Add(I("a"), I("p"), I("c"));
  Graph g;
  g.Apply(std::move(load));
  EXPECT_EQ(g.EnsureIdIndexes().spo.size(), 2u);
  WriteBatch drop;
  drop.RemoveAll(Triple{I("a"), I("p"), I("b")});
  g.Apply(std::move(drop));
  const IdIndexes& idx = g.EnsureIdIndexes();
  ASSERT_EQ(idx.spo.size(), 1u);
  EXPECT_EQ(idx.spo[0].o, *g.dict().Find(I("c")));
}

// ---------------------------------------------------------------------------
// ID-join fast path vs scan-and-bind: identical results.
// ---------------------------------------------------------------------------

/// Engine with a small social-graph-shaped dataset exercised by every
/// equivalence query below, run through both executors.
class IdJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:knows ex:b , ex:c ; ex:age 30 ; ex:name "alice" .
ex:b ex:knows ex:c , ex:a ; ex:age 25 ; ex:name "bob" .
ex:c ex:knows ex:d ; ex:age 25 ; ex:name "cindy" .
ex:d ex:knows ex:a ; ex:age 40 ; ex:name "dan" .
ex:e ex:age 30 ; ex:name "eve" .
ex:loop ex:knows ex:loop .
)")
                    .ok());
  }

  /// Runs `q` with ID joins on and off and returns both row sets; asserts
  /// both succeed.
  void BothPaths(const std::string& q, std::vector<std::vector<Term>>* id_rows,
                 std::vector<std::vector<Term>>* scan_rows) {
    db_.exec_options().use_id_joins = true;
    auto r1 = Query(db_, q);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    *id_rows = r1->rows;
    db_.exec_options().use_id_joins = false;
    auto r2 = Query(db_, q);
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    *scan_rows = r2->rows;
    db_.exec_options().use_id_joins = true;
  }

  /// Asserts both executors produce the same multiset of rows.
  void ExpectSameRows(const std::string& q) {
    std::vector<std::vector<Term>> id_rows, scan_rows;
    BothPaths(q, &id_rows, &scan_rows);
    auto key = [](const std::vector<Term>& row) {
      std::string k;
      for (const Term& t : row) k += t.ToString() + "\x1f";
      return k;
    };
    std::vector<std::string> a, b;
    for (const auto& r : id_rows) a.push_back(key(r));
    for (const auto& r : scan_rows) b.push_back(key(r));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b) << q;
  }

  /// Asserts both executors produce identical ordered rows.
  void ExpectSameOrderedRows(const std::string& q) {
    std::vector<std::vector<Term>> id_rows, scan_rows;
    BothPaths(q, &id_rows, &scan_rows);
    EXPECT_EQ(id_rows, scan_rows) << q;
  }

  SSDM db_;
};

TEST_F(IdJoinTest, StarChainAndCrossQueriesMatchScanAndBind) {
  // Subject star (hash joins).
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  // Chain (object of one pattern is subject of the next).
  ExpectSameRows(
      "SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }");
  // Object-object join (merge join).
  ExpectSameRows(
      "SELECT ?x ?y WHERE { ?x ex:knows ?f . ?y ex:knows ?f }");
  // Cross product: no shared variables.
  ExpectSameRows("SELECT ?n ?m WHERE { ex:a ex:name ?n . ex:e ex:name ?m }");
  // Three-pattern mix with a constant object.
  ExpectSameRows(
      "SELECT ?s ?n WHERE { ?s ex:age 25 . ?s ex:name ?n . ?s ex:knows ?f }");
}

TEST_F(IdJoinTest, RepeatedVariablesAndMissingConstantsMatch) {
  // Repeated variable inside one pattern (self-loop).
  ExpectSameRows("SELECT ?x ?n WHERE { ?x ex:knows ?x . ?x ex:knows ?n }");
  // Constant absent from the data: zero solutions, not an error.
  ExpectSameRows(
      "SELECT ?s ?o WHERE { ?s ex:nothere ?o . ?o ex:knows ?x }");
}

TEST_F(IdJoinTest, FiltersApplyIdenticallyOnBothPaths) {
  ExpectSameRows(
      "SELECT ?s ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a . "
      "FILTER(?a > 24 && ?a < 31) }");
  // A filter that errors for some rows (division by zero semantics):
  // error rows are rejected on both paths.
  ExpectSameRows(
      "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:knows ?f . "
      "FILTER(10 / (?a - 25) > 0) }");
}

TEST_F(IdJoinTest, CrossKindNumericConstantsMatch) {
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:m ex:score 10.0 . "
                      "ex:m ex:name \"mallory\" }")
                  .ok());
  // Integer literal 10 must match the stored double 10.0 on both paths
  // (the ID executor probes both numeric kinds of the dictionary).
  ExpectSameRows("SELECT ?n WHERE { ?s ex:score 10 . ?s ex:name ?n }");
}

TEST_F(IdJoinTest, OverflowFallsBackToScanAndBind) {
  db_.exec_options().id_join_max_rows = 2;  // force mid-join overflow
  auto r = Query(db_, 
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->rows.size(), 6u);
  db_.exec_options().id_join_max_rows = 8u << 20;
}

TEST_F(IdJoinTest, NumericAliasInDataDisablesFastPathSafely) {
  // Interning both 25 and 25.0 makes ID equality diverge from SPARQL `=`;
  // the executor must fall back, and results must still be correct.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:z ex:age 25.0 . "
                      "ex:z ex:knows ex:a }")
                  .ok());
  EXPECT_FALSE(db_.dataset().default_graph().dict().join_safe());
  ExpectSameRows("SELECT ?s WHERE { ?s ex:age 25 . ?s ex:knows ?f }");
}

TEST_F(IdJoinTest, IntegerConstantPastDoublePrecisionMatchesScanAndBind) {
  // Stored double 2^53; the query constant 2^53+1 widens to exactly that
  // double under SPARQL `=`, but the int64 -> double cast used to lower it
  // into the ID space is lossy at this magnitude. The lowering must fall
  // back to scan-and-bind rather than pin the constant to (or past) the
  // stored ID.
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:big ex:score 9007199254740992.0 . "
                      "ex:big ex:name \"big\" }")
                  .ok());
  ExpectSameRows(
      "SELECT ?n WHERE { ?s ex:score 9007199254740993 . ?s ex:name ?n }");
  // Exactly-representable magnitudes keep the exact cross-kind probe.
  ExpectSameRows(
      "SELECT ?n WHERE { ?s ex:score 9007199254740992 . ?s ex:name ?n }");
}

TEST(IdJoinEdge, DoubleConstantPastPrecisionDoesNotMissStoredInteger) {
  // The mirror image: a huge integer stored, a double query constant equal
  // to it under widening. Casting the double back to int64 yields 2^53 and
  // the probe misses 2^53+1 — the old "missing constant -> zero solutions"
  // early return silently dropped the row.
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:huge ex:score 9007199254740993 . "
                      "ex:huge ex:name \"huge\" }")
                  .ok());
  EXPECT_TRUE(db.dataset().default_graph().dict().join_safe());
  for (bool id_joins : {true, false}) {
    db.exec_options().use_id_joins = id_joins;
    auto r = Query(db,
                   "SELECT ?n WHERE { ?s ex:score 9007199254740992.0 . "
                   "?s ex:name ?n }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r->rows.size(), 1u) << "use_id_joins=" << id_joins;
  }
}

// ---------------------------------------------------------------------------
// Delta-aware ID-space scans: pending writes must not evict the fast path.
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, DeltaResidentConstantsResolveThroughIdPath) {
  db_.dataset().SetConcurrentWrites(true);
  // 33 and "fred" exist only in the unfolded delta: Apply interns them at
  // commit, so the ID path must find them instead of concluding "constant
  // missing from dictionary -> zero solutions".
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:f ex:age 33 . ex:f ex:knows ex:a . "
                      "ex:f ex:name \"fred\" }")
                  .ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  db_.exec_options().use_id_joins = true;
  auto r = Query(db_, "SELECT ?n WHERE { ?s ex:age 33 . ?s ex:name ?n }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  EXPECT_EQ(r->rows[0][0], Term::String("fred"));
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  // The equivalence checks above must have run against a still-pending
  // delta, not a folded one.
  EXPECT_TRUE(db_.dataset().default_graph().HasDelta());
}

TEST_F(IdJoinTest, DeltaTombstonesSuppressBaseRowsOnIdPath) {
  db_.dataset().SetConcurrentWrites(true);
  ASSERT_TRUE(scisparql::Run(db_, "DELETE DATA { ex:b ex:knows ex:c }").ok());
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:b ex:knows ex:e }").ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  ExpectSameRows("SELECT ?a ?c WHERE { ?a ex:knows ?b . ?b ex:knows ?c }");
  ExpectSameRows("SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }");
  EXPECT_TRUE(db_.dataset().default_graph().HasDelta());
}

TEST_F(IdJoinTest, ExplainShowsDeltaMergedScansWhileDeltaPending) {
  db_.dataset().SetConcurrentWrites(true);
  ASSERT_TRUE(scisparql::Run(db_, "INSERT DATA { ex:f ex:age 27 . ex:f ex:knows ex:a }")
                  .ok());
  ASSERT_TRUE(db_.dataset().default_graph().HasDelta());
  const std::string star =
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }";
  ASSERT_TRUE(Query(db_, star).ok());
  auto plan = db_.Explain(star);
  ASSERT_TRUE(plan.ok());
  // Still the ID path — and the scans advertise the merged delta run.
  EXPECT_NE(plan->find("index-scan("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("+delta"), std::string::npos) << *plan;
}

// ---------------------------------------------------------------------------
// Physical operators in EXPLAIN / EXPLAIN ANALYZE.
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, ExplainShowsChosenPhysicalOperators) {
  const std::string star =
      "SELECT ?s ?f ?a WHERE { ?s ex:knows ?f . ?s ex:age ?a }";
  ASSERT_TRUE(Query(db_, star).ok());
  auto plan = db_.Explain(star);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index-scan("), std::string::npos) << *plan;
  EXPECT_NE(plan->find("hash-join("), std::string::npos) << *plan;

  const std::string obj =
      "SELECT ?x ?y WHERE { ?x ex:knows ?f . ?y ex:knows ?f }";
  ASSERT_TRUE(Query(db_, obj).ok());
  auto plan2 = db_.Explain(obj);
  ASSERT_TRUE(plan2.ok());
  EXPECT_NE(plan2->find("merge-join("), std::string::npos) << *plan2;
}

TEST_F(IdJoinTest, ExplainAnalyzeCarriesPhysicalOperators) {
  auto out = db_.Execute(
      "EXPLAIN ANALYZE SELECT ?x ?y WHERE { ?x ex:knows ?f . "
      "?y ex:knows ?f }");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_NE(out->info().find("merge-join("), std::string::npos) << out->info();
}

// ---------------------------------------------------------------------------
// Solution-modifier pipeline over both executors (satellite: ORDER BY /
// DISTINCT / OFFSET / LIMIT interplay must not depend on the join path).
// ---------------------------------------------------------------------------

TEST_F(IdJoinTest, OrderByProducesIdenticalRowsOnBothPaths) {
  // Total order (age, then name) — both executors must agree exactly.
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a ?n");
  ExpectSameOrderedRows(
      "SELECT ?a ?n WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY DESC(?a) ?n");
}

TEST_F(IdJoinTest, DistinctPreservesSortedOrderOnBothPaths) {
  ExpectSameOrderedRows(
      "SELECT DISTINCT ?a WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a");
}

TEST_F(IdJoinTest, OffsetPastEndAndLimitZeroOnBothPaths) {
  for (bool id_joins : {true, false}) {
    db_.exec_options().use_id_joins = id_joins;
    auto past = Query(db_, 
        "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } OFFSET 100");
    ASSERT_TRUE(past.ok());
    EXPECT_TRUE(past->rows.empty());
    auto zero = Query(db_, 
        "SELECT ?s WHERE { ?s ex:age ?a . ?s ex:name ?n } LIMIT 0");
    ASSERT_TRUE(zero.ok());
    EXPECT_TRUE(zero->rows.empty());
  }
  db_.exec_options().use_id_joins = true;
}

TEST_F(IdJoinTest, DistinctWithLimitOnBothPaths) {
  ExpectSameOrderedRows(
      "SELECT DISTINCT ?a WHERE { ?s ex:age ?a . ?s ex:name ?n } "
      "ORDER BY ?a LIMIT 2");
}

// ---------------------------------------------------------------------------
// Dictionary-encoded WAL batches.
// ---------------------------------------------------------------------------

TEST(WalDictRefs, RepeatedTermsRoundTripThroughBatchRefs) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = ::testing::TempDir() + "/wal_dict_refs";
  (void)::system(("rm -rf " + dir).c_str());
  ASSERT_TRUE(vfs->CreateDir(dir).ok());
  auto wal = *storage::WalWriter::Create(vfs, dir, 1);

  // One batch whose terms repeat heavily (shared subject and predicate):
  // repeats are written as dictionary back-references, and must decode to
  // the identical triples.
  std::vector<storage::WalRecord> batch;
  for (int i = 0; i < 16; ++i) {
    batch.push_back({storage::WalRecord::Type::kAdd, 0, "",
                     Triple{I("subject"), I("predicate"),
                            I("o" + std::to_string(i % 4))}});
  }
  ASSERT_TRUE(wal->AppendBatch(batch).ok());
  // A second batch reusing the same terms: back-references are batch-
  // scoped, so this one re-emits them and decodes independently.
  std::vector<storage::WalRecord> batch2 = {
      {storage::WalRecord::Type::kRemove, 0, "",
       Triple{I("subject"), I("predicate"), I("o1")}}};
  ASSERT_TRUE(wal->AppendBatch(batch2).ok());

  auto resolve = [](const std::string&, uint64_t) -> Result<Term> {
    return Status::Internal("no proxies in this test");
  };
  Graph g;
  auto stats = *storage::ReplayWal(
      vfs, dir, 0, resolve, [&g](const storage::WalRecord& rec) -> Status {
        WriteBatch b;
        if (rec.type == storage::WalRecord::Type::kAdd) b.Add(rec.triple);
        if (rec.type == storage::WalRecord::Type::kRemove) {
          b.RemoveAll(rec.triple);
        }
        g.Apply(std::move(b));
        return Status::OK();
      });
  EXPECT_EQ(stats.batches_applied, 2u);
  // 16 adds cover 4 distinct objects; the graph is a set, so the dups
  // collapse to 4 triples and the Remove drops the one o1 copy.
  EXPECT_EQ(g.size(), 3u);
  EXPECT_TRUE(g.Contains(I("subject"), I("predicate"), I("o0")));
  EXPECT_FALSE(g.Contains(I("subject"), I("predicate"), I("o1")));

  // The repeated terms must actually have been compressed: the segment
  // should be far smaller than 16 verbatim triple encodings.
  auto names = *vfs->ListDir(dir);
  ASSERT_EQ(names.size(), 1u);
  auto f = *vfs->Open(dir + "/" + names[0], storage::Vfs::OpenMode::kRead);
  uint64_t size = *f->Size();
  size_t one_triple = 3 * (5 + I("subject").iri().size());
  EXPECT_LT(size, 17 * one_triple);
}

// ---------------------------------------------------------------------------
// Dictionary-encoded snapshot sections.
// ---------------------------------------------------------------------------

TEST(DictSection, RoundTripsTermsOnceAndSkipsTombstones) {
  WriteBatch load;
  for (int i = 0; i < 50; ++i) {
    load.Add(I("s" + std::to_string(i % 5)), I("p"), Term::Integer(i));
    load.Add(I("s" + std::to_string(i % 5)), I("label"),
             Term::String("node" + std::to_string(i % 5)));
  }
  Graph g;
  g.Apply(std::move(load));
  WriteBatch drop;
  drop.RemoveAll(Triple{I("s0"), I("p"), Term::Integer(0)});
  g.Apply(std::move(drop));

  auto body = storage::EncodeDictSection(g);
  ASSERT_TRUE(body.ok()) << body.status().ToString();
  EXPECT_TRUE(storage::IsDictSection(*body));

  Graph out;
  ASSERT_TRUE(storage::DecodeDictSection(*body, &out).ok());
  EXPECT_EQ(out.size(), g.size());
  EXPECT_FALSE(out.Contains(I("s0"), I("p"), Term::Integer(0)));
  EXPECT_TRUE(out.Contains(I("s1"), I("p"), Term::Integer(1)));
  EXPECT_TRUE(
      out.Contains(I("s2"), I("label"), Term::String("node2")));
}

TEST(DictSection, TurtleBodiesAreNotMistakenForSections) {
  EXPECT_FALSE(storage::IsDictSection("@prefix ex: <http://e/> ."));
  EXPECT_FALSE(storage::IsDictSection(""));
  Graph g;
  EXPECT_EQ(
      storage::DecodeDictSection("not a section", &g).code(),
      StatusCode::kInternal);
}

TEST(DictSection, CorruptBodiesFailCleanly) {
  WriteBatch b;
  b.Add(I("a"), I("p"), I("b"));
  Graph g;
  g.Apply(std::move(b));
  std::string body = *storage::EncodeDictSection(g);
  // Truncations anywhere must error, never crash or mis-decode.
  for (size_t cut = 1; cut < body.size(); cut += 3) {
    Graph out;
    std::string torn = body.substr(0, cut);
    if (!storage::IsDictSection(torn)) continue;
    EXPECT_FALSE(storage::DecodeDictSection(torn, &out).ok());
  }
}

}  // namespace
}  // namespace scisparql
