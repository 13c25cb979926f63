#include <gtest/gtest.h>

#include "rdf/graph.h"
#include "rdf/namespaces.h"

namespace scisparql {
namespace {

Term I(const std::string& local) { return Term::Iri("http://ex/" + local); }

/// Applies a one-triple insert and returns how many copies it added.
int64_t AddOne(Graph* g, Term s, Term p, Term o) {
  WriteBatch b;
  b.Add(std::move(s), std::move(p), std::move(o));
  return g->Apply(std::move(b)).added;
}

/// Applies a one-triple RemoveAll and returns how many copies it removed.
int64_t RemoveOne(Graph* g, Triple t) {
  WriteBatch b;
  b.RemoveAll(std::move(t));
  return g->Apply(std::move(b)).removed;
}

Graph SmallGraph() {
  WriteBatch b;
  b.Add(I("alice"), I("knows"), I("bob"));
  b.Add(I("alice"), I("knows"), I("carol"));
  b.Add(I("bob"), I("knows"), I("carol"));
  b.Add(I("alice"), I("name"), Term::String("Alice"));
  b.Add(I("bob"), I("name"), Term::String("Bob"));
  Graph g;
  g.Apply(std::move(b));
  return g;
}

TEST(Graph, AddAndSize) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.size(), 5u);
  EXPECT_FALSE(g.empty());
}

TEST(Graph, MatchBySubject) {
  Graph g = SmallGraph();
  auto ts = g.MatchAll(I("alice"), Term(), Term());
  EXPECT_EQ(ts.size(), 3u);
}

TEST(Graph, MatchByPredicate) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.MatchAll(Term(), I("knows"), Term()).size(), 3u);
  EXPECT_EQ(g.MatchAll(Term(), I("name"), Term()).size(), 2u);
}

TEST(Graph, MatchByObject) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.MatchAll(Term(), Term(), I("carol")).size(), 2u);
}

TEST(Graph, MatchSubjectPredicate) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.MatchAll(I("alice"), I("knows"), Term()).size(), 2u);
}

TEST(Graph, MatchPredicateObject) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.MatchAll(Term(), I("knows"), I("carol")).size(), 2u);
}

TEST(Graph, MatchFullTriple) {
  Graph g = SmallGraph();
  EXPECT_TRUE(g.Contains(I("alice"), I("knows"), I("bob")));
  EXPECT_FALSE(g.Contains(I("bob"), I("knows"), I("alice")));
}

TEST(Graph, MatchAllWildcards) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.MatchAll(Term(), Term(), Term()).size(), 5u);
}

TEST(Graph, MatchSubjectObjectWithoutIndex) {
  Graph g = SmallGraph();
  auto ts = g.MatchAll(I("alice"), Term(), I("bob"));
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_EQ(ts[0].p, I("knows"));
}

TEST(Graph, EarlyStop) {
  Graph g = SmallGraph();
  int count = 0;
  g.Match(Term(), I("knows"), Term(), [&count](const Triple&) {
    ++count;
    return count < 2;
  });
  EXPECT_EQ(count, 2);
}

TEST(Graph, RemoveExactTriples) {
  Graph g = SmallGraph();
  EXPECT_EQ(RemoveOne(&g, Triple{I("alice"), I("knows"), I("bob")}), 1);
  EXPECT_EQ(g.size(), 4u);
  EXPECT_FALSE(g.Contains(I("alice"), I("knows"), I("bob")));
  EXPECT_TRUE(g.Contains(I("alice"), I("knows"), I("carol")));
  // Removing again is a no-op.
  EXPECT_EQ(RemoveOne(&g, Triple{I("alice"), I("knows"), I("bob")}), 0);
}

TEST(Graph, DuplicateAddIsANoOp) {
  // RDF graphs are sets of triples: re-adding a live triple changes
  // nothing — which is what makes a retried INSERT DATA idempotent all
  // the way through the WAL and the replication stream.
  Graph g;
  EXPECT_EQ(AddOne(&g, I("a"), I("p"), I("b")), 1);
  EXPECT_EQ(AddOne(&g, I("a"), I("p"), I("b")), 0);
  EXPECT_EQ(g.size(), 1u);
  EXPECT_EQ(RemoveOne(&g, Triple{I("a"), I("p"), I("b")}), 1);
  EXPECT_EQ(g.size(), 0u);
  // Remove-then-re-add in one batch nets one live copy back.
  WriteBatch b;
  b.Add(I("a"), I("p"), I("b"));
  b.RemoveAll(Triple{I("a"), I("p"), I("b")});
  b.Add(I("a"), I("p"), I("b"));
  Graph::ApplyResult r = g.Apply(std::move(b));
  EXPECT_EQ(r.added, 2);
  EXPECT_EQ(r.removed, 1);
  EXPECT_EQ(g.size(), 1u);
}

TEST(Graph, EstimateMatches) {
  Graph g = SmallGraph();
  EXPECT_EQ(g.EstimateMatches(std::nullopt, std::nullopt, std::nullopt), 5);
  EXPECT_EQ(g.EstimateMatches(std::nullopt, I("knows"), std::nullopt), 3);
  EXPECT_EQ(g.EstimateMatches(I("alice"), I("knows"), std::nullopt), 2);
  EXPECT_EQ(g.EstimateMatches(std::nullopt, I("knows"), I("carol")), 2);
  EXPECT_EQ(g.EstimateMatches(I("nobody"), std::nullopt, std::nullopt), 0);
}

TEST(Graph, CompactionAfterManyRemovals) {
  Graph g;
  WriteBatch load;
  for (int i = 0; i < 3000; ++i) {
    load.Add(I("s" + std::to_string(i)), I("p"), Term::Integer(i));
  }
  g.Apply(std::move(load));
  for (int i = 0; i < 2500; ++i) {
    EXPECT_EQ(RemoveOne(&g, Triple{I("s" + std::to_string(i)), I("p"),
                                   Term::Integer(i)}),
              1);
  }
  EXPECT_EQ(g.size(), 500u);
  // Remaining triples still findable post-compaction.
  EXPECT_TRUE(g.Contains(I("s2750"), I("p"), Term::Integer(2750)));
  EXPECT_EQ(g.MatchAll(Term(), I("p"), Term()).size(), 500u);
}

TEST(Graph, CloneIsIndependent) {
  Graph g = SmallGraph();
  Graph copy = g.Clone();
  AddOne(&copy, I("x"), I("p"), I("y"));
  EXPECT_EQ(g.size(), 5u);
  EXPECT_EQ(copy.size(), 6u);
}

TEST(Graph, RemoveFindsValueEqualNumericCopies) {
  // `2` and `2.0` intern under different IDs, so the live-row index
  // cannot pin the row: removal falls back to comparing values.
  Graph g;
  WriteBatch load;
  load.Add(I("a"), I("v"), Term::Integer(2));
  load.Add(I("b"), I("v"), Term::Double(2.0));
  load.Add(I("c"), I("v"), Term::Integer(3));
  g.Apply(std::move(load));
  EXPECT_EQ(RemoveOne(&g, Triple{I("a"), I("v"), Term::Double(2.0)}), 1);
  EXPECT_EQ(RemoveOne(&g, Triple{I("b"), I("v"), Term::Integer(2)}), 1);
  EXPECT_EQ(RemoveOne(&g, Triple{I("c"), I("v"), Term::Integer(3)}), 1);
  EXPECT_EQ(g.size(), 0u);
}

TEST(Graph, RemoveAfterCompactionAndReAdd) {
  // Compaction renumbers rows; the live-row index must follow, and a
  // removed-then-re-added triple must be removable again.
  Graph g;
  WriteBatch load;
  for (int i = 0; i < 2100; ++i) {
    load.Add(I("s" + std::to_string(i)), I("p"), I("o"));
  }
  g.Apply(std::move(load));
  WriteBatch drop;
  for (int i = 0; i < 2000; ++i) {
    drop.RemoveAll(Triple{I("s" + std::to_string(i)), I("p"), I("o")});
  }
  EXPECT_EQ(g.Apply(std::move(drop)).removed, 2000);
  EXPECT_EQ(AddOne(&g, I("s5"), I("p"), I("o")), 1);
  EXPECT_EQ(RemoveOne(&g, Triple{I("s2050"), I("p"), I("o")}), 1);
  EXPECT_EQ(RemoveOne(&g, Triple{I("s5"), I("p"), I("o")}), 1);
  EXPECT_EQ(RemoveOne(&g, Triple{I("s5"), I("p"), I("o")}), 0);
  EXPECT_EQ(g.size(), 99u);
  EXPECT_TRUE(g.Contains(I("s2099"), I("p"), I("o")));
}

TEST(Graph, FreshBlankLabelsDistinct) {
  Graph g;
  EXPECT_NE(g.FreshBlankLabel(), g.FreshBlankLabel());
}

TEST(Graph, ArrayValuedTriples) {
  Graph g;
  Term arr = Term::Array(
      ResidentArray::Make(*NumericArray::FromInts({3}, {1, 2, 3})));
  AddOne(&g, I("s"), I("data"), arr);
  auto ts = g.MatchAll(I("s"), I("data"), Term());
  ASSERT_EQ(ts.size(), 1u);
  EXPECT_TRUE(ts[0].o.IsArray());
  // Array values participate in exact matching too.
  Term same = Term::Array(
      ResidentArray::Make(*NumericArray::FromDoubles({3}, {1, 2, 3})));
  EXPECT_TRUE(g.Contains(I("s"), I("data"), same));
}

TEST(Dataset, NamedGraphs) {
  Dataset ds;
  AddOne(&ds.default_graph(), I("a"), I("p"), I("b"));
  AddOne(&ds.GetOrCreateNamed("http://g1"), I("c"), I("p"), I("d"));
  EXPECT_NE(ds.FindNamed("http://g1"), nullptr);
  EXPECT_EQ(ds.FindNamed("http://nope"), nullptr);
  EXPECT_EQ(ds.FindNamed("http://g1")->size(), 1u);
  EXPECT_TRUE(ds.DropNamed("http://g1"));
  EXPECT_FALSE(ds.DropNamed("http://g1"));
}

TEST(Triple, ToStringRendersTurtleish) {
  Triple t{I("s"), I("p"), Term::Integer(4)};
  EXPECT_EQ(t.ToString(), "<http://ex/s> <http://ex/p> 4 .");
}

}  // namespace
}  // namespace scisparql
