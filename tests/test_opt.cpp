// Tests for the statistics + cost-based join-ordering layer (src/opt/).

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "opt/planner.h"
#include "opt/stats.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

Term Iri(const std::string& local) {
  return Term::Iri("http://example.org/" + local);
}

// --- Equi-depth histogram. ---

TEST(EquiDepthHistogram, QuantilesAndFractions) {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(i);
  auto h = opt::EquiDepthHistogram::Build(values, 16);
  EXPECT_EQ(h.count(), 1000);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
  EXPECT_NEAR(h.Quantile(0.5), 500.0, 80.0);
  EXPECT_NEAR(h.FractionLeq(250.0), 0.25, 0.08);
  EXPECT_DOUBLE_EQ(h.FractionLeq(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionLeq(2000.0), 1.0);
  // Monotone.
  double prev = 0;
  for (double x = 0; x <= 1100; x += 50) {
    double f = h.FractionLeq(x);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

TEST(EquiDepthHistogram, EmptyAndSingleton) {
  auto empty = opt::EquiDepthHistogram::Build({});
  EXPECT_TRUE(empty.empty());
  auto one = opt::EquiDepthHistogram::Build({42.0});
  EXPECT_EQ(one.count(), 1);
  EXPECT_DOUBLE_EQ(one.FractionLeq(41.0), 0.0);
  EXPECT_DOUBLE_EQ(one.FractionLeq(43.0), 1.0);
}

/// Property: BuildWeighted over (value, multiplicity) pairs produces
/// exactly the histogram Build produces over the expanded multiset — the
/// read path may swap one for the other freely.
TEST(EquiDepthHistogram, WeightedBuildMatchesExpandedBuild) {
  std::mt19937 rng(20260807);
  for (int trial = 0; trial < 25; ++trial) {
    std::vector<std::pair<double, int64_t>> weighted;
    std::vector<double> expanded;
    int distinct = 1 + static_cast<int>(rng() % 40);
    for (int i = 0; i < distinct; ++i) {
      double v = static_cast<double>(rng() % 1000) / 4.0;
      int64_t n = 1 + static_cast<int64_t>(rng() % 7);
      weighted.push_back({v, n});
      for (int64_t k = 0; k < n; ++k) expanded.push_back(v);
    }
    int buckets = 1 + static_cast<int>(rng() % 20);
    auto a = opt::EquiDepthHistogram::BuildWeighted(weighted, buckets);
    auto b = opt::EquiDepthHistogram::Build(expanded, buckets);
    ASSERT_EQ(a.count(), b.count()) << "trial " << trial;
    ASSERT_DOUBLE_EQ(a.min(), b.min()) << "trial " << trial;
    ASSERT_DOUBLE_EQ(a.max(), b.max()) << "trial " << trial;
    for (double q = 0.0; q <= 1.0; q += 0.1) {
      ASSERT_DOUBLE_EQ(a.Quantile(q), b.Quantile(q))
          << "trial " << trial << " q=" << q;
    }
    for (double x = -1.0; x <= 251.0; x += 7.0) {
      ASSERT_DOUBLE_EQ(a.FractionLeq(x), b.FractionLeq(x))
          << "trial " << trial << " x=" << x;
    }
  }
  EXPECT_TRUE(opt::EquiDepthHistogram::BuildWeighted({}).empty());
  // Non-positive multiplicities are ignored.
  EXPECT_TRUE(
      opt::EquiDepthHistogram::BuildWeighted({{1.0, 0}, {2.0, -3}}).empty());
}

// --- Incremental counter maintenance. ---

struct StatsSnapshot {
  int64_t total, num_preds, subj, obj;
  std::vector<std::array<int64_t, 3>> per_pred;  // count, dsubj, dobj

  static StatsSnapshot Of(const opt::GraphStats& s,
                          const std::vector<Term>& preds) {
    StatsSnapshot out{s.total_triples(), s.num_predicates(),
                      s.DistinctSubjects(), s.DistinctObjects(), {}};
    for (const Term& p : preds) {
      out.per_pred.push_back(
          {s.PredicateCount(p), s.DistinctSubjects(p), s.DistinctObjects(p)});
    }
    return out;
  }
  bool operator==(const StatsSnapshot& o) const {
    return total == o.total && num_preds == o.num_preds && subj == o.subj &&
           obj == o.obj && per_pred == o.per_pred;
  }
};

/// Property: after any interleaving of INSERT/DELETE (with duplicates and
/// no-op deletes), the incrementally maintained counters equal a
/// from-scratch rebuild.
TEST(GraphStats, IncrementalMatchesRebuildUnderInterleavedMutations) {
  std::mt19937 rng(20260807);
  Graph g;
  opt::GraphStats stats;
  stats.Attach(&g);

  std::vector<Term> preds;
  for (int i = 0; i < 5; ++i) preds.push_back(Iri("p" + std::to_string(i)));
  auto subject = [&](int i) { return Iri("s" + std::to_string(i)); };
  auto object = [&](int i) {
    return i % 2 == 0 ? Term::Integer(i) : Term(Iri("o" + std::to_string(i)));
  };

  std::vector<Triple> live;
  for (int round = 0; round < 6; ++round) {
    for (int step = 0; step < 300; ++step) {
      int roll = static_cast<int>(rng() % 10);
      if (roll < 6 || live.empty()) {
        Triple t{subject(static_cast<int>(rng() % 40)),
                 preds[rng() % preds.size()],
                 object(static_cast<int>(rng() % 25))};
        // Occasionally insert an exact duplicate — a no-op, the graph
        // is a set. The shadow mirrors that by staying duplicate-free.
        if (roll == 0 && !live.empty()) t = live[rng() % live.size()];
        WriteBatch b;
        b.Add(t);
        g.Apply(std::move(b));
        if (std::find(live.begin(), live.end(), t) == live.end()) {
          live.push_back(t);
        }
      } else if (roll < 9) {
        size_t idx = rng() % live.size();
        Triple t = live[idx];
        WriteBatch b;
        b.RemoveAll(t);
        ASSERT_GE(g.Apply(std::move(b)).removed, 1);
        // RemoveAll drops *all* equal triples; mirror that in the shadow.
        live.erase(std::remove(live.begin(), live.end(), t), live.end());
      } else {
        // No-op delete of a triple that is not in the graph.
        WriteBatch b;
        b.RemoveAll(Triple{subject(999), preds[0], object(998)});
        g.Apply(std::move(b));
      }
    }
    ASSERT_EQ(static_cast<size_t>(stats.total_triples()), live.size());
    StatsSnapshot incremental = StatsSnapshot::Of(stats, preds);
    stats.Rebuild();
    StatsSnapshot rebuilt = StatsSnapshot::Of(stats, preds);
    EXPECT_TRUE(incremental == rebuilt) << "divergence in round " << round;
  }

  g.Clear();
  EXPECT_EQ(stats.total_triples(), 0);
  EXPECT_EQ(stats.num_predicates(), 0);
  stats.Detach();
}

TEST(GraphStats, SurvivesGraphDestruction) {
  opt::GraphStats stats;
  {
    Graph g;
    WriteBatch b;
    b.Add(Iri("s"), Iri("p"), Term::Integer(1));
    g.Apply(std::move(b));
    stats.Attach(&g);
    EXPECT_EQ(stats.total_triples(), 1);
  }
  // Orphaned, not dangling: counters stay readable.
  EXPECT_EQ(stats.graph(), nullptr);
  EXPECT_EQ(stats.total_triples(), 1);
}

/// Regression test for the lazy-rebuild data race: histogram accessors are
/// const and run on the scheduler's shared-lock read path, so concurrent
/// read queries may hit an unbuilt/stale cache simultaneously. Run under
/// TSan this fails without the internal rebuild mutex.
TEST(GraphStats, ConcurrentHistogramReadsAreRaceFree) {
  WriteBatch b;
  for (int i = 0; i < 400; ++i) {
    Term s = Iri("s" + std::to_string(i % 40));
    b.Add(s, Iri("score"), Term::Integer(i % 97));
    b.Add(s, Iri("label"), Iri("o" + std::to_string(i % 13)));
  }
  Graph g;
  g.Apply(std::move(b));
  opt::GraphStats stats;
  stats.Attach(&g);
  for (int round = 0; round < 3; ++round) {
    stats.Rebuild();  // re-stales every histogram cache between rounds
    std::atomic<int64_t> sink{0};
    std::vector<std::thread> readers;
    for (int t = 0; t < 8; ++t) {
      readers.emplace_back([&]() {
        static constexpr opt::IndexOrder kOrders[] = {
            opt::IndexOrder::kS, opt::IndexOrder::kP, opt::IndexOrder::kO,
            opt::IndexOrder::kSP, opt::IndexOrder::kPO};
        for (int rep = 0; rep < 10; ++rep) {
          for (opt::IndexOrder ord : kOrders) {
            sink += stats.IndexHistogram(ord).count();
          }
          double frac = 0;
          std::optional<opt::EquiDepthHistogram> h =
              stats.ObjectValueHistogram(Iri("score"), &frac);
          if (h.has_value()) sink += h->count();
        }
      });
    }
    for (auto& th : readers) th.join();
    EXPECT_GT(sink.load(), 0);
  }
  stats.Detach();
}

// --- Registry lifecycle. ---

TEST(StatsRegistry, AttachPrunesOrphanedCollectors) {
  opt::StatsRegistry reg;
  auto doomed = std::make_unique<Graph>();
  WriteBatch b;
  b.Add(Iri("s"), Iri("p"), Term::Integer(1));
  doomed->Apply(std::move(b));
  reg.Attach(doomed.get());
  // The registry keys by address; the lookups below use the freed address
  // purely as a map key and never dereference it.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
  const Graph* dead_key = doomed.get();
  doomed.reset();  // DROP GRAPH: the collector is orphaned, not removed

  ASSERT_NE(reg.Find(dead_key), nullptr);
  EXPECT_EQ(reg.Find(dead_key)->graph(), nullptr);
  // An orphan's stale counters must not surface in the report.
  EXPECT_NE(reg.ReportText().find("no graph statistics"), std::string::npos);

  // The next lifecycle call sweeps the entry keyed by the freed address.
  Graph live;
  reg.Attach(&live);
  if (&live != dead_key) {
    EXPECT_EQ(reg.Find(dead_key), nullptr);
  }
  EXPECT_NE(reg.Find(&live), nullptr);
#pragma GCC diagnostic pop
}

// --- Planner. ---

opt::PatternDesc Pat(const std::string& s_var, const Term& p,
                     const std::string& o_var) {
  opt::PatternDesc d;
  d.s_var = s_var;
  d.p = p;
  d.p_var = "";
  d.o_var = o_var;
  return d;
}

TEST(Planner, StarQueryLeadsWithRarePredicate) {
  WriteBatch b;
  for (int i = 0; i < 200; ++i) {
    Term s = Iri("s" + std::to_string(i));
    b.Add(s, Iri("wide"), Term::Integer(i));
    b.Add(s, Iri("wide"), Term::Integer(i + 1000));
    if (i < 3) b.Add(s, Iri("rare"), Term::Integer(i));
  }
  Graph g;
  g.Apply(std::move(b));
  opt::GraphStats stats;
  stats.Attach(&g);
  opt::CardinalityEstimator est(&g, &stats);

  std::vector<opt::PatternDesc> bgp = {Pat("s", Iri("wide"), "w"),
                                       Pat("s", Iri("rare"), "r")};
  opt::BgpPlan plan = opt::PlanBgp(bgp, {}, est);
  ASSERT_EQ(plan.steps.size(), 2u);
  EXPECT_TRUE(plan.reordered);
  EXPECT_EQ(plan.steps[0].input_index, 1u);  // rare first
  EXPECT_EQ(plan.steps[1].input_index, 0u);
  // Leading with the rare pattern keeps the whole plan's intermediate
  // results far below the wide predicate's scan size.
  EXPECT_LE(plan.steps[0].estimate, 10);
  EXPECT_LT(plan.steps.back().cumulative, 100);
}

TEST(Planner, FilterHintTightensEstimate) {
  WriteBatch b;
  for (int i = 0; i < 100; ++i) {
    b.Add(Iri("s" + std::to_string(i)), Iri("score"), Term::Integer(i));
  }
  Graph g;
  g.Apply(std::move(b));
  opt::GraphStats stats;
  stats.Attach(&g);
  opt::CardinalityEstimator est(&g, &stats);

  opt::PatternDesc d = Pat("s", Iri("score"), "v");
  int64_t plain = est.Estimate(d, {});
  opt::FilterHint hint{"v", opt::RangeOp::kLt, 10.0};
  int64_t hinted = est.Estimate(d, {}, {hint});
  EXPECT_LT(hinted, plain);
}

// --- End-to-end through the engine. ---

class OptEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_.prefixes().Set("ex", "http://example.org/");
    WriteBatch b;
    for (int i = 0; i < 120; ++i) {
      Term s = Iri("s" + std::to_string(i));
      b.Add(s, Iri("wide"), Term::Integer(i));
      b.Add(s, Iri("wide"), Term::Integer(i + 500));
      if (i % 10 == 0) b.Add(s, Iri("mid"), Term::Integer(i));
      if (i % 40 == 0) b.Add(s, Iri("rare"), Term::Integer(i));
    }
    db_.dataset().default_graph().Apply(std::move(b));
  }

  std::vector<std::string> SortedRows(const sparql::QueryResult& r) {
    std::vector<std::string> out;
    for (const auto& row : r.rows) {
      std::string line;
      for (const auto& t : row) line += t.ToString() + "|";
      out.push_back(line);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  SSDM db_;
};

TEST_F(OptEngineTest, OptimizedAndTextualOrdersAgree) {
  const std::string queries[] = {
      "SELECT ?s ?w WHERE { ?s ex:wide ?w . ?s ex:mid ?m . ?s ex:rare ?r }",
      "SELECT ?s WHERE { ?s ex:wide ?w . ?s ex:rare ?r . FILTER(?w < 50) }",
  };
  for (const std::string& q : queries) {
    db_.exec_options().optimize_join_order = true;
    auto on = Query(db_, q);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    db_.exec_options().optimize_join_order = false;
    auto off = Query(db_, q);
    ASSERT_TRUE(off.ok()) << off.status().ToString();
    db_.exec_options().optimize_join_order = true;
    EXPECT_EQ(SortedRows(*on), SortedRows(*off)) << q;
    EXPECT_FALSE(on->rows.empty()) << q;
  }
}

TEST_F(OptEngineTest, ExplainReportsEstimatedAndActualCardinalities) {
  auto plan = db_.Explain(
      "SELECT ?s WHERE { ?s ex:wide ?w . ?s ex:rare ?r }");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("cost-ordered"), std::string::npos) << *plan;
  EXPECT_NE(plan->find(", reordered"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("est "), std::string::npos) << *plan;
  EXPECT_NE(plan->find("actual "), std::string::npos) << *plan;
  EXPECT_NE(plan->find("rare"), std::string::npos) << *plan;
}

TEST_F(OptEngineTest, ExplainStatementAndStatsVerbThroughExecute) {
  auto info = db_.Execute("EXPLAIN SELECT ?s WHERE { ?s ex:rare ?r }");
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->kind(), QueryOutcome::Kind::kInfo);
  EXPECT_NE(info->info().find("scan"), std::string::npos);

  auto stats = db_.Execute("STATS");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->kind(), QueryOutcome::Kind::kInfo);
  EXPECT_NE(stats->info().find("triples"), std::string::npos) << stats->info();
}

TEST(StatsLifecycle, DroppedGraphsLeaveTheStatsReport) {
  SSDM db;
  ASSERT_TRUE(db.LoadTurtleString(
                    "<http://example.org/s> <http://example.org/p> 1 .")
                  .ok());
  ASSERT_TRUE(db.LoadTurtleString(
                    "<http://example.org/s> <http://example.org/p> 2 .",
                    "http://example.org/g")
                  .ok());
  auto count_graphs = [](const std::string& report) {
    size_t n = 0, pos = 0;
    while ((pos = report.find("graph[", pos)) != std::string::npos) {
      ++n;
      pos += 6;
    }
    return n;
  };
  auto before = db.Execute("STATS");
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(count_graphs(before->info()), 2u);

  // CLEAR ALL destroys the named graph; its orphaned collector must drop
  // out of the report instead of showing the dead graph's last counters.
  ASSERT_TRUE(db.Execute("CLEAR ALL").ok());
  auto after = db.Execute("STATS");
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(count_graphs(after->info()), 1u);
}

TEST_F(OptEngineTest, StatsFollowEngineUpdates) {
  const opt::GraphStats* s =
      db_.stats().Find(&db_.dataset().default_graph());
  ASSERT_NE(s, nullptr);
  int64_t before = s->total_triples();
  ASSERT_TRUE(
      db_.Execute("INSERT DATA { ex:new ex:wide 7 . ex:new ex:rare 8 }")
          .ok());
  EXPECT_EQ(s->total_triples(), before + 2);
  ASSERT_TRUE(db_.Execute("DELETE DATA { ex:new ex:rare 8 }").ok());
  EXPECT_EQ(s->total_triples(), before + 1);
}

}  // namespace
}  // namespace scisparql
