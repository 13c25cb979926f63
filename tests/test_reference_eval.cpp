// Property test: the executor's BGP evaluation (with cost-based join
// ordering and sideways information passing) must agree with a brute-force
// reference evaluator on randomized graphs and patterns, with the
// optimizer both on and off.

#include <algorithm>
#include <map>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "engine/ssdm.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

using ast::TriplePattern;
using ast::VarOrTerm;

struct RandomCase {
  Graph graph;
  std::vector<TriplePattern> patterns;
  std::vector<std::string> vars;  // in order of appearance
};

Term Node(int i) { return Term::Iri("http://n/" + std::to_string(i)); }
Term Pred(int i) { return Term::Iri("http://p/" + std::to_string(i)); }

RandomCase MakeCase(uint64_t seed) {
  std::mt19937_64 rng(seed);
  RandomCase rc;
  const int nodes = 8;
  const int preds = 3;
  const int triples = 25;
  WriteBatch batch;
  for (int i = 0; i < triples; ++i) {
    batch.Add(Node(rng() % nodes), Pred(rng() % preds),
              rng() % 3 == 0 ? Term::Integer(static_cast<int64_t>(rng() % 4))
                             : Node(rng() % nodes));
  }
  rc.graph.Apply(std::move(batch));
  // 2-4 patterns over a small shared variable pool (join-heavy).
  int npatterns = 2 + rng() % 3;
  std::set<std::string> seen;
  auto pos = [&](bool allow_var) -> VarOrTerm {
    if (allow_var && rng() % 2 == 0) {
      std::string v = "v" + std::to_string(rng() % 3);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }
    return VarOrTerm::Const(Node(rng() % nodes));
  };
  for (int i = 0; i < npatterns; ++i) {
    TriplePattern tp;
    tp.s = pos(true);
    tp.p = rng() % 4 == 0 ? [&] {
      std::string v = "p" + std::to_string(rng() % 2);
      if (seen.insert(v).second) rc.vars.push_back(v);
      return VarOrTerm::Var(v);
    }()
                          : VarOrTerm::Const(Pred(rng() % preds));
    tp.o = pos(true);
    rc.patterns.push_back(std::move(tp));
  }
  return rc;
}

/// Brute force: try every combination of triples for the patterns and keep
/// consistent assignments.
std::set<std::vector<std::string>> Reference(const RandomCase& rc) {
  std::vector<Triple> all = rc.graph.MatchAll(Term(), Term(), Term());
  std::set<std::vector<std::string>> results;
  size_t n = all.size();
  size_t k = rc.patterns.size();
  std::vector<size_t> pick(k, 0);
  while (true) {
    // Check the assignment pick[].
    std::map<std::string, Term> binding;
    bool ok = true;
    for (size_t i = 0; i < k && ok; ++i) {
      const Triple& t = all[pick[i]];
      const TriplePattern& tp = rc.patterns[i];
      auto check = [&](const VarOrTerm& vt, const Term& value) {
        if (!vt.is_var) {
          if (!(vt.term == value)) ok = false;
          return;
        }
        auto it = binding.find(vt.var);
        if (it == binding.end()) {
          binding[vt.var] = value;
        } else if (!(it->second == value)) {
          ok = false;
        }
      };
      check(tp.s, t.s);
      if (ok) check(tp.p, t.p);
      if (ok) check(tp.o, t.o);
    }
    if (ok) {
      std::vector<std::string> row;
      for (const std::string& v : rc.vars) {
        auto it = binding.find(v);
        row.push_back(it == binding.end() ? "UNDEF" : it->second.ToString());
      }
      results.insert(std::move(row));
    }
    // Next combination.
    size_t d = 0;
    while (d < k && ++pick[d] == n) {
      pick[d] = 0;
      ++d;
    }
    if (d == k) break;
  }
  return results;
}

/// Renders the patterns as a SPARQL query over rc.vars.
std::string ToQuery(const RandomCase& rc) {
  std::string q = "SELECT";
  for (const std::string& v : rc.vars) q += " ?" + v;
  if (rc.vars.empty()) q += " *";
  q += " WHERE { ";
  for (const TriplePattern& tp : rc.patterns) {
    q += tp.s.ToString() + " " + tp.p.ToString() + " " + tp.o.ToString() +
         " . ";
  }
  q += "}";
  return q;
}

class ReferenceSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReferenceSweep, ExecutorMatchesBruteForce) {
  RandomCase rc = MakeCase(GetParam());
  std::set<std::vector<std::string>> expected = Reference(rc);

  SSDM db;
  WriteBatch copy;
  rc.graph.ForEach([&copy](const Triple& t) { copy.Add(t); });
  db.dataset().default_graph().Apply(std::move(copy));
  std::string query = ToQuery(rc);

  for (bool optimize : {true, false}) {
    db.exec_options().optimize_join_order = optimize;
    auto r = Query(db, query);
    ASSERT_TRUE(r.ok()) << r.status().ToString() << "\n" << query;
    // The executor returns a multiset; brute force distinct assignments of
    // triples can produce duplicate rows too. Compare as sets (DISTINCT
    // projections) — and also check multiset cardinality is >= set size.
    std::set<std::vector<std::string>> got;
    for (const auto& row : r->rows) {
      std::vector<std::string> cells;
      for (const Term& t : row) {
        cells.push_back(t.IsUndef() ? "UNDEF" : t.ToString());
      }
      got.insert(std::move(cells));
    }
    EXPECT_EQ(got, expected)
        << "optimizer=" << optimize << "\nquery: " << query;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceSweep,
                         ::testing::Range<uint64_t>(1, 26));

}  // namespace
}  // namespace scisparql
