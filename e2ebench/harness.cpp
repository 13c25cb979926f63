#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "client/server.h"
#include "dblp.h"

namespace e2ebench {

using scisparql::QueryOutcome;
using scisparql::Result;
using scisparql::Status;
using scisparql::Term;

std::vector<const Stmt*> Deal(const Pool& pool, size_t n, uint64_t seed) {
  double total = 0;
  for (const StmtClass& c : pool.classes) total += c.weight;
  Rng rng(seed);
  // Each class's statements in a seeded order.
  std::vector<std::vector<const Stmt*>> order;
  for (const StmtClass& c : pool.classes) {
    std::vector<const Stmt*> v;
    for (const Stmt& s : c.stmts) v.push_back(&s);
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.Below(i)]);
    order.push_back(std::move(v));
  }
  // Smooth weighted round robin: every class earns its share of credit per
  // pick and the richest class is picked, so every stretch of the deck holds
  // each class within one statement of its share.
  std::vector<double> credit(order.size(), 0);
  std::vector<size_t> next(order.size(), 0);
  std::vector<const Stmt*> deck;
  deck.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    size_t best = 0;
    for (size_t c = 0; c < order.size(); ++c) {
      credit[c] += pool.classes[c].weight / total;
      if (credit[c] > credit[best]) best = c;
    }
    credit[best] -= 1;
    deck.push_back(order[best][next[best]++ % order[best].size()]);
  }
  return deck;
}

namespace {

std::string Num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

Result<std::string> Canon(const Term& t) {
  switch (t.kind()) {
    case Term::Kind::kDouble:
      return Num(t.dbl());
    case Term::Kind::kArray: {
      auto a = t.array()->Materialize();
      if (!a.ok()) return a.status();
      std::string out = "[";
      for (int64_t d : a->shape()) out += std::to_string(d) + "x";
      out += ":";
      for (int64_t i = 0; i < a->NumElements(); ++i) {
        out += ' ';
        out += Num(a->DoubleAt(i));
      }
      return out + "]";
    }
    default:
      return t.ToString();
  }
}

}  // namespace

Result<std::vector<std::string>> CanonicalRows(const QueryOutcome& outcome) {
  std::vector<std::string> rows;
  switch (outcome.kind()) {
    case QueryOutcome::Kind::kRows:
      for (const auto& row : outcome.rows().rows) {
        std::string line;
        for (const Term& t : row) {
          auto c = Canon(t);
          if (!c.ok()) return c.status();
          line += *c;
          line += '\t';
        }
        rows.push_back(std::move(line));
      }
      break;
    case QueryOutcome::Kind::kAsk:
      rows.push_back(outcome.ask() ? "true" : "false");
      break;
    case QueryOutcome::Kind::kUpdateCount:
      rows.push_back(std::to_string(outcome.update_count()));
      break;
    default:
      return Status::InvalidArgument("unexpected outcome kind");
  }
  return rows;
}

bool Matches(const Stmt& stmt, const QueryOutcome& outcome, uint64_t* rows) {
  auto got = CanonicalRows(outcome);
  if (!got.ok()) return false;
  *rows += got->size();
  if (!stmt.ordered) std::sort(got->begin(), got->end());
  return *got == stmt.expect;
}

Status ComputeExpected(
    Pool* pool,
    const std::function<Result<QueryOutcome>(const std::string&)>& execute) {
  for (StmtClass& c : pool->classes) {
    for (Stmt& s : c.stmts) {
      auto out = execute(s.text);
      if (!out.ok()) {
        return Status::Internal("reference run of a " + c.name +
                                " statement failed: " + out.status().ToString());
      }
      auto rows = CanonicalRows(*out);
      if (!rows.ok()) return rows.status();
      s.expect = std::move(*rows);
      if (!s.ordered) std::sort(s.expect.begin(), s.expect.end());
    }
  }
  return Status::OK();
}

void ClientStats::Fail(const std::string& what) {
  ++failed;
  if (first_error.empty()) first_error = what;
}

void RunReader(int port, const Pool& pool, const std::vector<const Stmt*>& deck,
               size_t offset, const Window& w, SpanLog* log, ClientStats* out) {
  auto session = scisparql::client::RemoteSession::Connect(
      "127.0.0.1", port, std::chrono::seconds(60));
  if (!session.ok()) {
    ++out->attempted;
    out->Fail("connect: " + session.status().ToString());
    return;
  }
  std::this_thread::sleep_until(w.start);
  for (size_t i = offset;; ++i) {
    Clock::time_point t0 = Clock::now();
    if (t0 >= w.end) break;
    const Stmt& stmt = *deck[i % deck.size()];
    auto r = session->Execute(scisparql::QueryRequest(stmt.text));
    Clock::time_point t1 = Clock::now();
    bool recorded = t1 > w.record_from && t1 <= w.end;
    uint64_t rows = 0;
    ++out->attempted;
    if (!r.ok()) {
      out->Fail(pool.classes[stmt.cls].name + ": " + r.status().ToString());
      continue;
    }
    if (!Matches(stmt, *r, &rows)) {
      out->Fail(pool.classes[stmt.cls].name + ": wrong answer to " + stmt.text);
      continue;
    }
    if (!recorded) continue;
    double ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
    out->latency_ms.push_back(ms);
    out->latency_sum_ms += ms;
    out->rows += rows;
    if (log != nullptr) {
      int64_t end = NowMicros();
      log->Add(0, "client." + pool.classes[stmt.cls].name,
               end - static_cast<int64_t>(ms * 1000), end);
    }
  }
}

Latency Summarize(std::vector<double> ms) {
  Latency l;
  l.samples = ms.size();
  if (ms.empty()) return l;
  std::sort(ms.begin(), ms.end());
  auto at = [&](double q) {
    size_t i = static_cast<size_t>(q * static_cast<double>(ms.size() - 1) + 0.5);
    return ms[std::min(i, ms.size() - 1)];
  };
  l.p50_ms = at(0.50);
  l.p99_ms = at(0.99);
  return l;
}

}  // namespace e2ebench
