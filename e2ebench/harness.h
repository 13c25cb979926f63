#ifndef E2EBENCH_HARNESS_H_
#define E2EBENCH_HARNESS_H_

// Closed-loop remote clients, answer checking and latency statistics,
// shared by every workload.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "engine/query_api.h"
#include "probes.h"

namespace e2ebench {

/// One statement of a workload's pool with its expected answer, computed
/// before the timed phase on an embedded engine.
struct Stmt {
  std::string text;
  size_t cls = 0;           ///< index into Pool::classes
  bool ordered = false;     ///< ORDER BY fixes a total order: compare in order
  std::vector<std::string> expect;
};

/// A statement class of a pool: its name, its share of the client mix, the
/// number of triple patterns its BGP has, and its statements.
struct StmtClass {
  std::string name;
  double weight = 0;
  int bgp_patterns = 0;
  std::vector<Stmt> stmts;
};

struct Pool {
  std::vector<StmtClass> classes;
};

/// The order clients send a pool's statements in: `n` picks in which every
/// class appears in proportion to its weight, evenly spread, cycling through
/// its statements in an order shuffled by `seed`. Even spreading instead of
/// independent draws keeps the share of heavy statements, which dominate
/// the run's time, the same in every run and in every stretch a client
/// sends.
std::vector<const Stmt*> Deal(const Pool& pool, size_t n, uint64_t seed);

/// Canonical, order-preserving rendering of an outcome's answer: one
/// string per row (ASK and update counts give one row). Doubles and array
/// elements print with 9 significant digits, so an aggregate pushed down
/// into a back-end and the same aggregate computed in memory compare equal.
scisparql::Result<std::vector<std::string>> CanonicalRows(
    const scisparql::QueryOutcome& outcome);

/// True when `outcome` is the answer `stmt` expects; adds the rows
/// returned to *rows.
bool Matches(const Stmt& stmt, const scisparql::QueryOutcome& outcome,
             uint64_t* rows);

/// Fills every statement's expected answer by running it through
/// `execute`; returns the first failure.
scisparql::Status ComputeExpected(
    Pool* pool,
    const std::function<scisparql::Result<scisparql::QueryOutcome>(
        const std::string&)>& execute);

/// The timed window: clients start at `start`; the requests that complete
/// after `record_from` (a warm-up that fills plan caches) and by `end` are
/// the samples, the same requests the engine's counters see in the window.
struct Window {
  Clock::time_point start;
  Clock::time_point record_from;
  Clock::time_point end;
};

/// What one client thread saw.
struct ClientStats {
  std::vector<double> latency_ms;  ///< recorded window only
  double latency_sum_ms = 0;       ///< recorded window only
  uint64_t attempted = 0;          ///< whole run, warm-up included
  uint64_t failed = 0;
  uint64_t rows = 0;               ///< rows returned in the recorded window
  uint64_t user_bytes = 0;         ///< writers: triple-line bytes acked in window
  std::string first_error;

  void Fail(const std::string& what);
};

/// A reader client: one RemoteSession sending the statements of `deck`,
/// cyclically from `offset`, until the window ends, each sent after the
/// previous reply arrived (closed loop). When `log` is non-null every
/// recorded request becomes a "client.<class>" span.
void RunReader(int port, const Pool& pool, const std::vector<const Stmt*>& deck,
               size_t offset, const Window& w, SpanLog* log, ClientStats* out);

/// Latency summary of a sample set.
struct Latency {
  size_t samples = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};
Latency Summarize(std::vector<double> ms);

}  // namespace e2ebench

#endif  // E2EBENCH_HARNESS_H_
