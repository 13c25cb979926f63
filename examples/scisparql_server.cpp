// SSDM in client-server mode (Section 5.1): serves SciSPARQL statements
// over TCP. Three ways to run it:
//
//   scisparql_server                         self-contained demo (below)
//   scisparql_server <port> [file.ttl ...]   legacy: serve until Enter/kill
//   scisparql_server [--port N] [--open DIR] [--replica-of HOST:PORT]
//                    [--id NAME] [--peer HOST:PORT ...] [--probe-ms N]
//                    [--liveness N] [--fence-ms N] [--sync-ack-ms N]
//                    [file.ttl ...]
//
// The flag form is what the replication smoke and failover chaos tests
// drive:
//   --port N            listen port (0 = ephemeral; the bound port is
//                       printed on the "SSDM serving ..." line)
//   --open DIR          durable store: recover snapshot+WAL, log updates
//   --replica-of H:P    run as a read replica of the SSDM server at H:P —
//                       a background applier streams the primary's WAL
//                       and applies it through this server's scheduler;
//                       client writes are rejected with a pointer to the
//                       primary. Combined with --open the replica writes
//                       the stream through to its own WAL and recovers
//                       locally on restart, rejoining at its applied LSN.
//   --id NAME           node identity: the replica id reported to the
//                       primary and the election tie-break key
//   --peer H:P          another cluster node's client port (repeatable).
//                       Any --peer enables the failover coordinator: this
//                       node probes for primary liveness, runs elections,
//                       promotes itself when it wins, and demotes itself
//                       when deposed — roles are dynamic from here on.
//   --probe-ms N        failure-detector probe cadence (default 100)
//   --liveness N        consecutive missed probes before an election
//                       (default 5)
//   --fence-ms N        self-fencing lease: a primary that has replicas
//                       but saw no fetch for N ms rejects writes (0 off)
//   --sync-ack-ms N     semi-sync acks: updates wait up to N ms for a
//                       replica to apply before acking (0 off)
//
// With stdin at EOF (e.g. </dev/null under a launcher script) the server
// keeps serving until killed; interactively, Enter stops it.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "client/server.h"
#include "repl/failover.h"
#include "repl/replica.h"

namespace {

bool IsNumber(const char* s) {
  if (*s == '\0') return false;
  for (; *s != '\0'; ++s) {
    if (*s < '0' || *s > '9') return false;
  }
  return true;
}

/// Blocks until Enter (interactive) or forever (stdin already at EOF —
/// the launcher owns our lifetime and kills us).
void WaitForStop() {
  if (std::getchar() != EOF) return;
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

struct ServeConfig {
  int port = 0;
  std::string open_dir;
  std::string primary;  // HOST:PORT; empty = start as primary
  std::string node_id = "replica";
  std::vector<std::string> peers;  // HOST:PORT each
  int probe_ms = 100;
  int liveness = 5;
  int fence_ms = 0;
  int sync_ack_ms = 0;
};

bool ParseHostPort(const std::string& hp, std::string* host, int* port) {
  size_t colon = hp.rfind(':');
  if (colon == std::string::npos) return false;
  *host = hp.substr(0, colon);
  *port = std::atoi(hp.c_str() + colon + 1);
  return *port > 0;
}

int ServeForever(scisparql::SSDM* engine, const ServeConfig& cfg) {
  using namespace scisparql;
  if (!cfg.open_dir.empty()) {
    Status st = engine->Open(cfg.open_dir);
    if (!st.ok()) {
      std::fprintf(stderr, "open %s: %s\n", cfg.open_dir.c_str(),
                   st.ToString().c_str());
      return 1;
    }
  }

  client::SsdmServer::Options options;
  options.sched.workers = 4;
  options.sched.queue_capacity = 128;
  options.node_id = cfg.node_id;
  options.fence_timeout = std::chrono::milliseconds(cfg.fence_ms);
  options.sync_ack_timeout = std::chrono::milliseconds(cfg.sync_ack_ms);
  client::SsdmServer server(engine, options);
  auto bound = server.Start(cfg.port);
  if (!bound.ok()) {
    std::fprintf(stderr, "%s\n", bound.status().ToString().c_str());
    return 1;
  }

  repl::FailoverCoordinator::Peer initial_primary;
  if (!cfg.primary.empty() &&
      !ParseHostPort(cfg.primary, &initial_primary.host,
                     &initial_primary.port)) {
    std::fprintf(stderr, "--replica-of wants HOST:PORT, got %s\n",
                 cfg.primary.c_str());
    return 1;
  }

  std::unique_ptr<repl::ReplicaApplier> applier;
  std::unique_ptr<repl::FailoverCoordinator> coordinator;
  if (!cfg.peers.empty()) {
    // Failover cluster: the coordinator owns this node's applier and
    // flips roles as the cluster evolves.
    repl::FailoverCoordinator::Options fopts;
    fopts.initial_primary = initial_primary;
    fopts.probe_interval = std::chrono::milliseconds(cfg.probe_ms);
    fopts.liveness_misses = cfg.liveness;
    fopts.applier.replica_id = cfg.node_id;
    for (const std::string& p : cfg.peers) {
      repl::FailoverCoordinator::Peer peer;
      if (!ParseHostPort(p, &peer.host, &peer.port)) {
        std::fprintf(stderr, "--peer wants HOST:PORT, got %s\n", p.c_str());
        return 1;
      }
      fopts.peers.push_back(peer);
    }
    coordinator = std::make_unique<repl::FailoverCoordinator>(
        engine, &server, std::move(fopts));
    Status st = coordinator->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "coordinator start: %s\n", st.ToString().c_str());
      return 1;
    }
  } else if (!cfg.primary.empty()) {
    repl::ReplicaApplier::Options ropts;
    ropts.replica_id = cfg.node_id;
    ropts.primary_host = initial_primary.host;
    ropts.primary_port = initial_primary.port;
    applier = std::make_unique<repl::ReplicaApplier>(engine, ropts);
    Status st = applier->Start(server.scheduler());
    if (!st.ok()) {
      std::fprintf(stderr, "replica start: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::printf("SSDM serving on 127.0.0.1:%d (%s, lsn=%llu)\n", *bound,
              cfg.primary.empty()
                  ? "primary"
                  : ("replica of " + cfg.primary).c_str(),
              static_cast<unsigned long long>(engine->last_lsn()));
  std::fflush(stdout);
  WaitForStop();
  if (coordinator != nullptr) coordinator->Stop();
  if (applier != nullptr) applier->Stop();
  server.Stop();
  std::printf("scheduler: %s\n", server.scheduler_stats().ToString().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace scisparql;
  SSDM engine;
  engine.prefixes().Set("ex", "http://example.org/");

  if (argc > 1) {
    ServeConfig cfg;
    std::vector<const char*> files;
    bool flags_seen = false;
    if (IsNumber(argv[1])) {
      // Legacy positional form: <port> [file.ttl ...].
      cfg.port = std::atoi(argv[1]);
      for (int i = 2; i < argc; ++i) files.push_back(argv[i]);
    } else {
      for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
          return i + 1 < argc ? argv[++i] : "";
        };
        if (a == "--port") {
          cfg.port = std::atoi(next());
          flags_seen = true;
        } else if (a == "--open") {
          cfg.open_dir = next();
          flags_seen = true;
        } else if (a == "--replica-of") {
          cfg.primary = next();
          flags_seen = true;
        } else if (a == "--id") {
          cfg.node_id = next();
          flags_seen = true;
        } else if (a == "--peer") {
          cfg.peers.push_back(next());
          flags_seen = true;
        } else if (a == "--probe-ms") {
          cfg.probe_ms = std::atoi(next());
          flags_seen = true;
        } else if (a == "--liveness") {
          cfg.liveness = std::atoi(next());
          flags_seen = true;
        } else if (a == "--fence-ms") {
          cfg.fence_ms = std::atoi(next());
          flags_seen = true;
        } else if (a == "--sync-ack-ms") {
          cfg.sync_ack_ms = std::atoi(next());
          flags_seen = true;
        } else {
          files.push_back(argv[i]);
        }
      }
      if (!flags_seen) {
        std::fprintf(stderr,
                     "usage: scisparql_server [--port N] [--open DIR] "
                     "[--replica-of HOST:PORT] [--id NAME] "
                     "[--peer HOST:PORT ...] [--probe-ms N] [--liveness N] "
                     "[--fence-ms N] [--sync-ack-ms N] [file.ttl ...]\n");
        return 2;
      }
    }
    for (const char* f : files) {
      Status st = engine.LoadTurtleFile(f);
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
    }
    return ServeForever(&engine, cfg);
  }

  // --- Self-contained demo. ---
  Status st = engine.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:sensor1 ex:site "roof" ; ex:readings (20.5 21.0 22.4 21.8) .
ex:sensor2 ex:site "basement" ; ex:readings (14.0 14.2 13.9 14.1) .
)");
  if (!st.ok()) return 1;

  client::SsdmServer server(&engine);
  auto port = server.Start(0);
  if (!port.ok()) {
    std::fprintf(stderr, "%s\n", port.status().ToString().c_str());
    return 1;
  }
  std::printf("server up on 127.0.0.1:%d\n\n", *port);

  auto session = client::RemoteSession::Connect("127.0.0.1", *port);
  if (!session.ok()) return 1;

  auto rows = session->Query(R"(
PREFIX ex: <http://example.org/>
SELECT ?site (AAVG(?r) AS ?mean) (?r[1] AS ?first)
WHERE { ?s ex:site ?site ; ex:readings ?r }
ORDER BY ?site)");
  if (!rows.ok()) {
    std::fprintf(stderr, "%s\n", rows.status().ToString().c_str());
    return 1;
  }
  std::printf("remote SELECT (arrays travel materialized):\n%s\n",
              rows->ToTable().c_str());

  (void)session->Run(
      "PREFIX ex: <http://example.org/> "
      "INSERT DATA { ex:sensor3 ex:site \"attic\" }");
  bool found = *session->Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:sensor3 ex:site ?x }");
  std::printf("remote update visible: %s\n", found ? "yes" : "no");
  std::printf("requests served: %llu\n",
              static_cast<unsigned long long>(server.requests_served()));
  auto stats = session->Stats();
  if (stats.ok()) std::printf("%s", stats->c_str());
  return 0;
}
