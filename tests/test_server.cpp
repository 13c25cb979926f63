#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "client/protocol.h"
#include "client/server.h"
#include "query_helpers.h"

namespace scisparql {
namespace client {
namespace {

TEST(Protocol, TermRoundTripAllKinds) {
  std::vector<Term> terms = {
      Term(),
      Term::Iri("http://x/y"),
      Term::Blank("b1"),
      Term::String("plain"),
      Term::LangString("chat", "fr"),
      Term::Integer(-42),
      Term::Double(3.25),
      Term::Boolean(true),
      Term::TypedLiteral("2020-01-01", "http://dt"),
      Term::Array(ResidentArray::Make(
          *NumericArray::FromInts({2, 2}, {1, 2, 3, 4}))),
      Term::Array(ResidentArray::Make(
          *NumericArray::FromDoubles({3}, {0.5, 1.5, 2.5}))),
  };
  for (const Term& t : terms) {
    std::string buf;
    ASSERT_TRUE(SerializeTerm(t, &buf).ok());
    size_t pos = 0;
    Term back = *DeserializeTerm(buf, &pos);
    EXPECT_EQ(pos, buf.size()) << t.ToString();
    EXPECT_EQ(back.kind(), t.kind()) << t.ToString();
    if (!t.IsUndef()) {
      EXPECT_EQ(back, t) << t.ToString();
    }
  }
}

TEST(Protocol, ResultRoundTrip) {
  sparql::QueryResult r;
  r.columns = {"a", "b"};
  r.rows.push_back({Term::Integer(1), Term::String("x")});
  r.rows.push_back({Term(), Term::Double(2.5)});
  auto back = *DeserializeResult(SerializeResult(r));
  EXPECT_EQ(back.columns, r.columns);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0][0], Term::Integer(1));
  EXPECT_TRUE(back.rows[1][0].IsUndef());
}

TEST(Protocol, TruncatedInputRejected) {
  std::string buf;
  ASSERT_TRUE(SerializeTerm(Term::String("hello"), &buf).ok());
  for (size_t cut = 1; cut < buf.size(); ++cut) {
    size_t pos = 0;
    std::string partial = buf.substr(0, cut);
    EXPECT_FALSE(DeserializeTerm(partial, &pos).ok()) << cut;
  }
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine_.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(engine_.LoadTurtleString(R"(
@prefix ex: <http://example.org/> .
ex:a ex:score 10 . ex:b ex:score 20 .
ex:m ex:data ((1 2) (3 4)) .
)").ok());
    server_ = std::make_unique<SsdmServer>(&engine_);
    auto port = server_->Start(0);
    ASSERT_TRUE(port.ok()) << port.status().ToString();
    port_ = *port;
  }

  void TearDown() override { server_->Stop(); }

  SSDM engine_;
  std::unique_ptr<SsdmServer> server_;
  int port_ = 0;
};

TEST_F(ServerTest, RemoteSelect) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?v WHERE { ?s ex:score ?v } ORDER BY ?v");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 2u);
  EXPECT_EQ(r->rows[0][0], Term::Integer(10));
}

TEST_F(ServerTest, RemoteArrayResultsMaterialize) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT ?a (ASUM(?a) AS ?s) WHERE { ex:m ex:data ?a }");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->rows.size(), 1u);
  ASSERT_TRUE(r->rows[0][0].IsArray());
  EXPECT_TRUE(r->rows[0][0].array()->resident());
  EXPECT_EQ(r->rows[0][0].array()->Materialize()->ToString(),
            "[[1, 2], [3, 4]]");
  EXPECT_EQ(r->rows[0][1], Term::Double(10));
}

TEST_F(ServerTest, RemoteAskAndUpdate) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  EXPECT_FALSE(*session.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
  ASSERT_TRUE(session.Run("PREFIX ex: <http://example.org/> "
                          "INSERT DATA { ex:c ex:score 30 }")
                  .ok());
  EXPECT_TRUE(*session.Ask(
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
  // The update really landed in the shared server-side engine.
  EXPECT_TRUE(*Ask(engine_, 
      "PREFIX ex: <http://example.org/> ASK { ex:c ex:score 30 }"));
}

TEST_F(ServerTest, RemoteConstructReturnsTurtle) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto ttl = session.Run(
      "PREFIX ex: <http://example.org/> "
      "CONSTRUCT { ?s ex:double ?v } WHERE { ?s ex:score ?v }");
  ASSERT_TRUE(ttl.ok()) << ttl.status().ToString();
  EXPECT_NE(ttl->find("double"), std::string::npos);
}

TEST_F(ServerTest, RemoteErrorsPropagate) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query("SELECT garbage");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
}

TEST_F(ServerTest, SequentialConnections) {
  for (int i = 0; i < 3; ++i) {
    auto session = *RemoteSession::Connect("127.0.0.1", port_);
    auto r = session.Query(
        "PREFIX ex: <http://example.org/> "
        "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:score ?v }");
    ASSERT_TRUE(r.ok());
  }
  EXPECT_GE(server_->requests_served(), 3u);
}

TEST_F(ServerTest, ConcurrentClientsSelect) {
  // N client threads, each its own connection, each running M SELECTs.
  // Every response must be complete and correct — framing intact under
  // interleaved connections, results consistent under the shared lock.
  constexpr int kClients = 6;
  constexpr int kQueriesEach = 8;
  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      auto session = RemoteSession::Connect("127.0.0.1", port_);
      if (!session.ok()) return;
      for (int i = 0; i < kQueriesEach; ++i) {
        auto r = session->Query(
            "PREFIX ex: <http://example.org/> "
            "SELECT ?v WHERE { ?s ex:score ?v } ORDER BY ?v");
        if (r.ok() && r->rows.size() == 2 &&
            r->rows[0][0] == Term::Integer(10) &&
            r->rows[1][0] == Term::Integer(20)) {
          ++ok_count;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), kClients * kQueriesEach);
  EXPECT_GE(server_->requests_served(),
            static_cast<uint64_t>(kClients * kQueriesEach));
  EXPECT_GE(server_->scheduler_stats().completed,
            static_cast<uint64_t>(kClients * kQueriesEach));
}

TEST_F(ServerTest, ConcurrentReadersAndWriter) {
  // A writer alternates score values over one connection while reader
  // connections watch: every read must see exactly 2 score triples.
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&] {
      auto session = RemoteSession::Connect("127.0.0.1", port_);
      if (!session.ok()) return;
      while (!stop.load()) {
        auto r = session->Query(
            "PREFIX ex: <http://example.org/> "
            "SELECT (COUNT(*) AS ?n) WHERE { ?s ex:score ?v }");
        if (r.ok() && r->rows[0][0] != Term::Integer(2)) ++bad;
      }
    });
  }
  auto writer = *RemoteSession::Connect("127.0.0.1", port_);
  for (int i = 0; i < 10; ++i) {
    auto r = writer.Run(
        "PREFIX ex: <http://example.org/> "
        "DELETE { ?s ex:score ?v } INSERT { ?s ex:score ?v } "
        "WHERE { ?s ex:score ?v }");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  stop = true;
  for (auto& t : readers) t.join();
  EXPECT_EQ(bad.load(), 0);
}

TEST_F(ServerTest, StatsVerb) {
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  ASSERT_TRUE(session
                  .Query("PREFIX ex: <http://example.org/> "
                         "SELECT ?v WHERE { ?s ex:score ?v }")
                  .ok());
  auto stats = session.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("admitted="), std::string::npos);
  EXPECT_NE(stats->find("reads="), std::string::npos);
  EXPECT_NE(stats->find("queue_high_water="), std::string::npos);
}

TEST_F(ServerTest, StatsVerbNormalizesWhitespaceAndCase) {
  // The engine recognizes the STATS verb trimmed and case-insensitively;
  // the server's scheduler line must follow the same rule, or " stats "
  // would come back without the scheduler counters.
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto out = session.Execute(QueryRequest("  stats \n"));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->kind(), QueryOutcome::Kind::kInfo);
  EXPECT_EQ(out->info().rfind("scheduler:", 0), 0u) << out->info();
  EXPECT_NE(out->info().find("admitted="), std::string::npos) << out->info();
}

TEST_F(ServerTest, UnmarkedFrameIsRejectedAndServerKeepsServing) {
  // The server speaks one request form: a frame without the structured
  // (0x01) or replication (0x02) marker gets an InvalidArgument error.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port_));
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  auto read_exact = [&](void* buf, size_t n) {
    uint8_t* p = static_cast<uint8_t*>(buf);
    while (n > 0) {
      ssize_t r = ::recv(fd, p, n, 0);
      if (r <= 0) return false;
      p += r;
      n -= static_cast<size_t>(r);
    }
    return true;
  };
  for (const std::string& request :
       {std::string("  stats \n"), std::string("SELECT * WHERE { ?s ?p ?o }"),
        std::string()}) {
    std::string framed = Frame(request);
    ASSERT_EQ(::send(fd, framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
    uint32_t len = 0;
    ASSERT_TRUE(read_exact(&len, 4));
    std::string payload(len, '\0');
    ASSERT_TRUE(read_exact(payload.data(), len));
    ASSERT_GE(payload.size(), 2u);
    EXPECT_EQ(payload[0], 'E') << payload;
    EXPECT_EQ(static_cast<StatusCode>(payload[1]),
              StatusCode::kInvalidArgument)
        << payload;
  }
  ::close(fd);
  // The server survived and still answers structured requests.
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto rows = session.Query(
      "PREFIX ex: <http://example.org/> SELECT ?v WHERE { ?s ex:score ?v }");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_FALSE(rows->rows.empty());
}

TEST_F(ServerTest, RemoteDeadlineExceeded) {
  // A per-statement deadline inside the query text's context: use the
  // scheduler's default timeout instead — restart the server with one.
  server_->Stop();
  SsdmServer::Options options;
  options.sched.default_timeout = std::chrono::milliseconds(25);
  engine_.RegisterForeign(
      "http://example.org/nap",
      [](std::span<const Term> args) -> Result<Term> {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return args[0];
      },
      1);
  // Enough rows that the amortized interrupt checks fire mid-query.
  std::string ttl = "@prefix ex: <http://example.org/> .\n";
  for (int i = 0; i < 300; ++i) {
    ttl += "ex:row" + std::to_string(i) + " ex:val " + std::to_string(i) +
           " .\n";
  }
  ASSERT_TRUE(engine_.LoadTurtleString(ttl).ok());
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:nap(?v) AS ?x) WHERE { ?s ex:val ?v }");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  // The engine lock was released: a remote update still succeeds.
  EXPECT_TRUE(session
                  .Run("PREFIX ex: <http://example.org/> "
                       "INSERT DATA { ex:after ex:val 1 }")
                  .ok());
  EXPECT_GE(server_->scheduler_stats().timed_out, 1u);
}

TEST_F(ServerTest, OverloadedServerRejectsCleanly) {
  // Rebuild the server with one worker and a one-slot queue; block the
  // worker with a gated foreign function and verify the third client gets
  // the documented Unavailable("server overloaded") error.
  server_->Stop();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  int entered = 0;
  engine_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        ++entered;
        cv.notify_all();
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return args[0];
      },
      1);
  SsdmServer::Options options;
  options.sched.workers = 1;
  options.sched.queue_capacity = 1;
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  const std::string slow =
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }";
  auto run_slow = [&] {
    auto session = RemoteSession::Connect("127.0.0.1", port_);
    ASSERT_TRUE(session.ok());
    auto r = session->Query(slow);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
  };
  std::thread t1(run_slow);
  {  // Worker is busy inside the gate…
    std::unique_lock<std::mutex> lock(mu);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return entered >= 1; }));
  }
  std::thread t2(run_slow);  // …this one fills the queue…
  while (server_->scheduler_stats().queue_depth < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // …and this one must be turned away with a clean overload error.
  auto session = *RemoteSession::Connect("127.0.0.1", port_);
  auto r = session.Query(slow);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(r.status().message().find("overloaded"), std::string::npos);

  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
  t1.join();
  t2.join();
  EXPECT_GE(server_->scheduler_stats().rejected, 1u);
}

TEST_F(ServerTest, ClientReceiveTimeout) {
  // A client-side SO_RCVTIMEO bounds the wait for a slow server: block
  // the only worker, then watch a 100 ms-timeout client give up with
  // DeadlineExceeded instead of hanging.
  server_->Stop();
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  engine_.RegisterForeign(
      "http://example.org/gate",
      [&](std::span<const Term> args) -> Result<Term> {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait_for(lock, std::chrono::seconds(5), [&] { return release; });
        return args[0];
      },
      1);
  SsdmServer::Options options;
  options.sched.workers = 1;
  server_ = std::make_unique<SsdmServer>(&engine_, options);
  port_ = *server_->Start(0);

  auto session = RemoteSession::Connect("127.0.0.1", port_,
                                        std::chrono::milliseconds(100));
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  auto start = std::chrono::steady_clock::now();
  auto r = session->Query(
      "PREFIX ex: <http://example.org/> "
      "SELECT (ex:gate(1) AS ?x) WHERE { }");
  auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kDeadlineExceeded)
      << r.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(3));
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
    cv.notify_all();
  }
}

TEST(ServerLifecycle, StopIsIdempotent) {
  SSDM engine;
  SsdmServer server(&engine);
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  server.Stop();
}

TEST(ServerLifecycle, ConnectToClosedPortFails) {
  SSDM engine;
  int dead_port;
  {
    SsdmServer server(&engine);
    dead_port = *server.Start(0);
  }
  EXPECT_FALSE(RemoteSession::Connect("127.0.0.1", dead_port).ok());
}

TEST(RemoteRetry, ConnectReportsAttemptCountOnRefusedPort) {
  // Find a port with nothing listening by binding-then-closing a listener.
  SSDM engine;
  int dead_port;
  {
    SsdmServer server(&engine);
    dead_port = *server.Start(0);
  }
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 2;
  retry.initial_backoff = std::chrono::milliseconds(5);
  auto session = RemoteSession::Connect(
      "127.0.0.1", dead_port, std::chrono::milliseconds(500), retry);
  ASSERT_FALSE(session.ok());
  EXPECT_NE(session.status().message().find("after 2 attempts"),
            std::string::npos);
}

TEST(RemoteRetry, BadAddressFailsWithoutRetry) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 5;
  retry.initial_backoff = std::chrono::milliseconds(50);
  auto start = std::chrono::steady_clock::now();
  auto session = RemoteSession::Connect(
      "not-an-ip", 1, std::chrono::milliseconds(0), retry);
  ASSERT_FALSE(session.ok());
  EXPECT_EQ(session.status().code(), StatusCode::kInvalidArgument);
  // No backoff sleeps: a bad address cannot heal, so it must fail fast.
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(50));
}

TEST_F(ServerTest, ReadResendsAfterServerRestart) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(10);
  auto session = *RemoteSession::Connect(
      "127.0.0.1", port_, std::chrono::milliseconds(2000), retry);
  const std::string query =
      "PREFIX ex: <http://example.org/> SELECT ?s WHERE { ?s ex:score 10 }";
  ASSERT_TRUE(session.Query(query).ok());

  // Bounce the server on the same port: the session's connection is dead,
  // but a read-class statement transparently reconnects and resends.
  server_->Stop();
  server_ = std::make_unique<SsdmServer>(&engine_);
  ASSERT_TRUE(server_->Start(port_).ok());
  auto rows = session.Query(query);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->rows.size(), 1u);
}

TEST_F(ServerTest, UpdateIsNotResentOverBrokenConnection) {
  RemoteSession::RetryOptions retry;
  retry.max_attempts = 4;
  retry.initial_backoff = std::chrono::milliseconds(10);
  auto session = *RemoteSession::Connect(
      "127.0.0.1", port_, std::chrono::milliseconds(2000), retry);
  server_->Stop();
  server_ = std::make_unique<SsdmServer>(&engine_);
  ASSERT_TRUE(server_->Start(port_).ok());
  // Updates are not idempotent, so the broken connection surfaces as an
  // error instead of a silent double-apply.
  auto run = session.Run(
      "PREFIX ex: <http://example.org/> INSERT DATA { ex:r ex:score 1 }");
  EXPECT_FALSE(run.ok());
}

}  // namespace
}  // namespace client
}  // namespace scisparql
