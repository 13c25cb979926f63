#ifndef SCISPARQL_REPL_WIRE_H_
#define SCISPARQL_REPL_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "storage/snapshot.h"

namespace scisparql {
namespace client {
class RemoteSession;
}  // namespace client

namespace repl {

/// Replication wire protocol, layered on the existing length-prefixed
/// frames of the client protocol (client/protocol.h). A request payload
/// whose first byte is 0x02 is a replication request — no SciSPARQL
/// statement starts with that byte, and the structured-query marker is
/// 0x01, so the three request families share one frame format and one
/// server port.
///
///   requests:  [0x02]['L']                                  LSN probe
///              [0x02]['F'][string replica_id][u64 after_lsn]
///                         [u64 applied_lsn][u32 max_bytes]
///                         [u64 term]                         fetch batches
///              [0x02]['S']                                  snapshot
///   responses: [0x02]['A'][u64 lsn][u8 role][u64 term]
///                         [string node_id]                   probe reply
///              [0x02]['B'][u64 primary_lsn][u64 last_lsn]
///                         [u8 truncated][string frames]
///                         [u64 term]                         batch reply
///              [0x02]['T'][snapshot body]                   snapshot reply
///
/// Errors reuse the query protocol's 'E' payload (status code byte +
/// message), so RemoteSession's error mapping applies unchanged. The
/// fetch reply's `frames` are raw committed WAL batches exactly as they
/// appear in the primary's segment files — CRC32C framing included — so a
/// durable replica can write them through byte-identically and replay
/// stays on one shared code path. `after_lsn` past the primary's WAL
/// retention answers OutOfRange: the replica must bootstrap from a
/// snapshot ('S') and resume the stream at the snapshot's LSN.
///
/// Every reply carries the answering node's fencing term; a fetch carries
/// the replica's, and a primary holding a NEWER term answers WrongTerm —
/// the replica is streaming from a deposed timeline and must re-discover.
///
/// The snapshot body is also the payload of the engine's `REPL SNAPSHOT`
/// Info outcome (the shipper wraps it in the 'T' envelope):
///
///   [u64 lsn][u32 n]([string graph_iri][string body])*[u64 term]
///
/// ("" = default graph; each section body is the checkpoint's
/// dictionary-encoded section, storage/dict_section.h; the trailing term
/// is absent in pre-failover snapshots and decodes as 0.)

constexpr char kReplMarker = '\x02';

constexpr char kReplProbe = 'L';
constexpr char kReplFetch = 'F';
constexpr char kReplSnapshot = 'S';

constexpr char kReplProbeReply = 'A';
constexpr char kReplBatchReply = 'B';
constexpr char kReplSnapshotReply = 'T';

/// Fetch request: "ship me committed batches past `after_lsn`". The
/// replica reports its identity and applied LSN so the primary's shipper
/// can account lag per replica without a separate heartbeat verb.
struct ReplFetchRequest {
  std::string replica_id;
  uint64_t after_lsn = 0;
  uint64_t applied_lsn = 0;
  uint32_t max_bytes = 4u << 20;
  uint64_t term = 0;  ///< The replica's fencing term (0 = don't care).
};

struct ReplProbeReply {
  uint64_t lsn = 0;
  bool replica = false;   ///< Role of the answering engine.
  uint64_t term = 0;      ///< The answering engine's fencing term.
  std::string node_id;    ///< Stable identity (election tie-breaks).
};

struct ReplBatchReply {
  uint64_t primary_lsn = 0;  ///< Primary's LSN at reply time (lag basis).
  uint64_t last_lsn = 0;     ///< Commit LSN of the final shipped batch.
  bool truncated = false;    ///< max_bytes cut the run short; fetch again.
  std::string frames;        ///< Raw WAL frames; empty = caught up.
  uint64_t term = 0;         ///< The shipper's fencing term at reply time.
};

struct ReplSnapshotReply {
  uint64_t lsn = 0;
  uint64_t term = 0;
  std::vector<storage::SnapshotSection> sections;
};

std::string EncodeProbeRequest();
std::string EncodeFetchRequest(const ReplFetchRequest& req);
std::string EncodeSnapshotRequest();
Result<ReplFetchRequest> DecodeFetchRequest(const std::string& payload);

std::string EncodeProbeReply(const ReplProbeReply& reply);
std::string EncodeBatchReply(const ReplBatchReply& reply);
Result<ReplProbeReply> DecodeProbeReply(const std::string& payload);
Result<ReplBatchReply> DecodeBatchReply(const std::string& payload);

/// The snapshot body (without the 0x02/'T' envelope) — produced by the
/// engine's REPL SNAPSHOT statement, consumed by
/// SSDM::BootstrapFromReplication.
std::string EncodeSnapshotBody(
    const std::vector<storage::SnapshotSection>& sections, uint64_t lsn,
    uint64_t term);
Status DecodeSnapshotBody(const std::string& body,
                          std::vector<storage::SnapshotSection>* sections,
                          uint64_t* lsn, uint64_t* term);

std::string EncodeSnapshotReply(const ReplSnapshotReply& reply);
Result<ReplSnapshotReply> DecodeSnapshotReply(const std::string& payload);

/// Round-trip helpers over an established RemoteSession. Probe and fetch
/// are idempotent, so they ride the session's read-retry policy.
Result<ReplProbeReply> ProbeLsn(client::RemoteSession* session);
Result<ReplBatchReply> FetchBatch(client::RemoteSession* session,
                                  const ReplFetchRequest& req);
Result<ReplSnapshotReply> FetchSnapshot(client::RemoteSession* session);

}  // namespace repl
}  // namespace scisparql

#endif  // SCISPARQL_REPL_WIRE_H_
