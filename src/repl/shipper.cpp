#include "repl/shipper.h"

#include "engine/durability.h"
#include "obs/metrics.h"
#include "sched/scheduler.h"
#include "storage/wal.h"

namespace scisparql {
namespace repl {

namespace {

obs::Counter& FetchCounter() {
  return obs::DefaultMetrics().GetCounter(
      "ssdm_repl_fetches_total", "",
      "Replication fetch requests served by the WAL shipper.");
}

obs::Counter& ShippedBytesCounter() {
  return obs::DefaultMetrics().GetCounter(
      "ssdm_repl_bytes_shipped_total", "",
      "Raw WAL bytes shipped to replicas.");
}

obs::Counter& SnapshotCounter() {
  return obs::DefaultMetrics().GetCounter(
      "ssdm_repl_snapshots_shipped_total", "",
      "Bootstrap snapshots shipped to replicas that fell behind WAL "
      "retention.");
}

obs::Gauge& PrimaryLsnGauge() {
  return obs::DefaultMetrics().GetGauge(
      "ssdm_repl_primary_lsn", "",
      "The primary's durable LSN as of the last replication request.");
}

obs::Gauge& ReplicaLsnGauge(const std::string& id) {
  return obs::DefaultMetrics().GetGauge(
      "ssdm_repl_replica_applied_lsn", "replica=\"" + id + "\"",
      "Last applied LSN each replica reported with its fetch.");
}

obs::Gauge& ReplicaLagGauge(const std::string& id) {
  return obs::DefaultMetrics().GetGauge(
      "ssdm_repl_replica_lag", "replica=\"" + id + "\"",
      "Primary durable LSN minus the replica's applied LSN, per replica.");
}

obs::Counter& WrongTermCounter() {
  return obs::DefaultMetrics().GetCounter(
      "ssdm_repl_wrong_term_total", "",
      "Replication requests rejected for carrying a stale fencing term.");
}

}  // namespace

WalShipper::WalShipper(SSDM* engine) : engine_(engine) {}

Result<std::string> WalShipper::Handle(const std::string& request,
                                       sched::QueryScheduler* sched) {
  if (request.size() < 2 || request[0] != kReplMarker) {
    return Status::IoError("malformed replication request");
  }
  switch (request[1]) {
    case kReplProbe: {
      ReplProbeReply reply;
      reply.lsn = engine_->last_lsn();
      reply.replica = engine_->replica_mode();
      reply.term = engine_->term();
      reply.node_id = engine_->node_id();
      return EncodeProbeReply(reply);
    }
    case kReplFetch:
      return HandleFetch(request);
    case kReplSnapshot:
      return HandleSnapshot(sched);
    default:
      return Status::InvalidArgument("unknown replication verb");
  }
}

Result<std::string> WalShipper::HandleFetch(const std::string& request) {
  SCISPARQL_ASSIGN_OR_RETURN(ReplFetchRequest req,
                             DecodeFetchRequest(request));
  // A fetch from the future: some node promoted past us. Refuse — our WAL
  // may already have diverged from the new timeline — and wake the
  // coordinator so this node demotes instead of shipping stale history.
  if (req.term > engine_->term()) {
    WrongTermCounter().Add();
    std::function<void(uint64_t)> stale;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stale = on_stale_term_;
    }
    if (stale) stale(req.term);
    return Status::WrongTerm(
        "fetch term " + std::to_string(req.term) +
        " is newer than this node's term " + std::to_string(engine_->term()));
  }
  engine::DurabilityManager* dm = engine_->durability();
  if (dm == nullptr) {
    return Status::FailedPrecondition(
        "engine has no durable store: nothing to ship (call Open() on the "
        "primary first)");
  }
  // The durable LSN is the shipping horizon: every batch at or below it is
  // fully on disk (written and fsynced before the LSN advanced), so the
  // segment scan below cannot hand out more than recovery would replay.
  const uint64_t durable = engine_->last_lsn();
  ReplBatchReply reply;
  reply.primary_lsn = durable;
  reply.last_lsn = req.after_lsn;
  if (req.after_lsn < durable) {
    SCISPARQL_ASSIGN_OR_RETURN(
        storage::WalShipment shipment,
        storage::ReadWalShipment(dm->vfs(), dm->wal_dir(), req.after_lsn,
                                 req.max_bytes));
    reply.last_lsn = shipment.last_lsn;
    reply.truncated = shipment.truncated;
    reply.frames = std::move(shipment.frames);
  }
  reply.term = engine_->term();
  FetchCounter().Add();
  ShippedBytesCounter().Add(reply.frames.size());
  NoteReplica(req, reply.last_lsn, durable);
  return EncodeBatchReply(reply);
}

Result<std::string> WalShipper::HandleSnapshot(
    sched::QueryScheduler* sched) {
  // The engine renders the export itself under the exclusive lock the
  // scheduler grants REPL SNAPSHOT, so its content and LSN agree.
  QueryRequest req;
  req.text = "REPL SNAPSHOT";
  Result<QueryOutcome> out =
      sched != nullptr
          ? sched->Execute(std::move(req))
          : engine_->Execute(req, nullptr);
  SCISPARQL_RETURN_NOT_OK(out.status());
  if (out->kind() != QueryOutcome::Kind::kInfo) {
    return Status::Internal("REPL SNAPSHOT returned a non-Info outcome");
  }
  SnapshotCounter().Add();
  std::string payload;
  payload.push_back(kReplMarker);
  payload.push_back(kReplSnapshotReply);
  payload += out->info();
  return payload;
}

void WalShipper::NoteReplica(const ReplFetchRequest& req,
                             uint64_t shipped_lsn, uint64_t primary_lsn) {
  PrimaryLsnGauge().Set(static_cast<int64_t>(primary_lsn));
  if (req.replica_id.empty()) return;
  ReplicaLsnGauge(req.replica_id)
      .Set(static_cast<int64_t>(req.applied_lsn));
  ReplicaLagGauge(req.replica_id)
      .Set(static_cast<int64_t>(
          primary_lsn > req.applied_lsn ? primary_lsn - req.applied_lsn : 0));
  std::lock_guard<std::mutex> lock(mu_);
  ReplicaState& state = replicas_[req.replica_id];
  state.applied_lsn = req.applied_lsn;
  state.shipped_lsn = shipped_lsn;
  ++state.fetches;
  state.last_seen = std::chrono::steady_clock::now();
  last_fetch_ = state.last_seen;
  if (req.applied_lsn > max_applied_lsn_) max_applied_lsn_ = req.applied_lsn;
  cv_.notify_all();
}

void WalShipper::set_on_stale_term(std::function<void(uint64_t)> fn) {
  std::lock_guard<std::mutex> lock(mu_);
  on_stale_term_ = std::move(fn);
}

bool WalShipper::WaitForReplicaLsn(uint64_t lsn,
                                   std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lock(mu_);
  return cv_.wait_for(lock, timeout,
                      [&] { return max_applied_lsn_ >= lsn; });
}

bool WalShipper::FencedOut(std::chrono::milliseconds window) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (replicas_.empty()) return false;
  return std::chrono::steady_clock::now() - last_fetch_ > window;
}

std::vector<std::pair<std::string, WalShipper::ReplicaState>>
WalShipper::replicas() const {
  std::lock_guard<std::mutex> lock(mu_);
  return {replicas_.begin(), replicas_.end()};
}

}  // namespace repl
}  // namespace scisparql
