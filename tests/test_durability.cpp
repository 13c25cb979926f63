// Durability subsystem tests: crash-matrix recovery over the fault-
// injecting VFS, WAL replay properties, torn-tail handling, corrupted-
// snapshot fallback, and read-only degradation after media failure.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/durability.h"
#include "engine/ssdm.h"
#include "storage/fault_fs.h"
#include "storage/snapshot.h"
#include "storage/vfs.h"
#include "storage/wal.h"
#include "query_helpers.h"

namespace scisparql {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  (void)::system(("rm -rf " + dir).c_str());
  return dir;
}

Term I(const std::string& local) {
  return Term::Iri("http://example.org/" + local);
}

// ---------------------------------------------------------------------------
// WAL-level properties.
// ---------------------------------------------------------------------------

TEST(Wal, ReplayFiltersByLsnSoRecoveryIsRepeatable) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = FreshDir("wal_replay_prop");
  ASSERT_TRUE(vfs->CreateDir(dir).ok());
  auto wal = *storage::WalWriter::Create(vfs, dir, 1);

  // Three committed batches: adds, a remove, and a clear.
  std::vector<storage::WalRecord> b1 = {
      {storage::WalRecord::Type::kAdd, 0, "", Triple{I("a"), I("p"), I("b")}},
      {storage::WalRecord::Type::kAdd, 0, "", Triple{I("a"), I("p"), I("c")}}};
  ASSERT_TRUE(wal->AppendBatch(b1).ok());
  std::vector<storage::WalRecord> b2 = {
      {storage::WalRecord::Type::kRemove, 0, "",
       Triple{I("a"), I("p"), I("b")}}};
  ASSERT_TRUE(wal->AppendBatch(b2).ok());
  std::vector<storage::WalRecord> b3 = {
      {storage::WalRecord::Type::kAdd, 0, "g", Triple{I("x"), I("q"), I("y")}}};
  ASSERT_TRUE(wal->AppendBatch(b3).ok());

  auto resolve = [](const std::string&, uint64_t) -> Result<Term> {
    return Status::Internal("no proxies in this test");
  };
  auto apply_into = [](Graph* def, Graph* named) {
    return [def, named](const storage::WalRecord& rec) -> Status {
      Graph* g = rec.graph.empty() ? def : named;
      WriteBatch batch;
      if (rec.type == storage::WalRecord::Type::kAdd) batch.Add(rec.triple);
      if (rec.type == storage::WalRecord::Type::kRemove) {
        batch.RemoveAll(rec.triple);
      }
      g->Apply(std::move(batch));
      return Status::OK();
    };
  };

  // One full replay.
  Graph a_def, a_named;
  auto s1 = *storage::ReplayWal(vfs, dir, 0, resolve,
                                apply_into(&a_def, &a_named));
  EXPECT_EQ(s1.batches_applied, 3u);
  EXPECT_FALSE(s1.torn_tail);
  EXPECT_EQ(a_def.size(), 1u);    // b, c added; b removed
  EXPECT_EQ(a_named.size(), 1u);

  // Re-running replay past the already-applied LSN applies nothing — the
  // property that makes recovery safe to repeat after a crash mid-restart.
  auto s2 = *storage::ReplayWal(vfs, dir, s1.last_lsn, resolve,
                                apply_into(&a_def, &a_named));
  EXPECT_EQ(s2.records_applied, 0u);
  EXPECT_EQ(a_def.size(), 1u);
  EXPECT_EQ(a_named.size(), 1u);

  // A partial prefix (snapshot at b1's last LSN) plus the remainder gives
  // the same final state as one full replay.
  Graph c_def, c_named;
  auto p1 = *storage::ReplayWal(vfs, dir, 0, resolve,
                                apply_into(&c_def, &c_named));
  (void)p1;
  Graph d_def, d_named;
  WriteBatch as_of_lsn2;
  as_of_lsn2.Add(Triple{I("a"), I("p"), I("b")});
  as_of_lsn2.Add(Triple{I("a"), I("p"), I("c")});
  d_def.Apply(std::move(as_of_lsn2));
  auto p2 = *storage::ReplayWal(vfs, dir, 2, resolve,
                                apply_into(&d_def, &d_named));
  EXPECT_GT(p2.records_skipped, 0u);
  EXPECT_EQ(c_def.size(), d_def.size());
  EXPECT_EQ(c_named.size(), d_named.size());
}

TEST(Wal, TornTailStopsCleanlyAndKeepsCommittedBatches) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = FreshDir("wal_torn_tail");
  ASSERT_TRUE(vfs->CreateDir(dir).ok());
  auto wal = *storage::WalWriter::Create(vfs, dir, 1);
  std::vector<storage::WalRecord> b1 = {
      {storage::WalRecord::Type::kAdd, 0, "", Triple{I("a"), I("p"), I("b")}}};
  ASSERT_TRUE(wal->AppendBatch(b1).ok());
  std::vector<storage::WalRecord> b2 = {
      {storage::WalRecord::Type::kAdd, 0, "", Triple{I("a"), I("p"), I("c")}}};
  ASSERT_TRUE(wal->AppendBatch(b2).ok());

  // Tear the final batch: chop a few bytes off the segment, as a crash
  // mid-write would.
  auto names = *vfs->ListDir(dir);
  ASSERT_EQ(names.size(), 1u);
  std::string seg = dir + "/" + names[0];
  auto f = *vfs->Open(seg, storage::Vfs::OpenMode::kReadWrite);
  uint64_t size = *f->Size();
  ASSERT_TRUE(f->Truncate(size - 3).ok());

  Graph g;
  auto resolve = [](const std::string&, uint64_t) -> Result<Term> {
    return Status::Internal("unused");
  };
  auto stats = *storage::ReplayWal(
      vfs, dir, 0, resolve, [&g](const storage::WalRecord& rec) -> Status {
        WriteBatch batch;
        if (rec.type == storage::WalRecord::Type::kAdd) batch.Add(rec.triple);
        g.Apply(std::move(batch));
        return Status::OK();
      });
  EXPECT_TRUE(stats.torn_tail);
  EXPECT_EQ(stats.batches_applied, 1u);
  EXPECT_EQ(g.size(), 1u);  // first batch survives, torn one vanishes
}

// ---------------------------------------------------------------------------
// Engine-level recovery.
// ---------------------------------------------------------------------------

bool AskPresent(SSDM* db, const std::string& pattern) {
  auto r = db->Execute("ASK { " + pattern + " }");
  return r.ok() && r->ask();
}

TEST(Durability, ReopenRecoversWalOnlyStore) {
  std::string dir = FreshDir("dur_wal_only");
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:b ex:p 2 }").ok());
    ASSERT_TRUE(scisparql::Run(db, "DELETE DATA { ex:a ex:p 1 }").ok());
  }
  SSDM rec;
  rec.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(rec.Open(dir).ok());
  EXPECT_FALSE(AskPresent(&rec, "ex:a ex:p 1"));
  EXPECT_TRUE(AskPresent(&rec, "ex:b ex:p 2"));
  EXPECT_EQ(rec.durability()->recovery().snapshot_path, "");
  EXPECT_GT(rec.durability()->recovery().records_replayed, 0u);
}

TEST(Durability, CheckpointThenMoreUpdatesThenReopen) {
  std::string dir = FreshDir("dur_ckpt");
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());
    auto ck = db.Execute("CHECKPOINT");
    ASSERT_TRUE(ck.ok());
    EXPECT_NE(ck->info().find("checkpoint: snapshot"), std::string::npos);
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:b ex:p 2 }").ok());
  }
  SSDM rec;
  rec.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(rec.Open(dir).ok());
  EXPECT_TRUE(AskPresent(&rec, "ex:a ex:p 1"));   // from the snapshot
  EXPECT_TRUE(AskPresent(&rec, "ex:b ex:p 2"));   // from the WAL tail
  EXPECT_NE(rec.durability()->recovery().snapshot_path, "");
}

TEST(Durability, CorruptedSnapshotFallsBackLosslessly) {
  std::string dir = FreshDir("dur_snap_fallback");
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());
    ASSERT_TRUE(db.Execute("CHECKPOINT").ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:b ex:p 2 }").ok());
    ASSERT_TRUE(db.Execute("CHECKPOINT").ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:c ex:p 3 }").ok());
  }
  // Flip bytes in the middle of the newest snapshot: its section CRCs no
  // longer verify, so recovery must fall back to the older snapshot and
  // re-cover the gap from the WAL kept for exactly this case.
  storage::Vfs* vfs = storage::DefaultVfs();
  auto snaps = *storage::ListSnapshots(vfs, dir);
  ASSERT_EQ(snaps.size(), 2u);
  {
    auto f = *vfs->Open(snaps.back().second, storage::Vfs::OpenMode::kReadWrite);
    uint64_t size = *f->Size();
    ASSERT_GT(size, 32u);
    const char junk[4] = {'\x5a', '\x5a', '\x5a', '\x5a'};
    ASSERT_TRUE(f->WriteAt(size / 2, junk, sizeof(junk)).ok());
  }
  SSDM rec;
  rec.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(rec.Open(dir).ok());
  EXPECT_TRUE(AskPresent(&rec, "ex:a ex:p 1"));
  EXPECT_TRUE(AskPresent(&rec, "ex:b ex:p 2"));
  EXPECT_TRUE(AskPresent(&rec, "ex:c ex:p 3"));
  EXPECT_EQ(rec.durability()->recovery().snapshots_skipped, 1u);
  EXPECT_EQ(rec.durability()->recovery().snapshot_path, snaps.front().second);
}

// ---------------------------------------------------------------------------
// Crash matrix: crash at every mutating I/O op of a fixed workload, then
// recover and check that acked statements survived and un-acked ones are
// atomically present-or-absent.
// ---------------------------------------------------------------------------

constexpr int kStatements = 5;

struct WorkloadAcks {
  std::vector<bool> stmt;  // one per statement
};

std::string StatementText(int i) {
  std::string s = std::to_string(i);
  return "INSERT DATA { ex:s" + s + " ex:p " + s + " . ex:s" + s + " ex:q " +
         s + " }";
}

WorkloadAcks RunWorkload(storage::Vfs* vfs, const std::string& dir) {
  WorkloadAcks acks;
  acks.stmt.assign(kStatements, false);
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  if (!db.Open(dir, vfs).ok()) return acks;
  for (int i = 0; i < kStatements; ++i) {
    if (i == 3) (void)db.Execute("CHECKPOINT");  // mid-workload checkpoint
    acks.stmt[static_cast<size_t>(i)] = scisparql::Run(db, StatementText(i)).ok();
  }
  return acks;
}

TEST(Durability, CrashMatrix) {
  // Pass 1: clean run to learn the workload's mutating-op count.
  storage::FaultyVfs probe(storage::DefaultVfs());
  std::string probe_dir = FreshDir("dur_matrix_probe");
  WorkloadAcks clean = RunWorkload(&probe, probe_dir);
  for (int i = 0; i < kStatements; ++i) {
    ASSERT_TRUE(clean.stmt[static_cast<size_t>(i)]) << "clean run stmt " << i;
  }
  const uint64_t n_ops = probe.op_count();
  ASSERT_GT(n_ops, 0u);

  // Pass 2: one run per crash point.
  for (uint64_t k = 0; k < n_ops; ++k) {
    std::string dir = FreshDir("dur_matrix_" + std::to_string(k));
    storage::FaultyVfs faulty(storage::DefaultVfs());
    faulty.CrashAtOp(k);
    WorkloadAcks acks = RunWorkload(&faulty, dir);

    SSDM rec;
    rec.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(rec.Open(dir).ok()) << "recovery failed at crash op " << k;
    for (int i = 0; i < kStatements; ++i) {
      std::string s = std::to_string(i);
      bool p = AskPresent(&rec, "ex:s" + s + " ex:p " + s);
      bool q = AskPresent(&rec, "ex:s" + s + " ex:q " + s);
      if (acks.stmt[static_cast<size_t>(i)]) {
        EXPECT_TRUE(p && q) << "acked stmt " << i << " lost at crash op "
                            << k;
      } else {
        EXPECT_EQ(p, q) << "stmt " << i << " torn at crash op " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Read-only degradation.
// ---------------------------------------------------------------------------

TEST(Durability, MediaFailureFlipsEngineReadOnly) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  std::string dir = FreshDir("dur_read_only");
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.Open(dir, &faulty).ok());
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());
  EXPECT_FALSE(db.read_only());

  faulty.FailAllWrites(true);  // the disk is gone for good
  Status st = scisparql::Run(db, "INSERT DATA { ex:b ex:p 2 }");
  EXPECT_EQ(st.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(db.read_only());
  EXPECT_NE(db.read_only_reason(), "");

  // Writers stay rejected even after the fault clears (the flag is sticky
  // — an operator restarts the engine once the media is trustworthy).
  faulty.FailAllWrites(false);
  EXPECT_EQ(scisparql::Run(db, "INSERT DATA { ex:c ex:p 3 }").code(),
            StatusCode::kUnavailable);
  EXPECT_EQ(db.Execute("CHECKPOINT").status().code(),
            StatusCode::kUnavailable);

  // Reads keep flowing, and the degradation is visible in METRICS.
  EXPECT_TRUE(AskPresent(&db, "ex:a ex:p 1"));
  auto metrics = db.Execute("METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->info().find("ssdm_engine_read_only 1"), std::string::npos);
  EXPECT_NE(metrics->info().find("ssdm_wal_errors_total"), std::string::npos);
}

TEST(Durability, FsyncFailureAlsoDegrades) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  std::string dir = FreshDir("dur_sync_fail");
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.Open(dir, &faulty).ok());
  faulty.FailAllSyncs(true);
  EXPECT_EQ(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").code(),
            StatusCode::kUnavailable);
  EXPECT_TRUE(db.read_only());
}

// ---------------------------------------------------------------------------
// Segment enumeration ordering. Replication ships segments in enumeration
// order, so segment 10 sorting before segment 9 (the classic
// lexicographic-vs-numeric bug) would ship LSNs out of order.
// ---------------------------------------------------------------------------

TEST(Wal, SegmentEnumerationIsNumericPastSegmentNine) {
  storage::Vfs* vfs = storage::DefaultVfs();
  std::string dir = FreshDir("wal_seg_order");
  ASSERT_TRUE(vfs->CreateDir(dir).ok());

  // Twelve segments whose first LSNs straddle every width boundary a
  // lexicographic sort of unpadded names would scramble (9 vs 10, 0xf vs
  // 0x10, 0xff vs 0x100, ...). Each batch consumes two LSNs (record +
  // commit), hence the gaps.
  std::vector<uint64_t> first_lsns = {1,     4,     9,      0x10,   0xf0,
                                      0x100, 0xffe, 0x1000, 0xfffe, 0x10000,
                                      0xffffe, 0x100000};
  auto wal = *storage::WalWriter::Create(vfs, dir, first_lsns[0]);
  for (uint64_t lsn : first_lsns) {
    wal->ResetTo(lsn);
    std::vector<storage::WalRecord> batch = {
        {storage::WalRecord::Type::kAdd, 0, "",
         Triple{I("s" + std::to_string(lsn)), I("p"), I("o")}}};
    ASSERT_TRUE(wal->AppendBatch(batch).ok());
  }

  // Foreign and near-miss entries that enumeration must skip, including
  // the unpadded names a width change could produce.
  for (const char* junk :
       {"wal-10.log", "wal-2.log", "wal-zzzzzzzzzzzzzzzz.log",
        "wal-00000000000000010.log", "notes.txt"}) {
    auto f = *vfs->Open(dir + "/" + junk, storage::Vfs::OpenMode::kTruncate);
    ASSERT_TRUE(f->WriteAt(0, "x", 1).ok());
  }

  auto segments = *storage::ListWalSegments(vfs, dir);
  ASSERT_EQ(segments.size(), first_lsns.size());
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].first_lsn, first_lsns[i]) << "position " << i;
  }

  // Name round trip, and the zero-padding property that keeps plain
  // directory listings readable.
  for (uint64_t lsn : {uint64_t{9}, uint64_t{10}, uint64_t{0x10000}}) {
    uint64_t back = 0;
    ASSERT_TRUE(
        storage::ParseWalSegmentFileName(storage::WalSegmentFileName(lsn), &back));
    EXPECT_EQ(back, lsn);
  }
  EXPECT_LT(storage::WalSegmentFileName(9), storage::WalSegmentFileName(10));

  // Replay walks all twelve segments in LSN order despite the junk files.
  uint64_t prev_lsn = 0;
  bool ordered = true;
  auto resolve = [](const std::string&, uint64_t) -> Result<Term> {
    return Status::Internal("unused");
  };
  auto stats = *storage::ReplayWal(vfs, dir, 0, resolve,
                                   [&](const storage::WalRecord& rec) -> Status {
                                     if (rec.lsn <= prev_lsn) ordered = false;
                                     prev_lsn = rec.lsn;
                                     return Status::OK();
                                   });
  EXPECT_TRUE(ordered);
  EXPECT_EQ(stats.batches_applied, first_lsns.size());
  EXPECT_EQ(stats.last_lsn, first_lsns.back() + 1);  // +1: the commit marker

  // Shipping shares the same enumeration: one pass returns every batch
  // in order with the same final LSN.
  auto shipment = *storage::ReadWalShipment(vfs, dir, 0, 64u << 20);
  EXPECT_FALSE(shipment.truncated);
  EXPECT_EQ(shipment.last_lsn, stats.last_lsn);
}

// ---------------------------------------------------------------------------
// Read-only mode guards: CHECKPOINT and Open on a degraded engine must
// fail cleanly without attempting any mutating I/O.
// ---------------------------------------------------------------------------

TEST(Durability, ReadOnlyEngineCheckpointAndOpenNeverWrite) {
  storage::FaultyVfs faulty(storage::DefaultVfs());
  std::string dir = FreshDir("dur_ro_guards");
  SSDM db;
  db.prefixes().Set("ex", "http://example.org/");
  ASSERT_TRUE(db.Open(dir, &faulty).ok());
  ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());

  faulty.FailAllWrites(true);
  EXPECT_EQ(scisparql::Run(db, "INSERT DATA { ex:b ex:p 2 }").code(),
            StatusCode::kUnavailable);
  ASSERT_TRUE(db.read_only());

  // The media "recovers", but the sticky flag must keep CHECKPOINT and
  // Open from touching the disk at all — not merely from succeeding.
  faulty.FailAllWrites(false);
  const uint64_t ops_before = faulty.op_count();

  auto ck = db.Checkpoint();
  EXPECT_EQ(ck.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(faulty.op_count(), ops_before) << "CHECKPOINT wrote while degraded";

  std::string other = FreshDir("dur_ro_guards_other");
  Status open = db.Open(other, &faulty);
  EXPECT_EQ(open.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(faulty.op_count(), ops_before) << "Open wrote while degraded";
  EXPECT_FALSE(faulty.Exists(other));

  // Reads still flow.
  EXPECT_TRUE(AskPresent(&db, "ex:a ex:p 1"));
}

TEST(Durability, RecoveryCountersAppearInMetrics) {
  std::string dir = FreshDir("dur_metrics");
  {
    SSDM db;
    db.prefixes().Set("ex", "http://example.org/");
    ASSERT_TRUE(db.Open(dir).ok());
    ASSERT_TRUE(scisparql::Run(db, "INSERT DATA { ex:a ex:p 1 }").ok());
  }
  SSDM rec;
  ASSERT_TRUE(rec.Open(dir).ok());
  auto metrics = rec.Execute("METRICS");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics->info().find("ssdm_recovery_replayed_records_total"),
            std::string::npos);
  EXPECT_NE(metrics->info().find("ssdm_wal_appends_total"), std::string::npos);
}

}  // namespace
}  // namespace scisparql
