#ifndef E2EBENCH_PROBES_H_
#define E2EBENCH_PROBES_H_

// Measurement plumbing that observes the engine from outside: wrappers
// around the storage seams the engine already exposes (storage::Vfs,
// ArrayStorage), a parser for its METRICS exposition, and a reader for the
// span trees its QueryRequest::trace_sink produces. Nothing here reaches
// into src/ internals.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "storage/asei.h"
#include "storage/vfs.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the process-wide benchmark epoch.
int64_t NowMicros();

/// Spans recorded by the benchmark around its own calls into the layers,
/// kept in memory and written as JSON lines when the run ends.
class SpanLog {
 public:
  struct Span {
    uint64_t id;
    uint64_t parent;  // 0 = root
    std::string name;
    int64_t start_us;
    int64_t end_us;
  };
  uint64_t Add(uint64_t parent, std::string name, int64_t start_us,
               int64_t end_us);
  size_t size() const;
  /// Writes one JSON object per span; returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// storage::Vfs decorator timing every Sync() (fsync) of the files the
/// engine opens through it.
class TimingVfs : public scisparql::storage::Vfs {
 public:
  TimingVfs(scisparql::storage::Vfs* base, SpanLog* log)
      : base_(base), log_(log) {}

  scisparql::Result<std::unique_ptr<scisparql::storage::VfsFile>> Open(
      const std::string& path, OpenMode mode) override;
  scisparql::Status Rename(const std::string& from,
                           const std::string& to) override {
    return base_->Rename(from, to);
  }
  scisparql::Status Remove(const std::string& path) override {
    return base_->Remove(path);
  }
  bool Exists(const std::string& path) override { return base_->Exists(path); }
  scisparql::Status CreateDir(const std::string& path) override {
    return base_->CreateDir(path);
  }
  scisparql::Result<std::vector<std::string>> ListDir(
      const std::string& dir) override {
    return base_->ListDir(dir);
  }

  uint64_t syncs() const { return syncs_.load(); }
  uint64_t sync_micros() const { return sync_micros_.load(); }
  void RecordSync(int64_t start_us, int64_t end_us);

 private:
  scisparql::storage::Vfs* base_;
  SpanLog* log_;
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_micros_{0};
};

/// ArrayStorage decorator timing the APR calls (FetchChunks,
/// FetchIntervals) and AAPR pushdowns (AggregateWhole) into the wrapped
/// back-end. It adds no locking: calls reach the back-end exactly as the
/// engine makes them. Counts may be read while calls run.
class TimingStorage : public scisparql::ArrayStorage {
 public:
  TimingStorage(std::shared_ptr<scisparql::ArrayStorage> inner, SpanLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }
  bool SupportsAggregatePushdown() const override {
    return inner_->SupportsAggregatePushdown();
  }
  scisparql::Result<scisparql::ArrayId> Store(
      const scisparql::NumericArray& array, int64_t chunk_elems) override {
    return inner_->Store(array, chunk_elems);
  }
  scisparql::Result<scisparql::StoredArrayMeta> GetMeta(
      scisparql::ArrayId id) const override {
    return inner_->GetMeta(id);
  }
  scisparql::Status FetchChunks(
      scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  scisparql::Status FetchIntervals(
      scisparql::ArrayId id,
      std::span<const scisparql::relstore::Interval> intervals,
      const std::function<void(uint64_t, const uint8_t*, size_t)>& cb)
      override;
  scisparql::Result<double> AggregateWhole(scisparql::ArrayId id,
                                           scisparql::AggOp op) override;

  struct Counts {
    uint64_t apr_calls = 0;
    uint64_t apr_micros = 0;
    uint64_t pushdowns = 0;
    uint64_t chunks = 0;  // chunks the back-end transferred
  };
  Counts counts() const;

 private:
  void Record(const char* what, int64_t start_us, uint64_t chunks_before,
              bool pushdown);

  std::shared_ptr<scisparql::ArrayStorage> inner_;
  SpanLog* log_;
  std::atomic<uint64_t> apr_calls_{0};
  std::atomic<uint64_t> apr_micros_{0};
  std::atomic<uint64_t> pushdowns_{0};
  std::atomic<uint64_t> chunks_{0};
};

/// A parsed METRICS exposition: "family{labels}" -> value. Histograms keep
/// their `_sum` / `_count` samples.
using MetricsSnapshot = std::map<std::string, double>;
MetricsSnapshot ParseExposition(const std::string& text);
/// Adds after[key] - before[key] to (*sum)[key] for every key of either
/// snapshot (missing keys read as 0).
void AddDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
              MetricsSnapshot* sum);

/// Self time per span name (wall time minus the wall time of the span's
/// children), summed over a rendered trace tree as QueryTrace::Render()
/// prints it: two spaces of indent per level, then `name  wall=X.XXXms`.
/// The span name is its first word ("scan ?a <p> ?b" counts as "scan").
/// Also accumulates each span's total wall time under "total:<name>".
void AddSelfTimes(const std::string& rendered,
                  std::map<std::string, double>* ms_by_name);

/// Resident set size of this process (VmRSS), in bytes.
int64_t RssBytes();

}  // namespace e2ebench

#endif  // E2EBENCH_PROBES_H_
