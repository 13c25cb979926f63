#include "probes.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace e2ebench {

using scisparql::Result;
using scisparql::Status;

int64_t NowMicros() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               epoch)
      .count();
}

uint64_t SpanLog::Add(uint64_t parent, std::string name, int64_t start_us,
                      int64_t end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = spans_.size() + 1;
  spans_.push_back(Span{id, parent, std::move(name), start_us, end_us});
  return id;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  for (const Span& s : spans_) {
    std::string name;
    for (char c : s.name) {
      if (c == '"' || c == '\\') name += '\\';
      name += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
    }
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"name\":\""
        << name << "\",\"start_us\":" << s.start_us
        << ",\"end_us\":" << s.end_us << "}\n";
  }
  return static_cast<bool>(out);
}

namespace {

class TimingFile : public scisparql::storage::VfsFile {
 public:
  TimingFile(std::unique_ptr<scisparql::storage::VfsFile> base,
             TimingVfs* owner)
      : base_(std::move(base)), owner_(owner) {}
  Result<size_t> ReadAt(uint64_t off, void* buf, size_t n) override {
    return base_->ReadAt(off, buf, n);
  }
  Status WriteAt(uint64_t off, const void* buf, size_t n) override {
    return base_->WriteAt(off, buf, n);
  }
  Result<uint64_t> Size() override { return base_->Size(); }
  Status Truncate(uint64_t size) override { return base_->Truncate(size); }
  Status Sync() override {
    int64_t start = NowMicros();
    Status st = base_->Sync();
    owner_->RecordSync(start, NowMicros());
    return st;
  }

 private:
  std::unique_ptr<scisparql::storage::VfsFile> base_;
  TimingVfs* owner_;
};

}  // namespace

Result<std::unique_ptr<scisparql::storage::VfsFile>> TimingVfs::Open(
    const std::string& path, OpenMode mode) {
  auto f = base_->Open(path, mode);
  if (!f.ok()) return f.status();
  return std::unique_ptr<scisparql::storage::VfsFile>(
      new TimingFile(std::move(*f), this));
}

void TimingVfs::RecordSync(int64_t start_us, int64_t end_us) {
  syncs_.fetch_add(1);
  sync_micros_.fetch_add(static_cast<uint64_t>(end_us - start_us));
  if (log_ != nullptr) log_->Add(0, "storage.fsync", start_us, end_us);
}

Status TimingStorage::FetchChunks(
    scisparql::ArrayId id, std::span<const uint64_t> chunk_ids,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  int64_t start = NowMicros();
  uint64_t before = inner_->stats().chunks_fetched;
  Status st = inner_->FetchChunks(id, chunk_ids, cb);
  Record("storage.apr.fetch_chunks", start, before, false);
  return st;
}

Status TimingStorage::FetchIntervals(
    scisparql::ArrayId id,
    std::span<const scisparql::relstore::Interval> intervals,
    const std::function<void(uint64_t, const uint8_t*, size_t)>& cb) {
  int64_t start = NowMicros();
  uint64_t before = inner_->stats().chunks_fetched;
  Status st = inner_->FetchIntervals(id, intervals, cb);
  Record("storage.apr.fetch_intervals", start, before, false);
  return st;
}

Result<double> TimingStorage::AggregateWhole(scisparql::ArrayId id,
                                             scisparql::AggOp op) {
  int64_t start = NowMicros();
  uint64_t before = inner_->stats().chunks_fetched;
  Result<double> r = inner_->AggregateWhole(id, op);
  Record("storage.aapr.aggregate_whole", start, before, true);
  return r;
}

void TimingStorage::Record(const char* what, int64_t start_us,
                           uint64_t chunks_before, bool pushdown) {
  int64_t end = NowMicros();
  if (pushdown) {
    pushdowns_.fetch_add(1);
  } else {
    apr_calls_.fetch_add(1);
    apr_micros_.fetch_add(static_cast<uint64_t>(end - start_us));
    chunks_.fetch_add(inner_->stats().chunks_fetched - chunks_before);
  }
  if (log_ != nullptr) log_->Add(0, what, start_us, end);
}

TimingStorage::Counts TimingStorage::counts() const {
  Counts c;
  c.apr_calls = apr_calls_.load();
  c.apr_micros = apr_micros_.load();
  c.pushdowns = pushdowns_.load();
  c.chunks = chunks_.load();
  return c;
}

MetricsSnapshot ParseExposition(const std::string& text) {
  MetricsSnapshot out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    // Label values never contain spaces in this exposition, so the sample
    // value is whatever follows the last space.
    size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

void AddDelta(const MetricsSnapshot& before, const MetricsSnapshot& after,
              MetricsSnapshot* sum) {
  for (const auto& [key, v] : after) (*sum)[key] += v;
  for (const auto& [key, v] : before) (*sum)[key] -= v;
}

void AddSelfTimes(const std::string& rendered,
                  std::map<std::string, double>* ms_by_name) {
  struct Node {
    int depth;
    std::string name;
    double wall;
    double child_wall;
  };
  std::vector<Node> stack;
  auto pop = [&]() {
    Node n = stack.back();
    stack.pop_back();
    (*ms_by_name)[n.name] += std::max(0.0, n.wall - n.child_wall);
    (*ms_by_name)["total:" + n.name] += n.wall;
  };
  std::istringstream in(rendered);
  std::string line;
  while (std::getline(in, line)) {
    size_t indent = line.find_first_not_of(' ');
    if (indent == std::string::npos) continue;
    int depth = static_cast<int>(indent / 2);
    size_t name_end = line.find_first_of(" (", indent);
    std::string name = line.substr(indent, name_end == std::string::npos
                                               ? std::string::npos
                                               : name_end - indent);
    double wall = 0;
    size_t w = line.find("wall=");
    if (w != std::string::npos) wall = std::strtod(line.c_str() + w + 5, nullptr);
    while (!stack.empty() && stack.back().depth >= depth) pop();
    if (!stack.empty()) stack.back().child_wall += wall;
    stack.push_back(Node{depth, name, wall, 0});
  }
  while (!stack.empty()) pop();
}

int64_t RssBytes() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtoll(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  return 0;
}

}  // namespace e2ebench
