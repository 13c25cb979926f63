#include "storage/array_proxy.h"

#include <algorithm>
#include <cstring>
#include <sstream>

namespace scisparql {

ArrayProxy::ArrayProxy(std::shared_ptr<ArrayStorage> storage,
                       StoredArrayMeta meta, AprConfig config)
    : storage_(std::move(storage)),
      meta_(std::move(meta)),
      config_(config),
      shape_(meta_.shape),
      strides_(NumericArray::RowMajorStrides(meta_.shape)) {}

Result<std::shared_ptr<ArrayProxy>> ArrayProxy::Open(
    std::shared_ptr<ArrayStorage> storage, ArrayId id, AprConfig config) {
  SCISPARQL_ASSIGN_OR_RETURN(StoredArrayMeta meta, storage->GetMeta(id));
  return std::shared_ptr<ArrayProxy>(
      new ArrayProxy(std::move(storage), std::move(meta), config));
}

int64_t ArrayProxy::AddressOf(std::span<const int64_t> idx) const {
  int64_t pos = offset_;
  for (size_t i = 0; i < idx.size(); ++i) pos += idx[i] * strides_[i];
  return pos;
}

Result<double> ArrayProxy::ElementAsDouble(
    std::span<const int64_t> idx) const {
  if (idx.size() != shape_.size()) {
    return Status::InvalidArgument("subscript rank mismatch");
  }
  for (size_t i = 0; i < idx.size(); ++i) {
    if (idx[i] < 0 || idx[i] >= shape_[i]) {
      return Status::OutOfRange("array subscript out of bounds");
    }
  }
  int64_t addr = AddressOf(idx);
  int64_t chunk = addr / meta_.chunk_elems;
  int64_t within = addr % meta_.chunk_elems;
  std::lock_guard<std::mutex> lock(cache_mu_);
  if (chunk != cached_chunk_) {
    cached_bytes_.clear();
    uint64_t cid = static_cast<uint64_t>(chunk);
    SCISPARQL_RETURN_NOT_OK(storage_->FetchChunks(
        meta_.id, std::span<const uint64_t>(&cid, 1),
        [this](uint64_t, const uint8_t* bytes, size_t len) {
          cached_bytes_.assign(bytes, bytes + len);
        }));
    cached_chunk_ = chunk;
  }
  if (static_cast<size_t>(within * 8 + 8) > cached_bytes_.size()) {
    return Status::Internal("chunk shorter than expected");
  }
  if (meta_.etype == ElementType::kDouble) {
    double v;
    std::memcpy(&v, cached_bytes_.data() + within * 8, 8);
    return v;
  }
  int64_t v;
  std::memcpy(&v, cached_bytes_.data() + within * 8, 8);
  return static_cast<double>(v);
}

Result<std::shared_ptr<ArrayValue>> ArrayProxy::Subscript(
    std::span<const Sub> subs) const {
  SCISPARQL_ASSIGN_OR_RETURN(std::vector<Sub> valid,
                             NumericArray::ValidateSubs(shape_, subs));
  auto view = std::shared_ptr<ArrayProxy>(
      new ArrayProxy(storage_, meta_, config_));
  view->offset_ = offset_;
  view->shape_.clear();
  view->strides_.clear();
  for (size_t i = 0; i < valid.size(); ++i) {
    const Sub& s = valid[i];
    if (s.kind == Sub::Kind::kIndex) {
      view->offset_ += s.index * strides_[i];
    } else {
      view->offset_ += s.lo * strides_[i];
      view->shape_.push_back(s.count);
      view->strides_.push_back(s.step * strides_[i]);
    }
  }
  if (view->shape_.empty()) {
    view->shape_.push_back(1);
    view->strides_.push_back(1);
  }
  return std::static_pointer_cast<ArrayValue>(view);
}

bool ArrayProxy::CoversWholeArray() const {
  return offset_ == 0 && shape_ == meta_.shape &&
         strides_ == NumericArray::RowMajorStrides(meta_.shape);
}

std::vector<int64_t> ArrayProxy::ElementAddresses() const {
  int64_t n = 1;
  for (int64_t d : shape_) n *= d;
  std::vector<int64_t> out;
  out.reserve(static_cast<size_t>(n));
  std::vector<int64_t> idx(shape_.size(), 0);
  for (int64_t i = 0; i < n; ++i) {
    out.push_back(AddressOf(idx));
    // Row-major increment.
    for (int d = static_cast<int>(idx.size()) - 1; d >= 0; --d) {
      if (++idx[d] < shape_[d]) break;
      idx[d] = 0;
    }
  }
  return out;
}

std::vector<uint64_t> ArrayProxy::NeededChunks() const {
  std::vector<int64_t> addrs = ElementAddresses();
  std::vector<uint64_t> chunks;
  chunks.reserve(addrs.size());
  for (int64_t a : addrs) {
    chunks.push_back(static_cast<uint64_t>(a / meta_.chunk_elems));
  }
  std::sort(chunks.begin(), chunks.end());
  chunks.erase(std::unique(chunks.begin(), chunks.end()), chunks.end());
  return chunks;
}

Status ArrayProxy::FillFromChunks(
    const std::map<uint64_t, std::vector<uint8_t>>& chunks,
    NumericArray* out) const {
  std::vector<int64_t> addrs = ElementAddresses();
  for (size_t i = 0; i < addrs.size(); ++i) {
    int64_t addr = addrs[i];
    uint64_t cid = static_cast<uint64_t>(addr / meta_.chunk_elems);
    int64_t within = addr % meta_.chunk_elems;
    auto it = chunks.find(cid);
    if (it == chunks.end()) {
      return Status::Internal("chunk " + std::to_string(cid) +
                              " missing during APR");
    }
    if (static_cast<size_t>(within * 8 + 8) > it->second.size()) {
      return Status::Internal("chunk shorter than expected");
    }
    if (meta_.etype == ElementType::kDouble) {
      double v;
      std::memcpy(&v, it->second.data() + within * 8, 8);
      out->SetDoubleAt(static_cast<int64_t>(i), v);
    } else {
      int64_t v;
      std::memcpy(&v, it->second.data() + within * 8, 8);
      out->SetIntAt(static_cast<int64_t>(i), v);
    }
  }
  return Status::OK();
}

Result<NumericArray> ArrayProxy::Materialize() const {
  std::vector<uint64_t> needed = NeededChunks();
  std::map<uint64_t, std::vector<uint8_t>> fetched;
  auto sink = [&fetched](uint64_t cid, const uint8_t* bytes, size_t len) {
    fetched[cid].assign(bytes, bytes + len);
  };
  switch (config_.strategy) {
    case RetrievalStrategy::kNaive:
      for (uint64_t cid : needed) {
        SCISPARQL_RETURN_NOT_OK(storage_->FetchChunks(
            meta_.id, std::span<const uint64_t>(&cid, 1), sink));
      }
      break;
    case RetrievalStrategy::kBuffered: {
      size_t batch = config_.buffer_size == 0 ? 1 : config_.buffer_size;
      for (size_t i = 0; i < needed.size(); i += batch) {
        size_t n = std::min(batch, needed.size() - i);
        SCISPARQL_RETURN_NOT_OK(storage_->FetchChunks(
            meta_.id, std::span<const uint64_t>(needed.data() + i, n), sink));
      }
      break;
    }
    case RetrievalStrategy::kSpd: {
      std::vector<relstore::Interval> intervals =
          relstore::DetectPatterns(needed);
      SCISPARQL_RETURN_NOT_OK(
          storage_->FetchIntervals(meta_.id, intervals, sink));
      break;
    }
  }
  NumericArray out = NumericArray::Zeros(meta_.etype, shape_);
  SCISPARQL_RETURN_NOT_OK(FillFromChunks(fetched, &out));
  return out;
}

Result<double> ArrayProxy::Aggregate(AggOp op) const {
  if (CoversWholeArray() && storage_->SupportsAggregatePushdown()) {
    return storage_->AggregateWhole(meta_.id, op);
  }
  return ArrayValue::Aggregate(op);
}

std::string ArrayProxy::Describe() const {
  std::ostringstream out;
  out << "proxy(" << storage_->name() << "#" << meta_.id << ") ";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) out << "x";
    out << shape_[i];
  }
  out << " " << ElementTypeName(meta_.etype);
  return out.str();
}

Result<std::vector<NumericArray>> ResolveProxyBag(
    std::span<const std::shared_ptr<ArrayValue>> values,
    const AprConfig& config) {
  std::vector<NumericArray> results(values.size());

  // Group proxy chunk requests by (storage, array id).
  struct Request {
    ArrayStorage* storage;
    ArrayId id;
    bool operator<(const Request& o) const {
      return storage != o.storage ? storage < o.storage : id < o.id;
    }
  };
  struct Work {
    std::vector<uint64_t> chunks;  // merged needed chunks
    std::map<uint64_t, std::vector<uint8_t>> fetched;
    std::shared_ptr<ArrayStorage> storage;
  };
  std::map<Request, Work> work;

  for (size_t i = 0; i < values.size(); ++i) {
    const auto& v = values[i];
    if (v == nullptr) return Status::InvalidArgument("null array in bag");
    if (v->resident()) {
      SCISPARQL_ASSIGN_OR_RETURN(results[i], v->Materialize());
      continue;
    }
    auto* proxy = dynamic_cast<const ArrayProxy*>(v.get());
    if (proxy == nullptr) {
      SCISPARQL_ASSIGN_OR_RETURN(results[i], v->Materialize());
      continue;
    }
    Work& w = work[Request{proxy->storage().get(), proxy->array_id()}];
    w.storage = proxy->storage();
    std::vector<uint64_t> needed = proxy->NeededChunks();
    w.chunks.insert(w.chunks.end(), needed.begin(), needed.end());
  }

  // Fetch each group's merged chunk set in buffer_size batches.
  for (auto& [req, w] : work) {
    std::sort(w.chunks.begin(), w.chunks.end());
    w.chunks.erase(std::unique(w.chunks.begin(), w.chunks.end()),
                   w.chunks.end());
    auto sink = [&w](uint64_t cid, const uint8_t* bytes, size_t len) {
      w.fetched[cid].assign(bytes, bytes + len);
    };
    size_t batch = config.buffer_size == 0 ? 1 : config.buffer_size;
    for (size_t i = 0; i < w.chunks.size(); i += batch) {
      size_t n = std::min(batch, w.chunks.size() - i);
      std::span<const uint64_t> ids(w.chunks.data() + i, n);
      switch (config.strategy) {
        case RetrievalStrategy::kNaive:
          for (uint64_t cid : ids) {
            SCISPARQL_RETURN_NOT_OK(w.storage->FetchChunks(
                req.id, std::span<const uint64_t>(&cid, 1), sink));
          }
          break;
        case RetrievalStrategy::kBuffered:
          SCISPARQL_RETURN_NOT_OK(w.storage->FetchChunks(req.id, ids, sink));
          break;
        case RetrievalStrategy::kSpd: {
          std::vector<relstore::Interval> intervals =
              relstore::DetectPatterns(ids);
          SCISPARQL_RETURN_NOT_OK(
              w.storage->FetchIntervals(req.id, intervals, sink));
          break;
        }
      }
    }
  }

  // Distribute fetched chunks back into each proxy's result.
  for (size_t i = 0; i < values.size(); ++i) {
    const auto& v = values[i];
    if (v->resident()) continue;
    auto* proxy = dynamic_cast<const ArrayProxy*>(v.get());
    if (proxy == nullptr) continue;
    Work& w = work[Request{proxy->storage().get(), proxy->array_id()}];
    NumericArray out = NumericArray::Zeros(proxy->etype(), proxy->shape());
    SCISPARQL_RETURN_NOT_OK(proxy->FillFromChunks(w.fetched, &out));
    results[i] = std::move(out);
  }
  return results;
}

}  // namespace scisparql
