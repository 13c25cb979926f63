#ifndef SCISPARQL_STORAGE_ARRAY_PROXY_H_
#define SCISPARQL_STORAGE_ARRAY_PROXY_H_

#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "storage/asei.h"

namespace scisparql {

/// Lazy handle to an externally stored array (Section 5.2 / 6.1). A proxy
/// carries a *view descriptor* — offset, shape and strides over the stored
/// row-major element space — so dereference syntax like `?a[2, 1:100:3]`
/// merely transforms the descriptor. Array content is touched only when an
/// APR (array-proxy-resolve) call materializes the view, or an element is
/// accessed; AAPR delegates whole-array aggregates to capable back-ends.
class ArrayProxy : public ArrayValue {
 public:
  /// Opens a proxy covering the entire stored array `id`.
  static Result<std::shared_ptr<ArrayProxy>> Open(
      std::shared_ptr<ArrayStorage> storage, ArrayId id,
      AprConfig config = AprConfig());

  ElementType etype() const override { return meta_.etype; }
  const std::vector<int64_t>& shape() const override { return shape_; }
  bool resident() const override { return false; }

  Result<double> ElementAsDouble(std::span<const int64_t> idx) const override;

  Result<std::shared_ptr<ArrayValue>> Subscript(
      std::span<const Sub> subs) const override;

  /// The APR call: fetches exactly the chunks the view touches, using the
  /// configured retrieval strategy, and assembles a resident array.
  Result<NumericArray> Materialize() const override;

  /// AAPR: pushes the aggregate to the back-end when the view covers the
  /// whole stored array and the back-end supports it; otherwise falls back
  /// to materialize-and-compute.
  Result<double> Aggregate(AggOp op) const override;

  std::string Describe() const override;

  const std::shared_ptr<ArrayStorage>& storage() const { return storage_; }
  ArrayId array_id() const { return meta_.id; }
  const StoredArrayMeta& meta() const { return meta_; }
  const AprConfig& config() const { return config_; }
  void set_config(AprConfig c) { config_ = c; }

  /// True when the view spans the entire stored array in natural order.
  bool CoversWholeArray() const;

  /// Stored linear element addresses this view touches, in logical order.
  std::vector<int64_t> ElementAddresses() const;

  /// Chunk ids (sorted, unique) covering the view.
  std::vector<uint64_t> NeededChunks() const;

  /// Fills `out` (pre-shaped) from a chunk_id -> bytes map. Exposed for the
  /// bag resolver which fetches chunks for many proxies at once.
  Status FillFromChunks(
      const std::map<uint64_t, std::vector<uint8_t>>& chunks,
      NumericArray* out) const;

 private:
  ArrayProxy(std::shared_ptr<ArrayStorage> storage, StoredArrayMeta meta,
             AprConfig config);

  int64_t AddressOf(std::span<const int64_t> idx) const;

  std::shared_ptr<ArrayStorage> storage_;
  StoredArrayMeta meta_;
  AprConfig config_;
  // View descriptor over the stored row-major element space.
  int64_t offset_ = 0;
  std::vector<int64_t> shape_;
  std::vector<int64_t> strides_;
  // One-chunk cache for repeated scalar element accesses. The scheduler
  // runs reads in parallel and a proxy term is shared by every query that
  // binds it, so the cache is guarded.
  mutable std::mutex cache_mu_;
  mutable int64_t cached_chunk_ = -1;
  mutable std::vector<uint8_t> cached_bytes_;
};

/// Resolves a bag of proxies against their back-ends in batches of
/// `config.buffer_size` chunk references (Section 6.2.4, "resolving bags of
/// array proxies"). Chunk requests of proxies sharing a (storage, array)
/// pair are merged before fetching, so overlapping views are fetched once
/// per batch. Resident inputs pass through untouched.
Result<std::vector<NumericArray>> ResolveProxyBag(
    std::span<const std::shared_ptr<ArrayValue>> values,
    const AprConfig& config);

}  // namespace scisparql

#endif  // SCISPARQL_STORAGE_ARRAY_PROXY_H_
