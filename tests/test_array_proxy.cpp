#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "storage/array_proxy.h"
#include "storage/memory_backend.h"
#include "storage/relational_backend.h"

namespace scisparql {
namespace {

class ProxyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    storage_ = std::make_shared<MemoryArrayStorage>();
    // 20x30 matrix, a[i][j] = i*100 + j.
    NumericArray a = NumericArray::Zeros(ElementType::kInt64, {20, 30});
    for (int64_t i = 0; i < 20; ++i) {
      for (int64_t j = 0; j < 30; ++j) {
        int64_t idx[] = {i, j};
        (void)a.Set(idx, i * 100 + j);
      }
    }
    reference_ = a;
    id_ = *storage_->Store(a, 64);
  }

  std::shared_ptr<ArrayProxy> Open(RetrievalStrategy s = RetrievalStrategy::kSpd) {
    AprConfig cfg;
    cfg.strategy = s;
    return *ArrayProxy::Open(storage_, id_, cfg);
  }

  std::shared_ptr<MemoryArrayStorage> storage_;
  NumericArray reference_;
  ArrayId id_ = 0;
};

TEST_F(ProxyTest, MetaExposed) {
  auto proxy = Open();
  EXPECT_FALSE(proxy->resident());
  EXPECT_EQ(proxy->etype(), ElementType::kInt64);
  EXPECT_EQ(proxy->shape(), (std::vector<int64_t>{20, 30}));
  EXPECT_TRUE(proxy->CoversWholeArray());
  EXPECT_NE(proxy->Describe().find("proxy(memory#"), std::string::npos);
}

TEST_F(ProxyTest, ElementAccessFetchesOneChunk) {
  auto proxy = Open();
  storage_->ResetStats();
  int64_t idx[] = {3, 7};
  EXPECT_EQ(*proxy->ElementAsDouble(idx), 307.0);
  EXPECT_EQ(storage_->stats().chunks_fetched, 1u);
  // Repeated access to the same chunk is served from the proxy cache.
  int64_t idx2[] = {3, 8};
  EXPECT_EQ(*proxy->ElementAsDouble(idx2), 308.0);
  EXPECT_EQ(storage_->stats().chunks_fetched, 1u);
}

TEST_F(ProxyTest, SubscriptIsLazy) {
  auto proxy = Open();
  storage_->ResetStats();
  std::vector<Sub> subs = {Sub::Index(5), Sub::Range(10, 5, 2)};
  auto view = *proxy->Subscript(subs);
  // No storage traffic yet: the dereference only transformed the
  // descriptor (the "lazy fashion" of Section 5.2).
  EXPECT_EQ(storage_->stats().chunks_fetched, 0u);
  EXPECT_EQ(view->shape(), (std::vector<int64_t>{5}));
  EXPECT_FALSE(view->resident());
}

TEST_F(ProxyTest, MaterializedViewMatchesResidentReference) {
  auto proxy = Open();
  std::vector<Sub> subs = {Sub::Range(2, 6, 3), Sub::Range(1, 10, 2)};
  auto view = *proxy->Subscript(subs);
  NumericArray got = *view->Materialize();
  NumericArray expected = *reference_.View(subs);
  EXPECT_TRUE(got.NumericEquals(expected));
}

TEST_F(ProxyTest, NestedSubscriptsCompose) {
  auto proxy = Open();
  std::vector<Sub> s1 = {Sub::Range(0, 10, 2), Sub::All(30)};
  auto v1 = *proxy->Subscript(s1);
  std::vector<Sub> s2 = {Sub::Index(3), Sub::Range(5, 4, 1)};
  auto v2 = *v1->Subscript(s2);
  NumericArray got = *v2->Materialize();
  // Row 3 of the stride-2 view = original row 6; cols 5..8.
  ASSERT_EQ(got.NumElements(), 4);
  EXPECT_EQ(got.IntAt(0), 605);
  EXPECT_EQ(got.IntAt(3), 608);
}

TEST_F(ProxyTest, StrategiesAgree) {
  std::vector<Sub> subs = {Sub::All(20), Sub::Index(13)};  // a column
  NumericArray expected = *reference_.View(subs);
  for (RetrievalStrategy s :
       {RetrievalStrategy::kNaive, RetrievalStrategy::kBuffered,
        RetrievalStrategy::kSpd}) {
    auto proxy = Open(s);
    auto view = *proxy->Subscript(subs);
    NumericArray got = *view->Materialize();
    EXPECT_TRUE(got.NumericEquals(expected))
        << RetrievalStrategyName(s);
  }
}

TEST_F(ProxyTest, NeededChunksMinimal) {
  auto proxy = Open();
  // Single element lives in exactly one chunk.
  std::vector<Sub> subs = {Sub::Index(0), Sub::Index(0)};
  auto view = *proxy->Subscript(subs);
  auto* vp = dynamic_cast<ArrayProxy*>(view.get());
  ASSERT_NE(vp, nullptr);
  EXPECT_EQ(vp->NeededChunks().size(), 1u);
  // A full row of 30 elements crosses at most 2 chunks of 64 elements.
  std::vector<Sub> row = {Sub::Index(10), Sub::All(30)};
  auto rview = *proxy->Subscript(row);
  auto* rp = dynamic_cast<ArrayProxy*>(rview.get());
  EXPECT_LE(rp->NeededChunks().size(), 2u);
}

TEST_F(ProxyTest, AggregatePushdownForWholeArray) {
  auto proxy = Open();
  storage_->ResetStats();
  double sum = *proxy->Aggregate(AggOp::kSum);
  // Pushed down: no chunks crossed the ASEI boundary.
  EXPECT_EQ(storage_->stats().chunks_fetched, 0u);
  double expected = 0;
  for (int64_t i = 0; i < reference_.NumElements(); ++i) {
    expected += reference_.DoubleAt(i);
  }
  EXPECT_DOUBLE_EQ(sum, expected);
}

TEST_F(ProxyTest, AggregateOnViewFallsBack) {
  auto proxy = Open();
  std::vector<Sub> subs = {Sub::Index(4), Sub::All(30)};
  auto view = *proxy->Subscript(subs);
  storage_->ResetStats();
  double sum = *view->Aggregate(AggOp::kSum);
  EXPECT_GT(storage_->stats().chunks_fetched, 0u);  // had to materialize
  double expected = 0;
  for (int64_t j = 0; j < 30; ++j) expected += 400 + j;
  EXPECT_DOUBLE_EQ(sum, expected);
}

TEST_F(ProxyTest, OutOfBoundsSubscriptRejected) {
  auto proxy = Open();
  std::vector<Sub> subs = {Sub::Index(20), Sub::Index(0)};
  EXPECT_FALSE(proxy->Subscript(subs).ok());
  int64_t idx[] = {0, 30};
  EXPECT_FALSE(proxy->ElementAsDouble(idx).ok());
}

TEST_F(ProxyTest, ResolveProxyBagMatchesIndividualResolution) {
  auto proxy = Open();
  std::vector<std::shared_ptr<ArrayValue>> bag;
  for (int64_t i = 0; i < 10; ++i) {
    std::vector<Sub> subs = {Sub::Index(i * 2), Sub::Range(0, 5, 1)};
    bag.push_back(*proxy->Subscript(subs));
  }
  // Also one resident array mixed in.
  bag.push_back(ResidentArray::Make(*NumericArray::FromInts({2}, {7, 8})));

  AprConfig cfg;
  cfg.strategy = RetrievalStrategy::kBuffered;
  cfg.buffer_size = 4;
  std::vector<NumericArray> results = *ResolveProxyBag(bag, cfg);
  ASSERT_EQ(results.size(), bag.size());
  for (size_t i = 0; i + 1 < bag.size(); ++i) {
    NumericArray individual = *bag[i]->Materialize();
    EXPECT_TRUE(results[i].NumericEquals(individual)) << i;
  }
  EXPECT_EQ(results.back().IntAt(1), 8);
}

TEST_F(ProxyTest, BagBufferSizeControlsRoundTrips) {
  auto proxy = Open(RetrievalStrategy::kBuffered);
  std::vector<std::shared_ptr<ArrayValue>> bag;
  // Whole array = ceil(600/64) = 10 chunks.
  bag.push_back(proxy);
  storage_->ResetStats();
  AprConfig small;
  small.strategy = RetrievalStrategy::kBuffered;
  small.buffer_size = 2;
  ASSERT_TRUE(ResolveProxyBag(bag, small).ok());
  uint64_t q_small = storage_->stats().queries;
  storage_->ResetStats();
  AprConfig large;
  large.strategy = RetrievalStrategy::kBuffered;
  large.buffer_size = 100;
  ASSERT_TRUE(ResolveProxyBag(bag, large).ok());
  uint64_t q_large = storage_->stats().queries;
  EXPECT_GT(q_small, q_large);
  EXPECT_EQ(q_large, 1u);
}

TEST(ProxyRelational, WorksOverRelationalBackend) {
  auto db = *relstore::Database::Open("");
  std::shared_ptr<RelationalArrayStorage> storage(
      std::move(*RelationalArrayStorage::Attach(db.get())));
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {100});
  for (int64_t i = 0; i < 100; ++i) a.SetDoubleAt(i, i);
  ArrayId id = *storage->Store(a, 16);
  AprConfig cfg;
  cfg.strategy = RetrievalStrategy::kSpd;
  auto proxy = *ArrayProxy::Open(storage, id, cfg);
  std::vector<Sub> subs = {Sub::Range(10, 20, 3)};
  auto view = *proxy->Subscript(subs);
  NumericArray got = *view->Materialize();
  for (int64_t k = 0; k < 20; ++k) {
    EXPECT_DOUBLE_EQ(got.DoubleAt(k), 10 + k * 3);
  }
}

TEST(ProxyRelational, ConcurrentReadsShareBackendAndProxies) {
  // The scheduler runs array reads in parallel, and a proxy term is shared
  // by every query that binds it: four threads read the same proxies,
  // element by element (the proxy's one-chunk cache) and as materialized
  // views (APR through a buffer pool far smaller than the data).
  auto db = *relstore::Database::Open("", /*buffer_pages=*/8);
  std::shared_ptr<RelationalArrayStorage> storage(
      std::move(*RelationalArrayStorage::Attach(db.get())));
  constexpr int kArrays = 6;
  constexpr int64_t kElems = 2048;
  std::vector<std::shared_ptr<ArrayProxy>> proxies;
  for (int a = 0; a < kArrays; ++a) {
    NumericArray arr = NumericArray::Zeros(ElementType::kDouble, {kElems});
    for (int64_t i = 0; i < kElems; ++i) arr.SetDoubleAt(i, a * 10000 + i);
    ArrayId id = *storage->Store(arr, 128);
    proxies.push_back(*ArrayProxy::Open(storage, id));
  }
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      for (int round = 0; round < 60; ++round) {
        int a = (t + round) % kArrays;
        const ArrayProxy& proxy = *proxies[a];
        int64_t idx[] = {(round * 131 + t * 517) % kElems};
        Result<double> v = proxy.ElementAsDouble(idx);
        if (!v.ok() || *v != a * 10000 + idx[0]) ++wrong;
        int64_t lo = (round * 97 + t * 37) % (kElems - 300);
        std::vector<Sub> subs = {Sub::Range(lo, 100, 3)};
        auto view = proxy.Subscript(subs);
        if (!view.ok()) {
          ++wrong;
          continue;
        }
        Result<NumericArray> got = (*view)->Materialize();
        if (!got.ok()) {
          ++wrong;
          continue;
        }
        for (int64_t k = 0; k < 100; ++k) {
          if (got->DoubleAt(k) != a * 10000 + lo + 3 * k) ++wrong;
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

}  // namespace
}  // namespace scisparql
