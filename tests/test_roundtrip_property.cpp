// Property tests over randomized data:
//   * Turtle writer -> reader round trips arbitrary graphs losslessly
//     (modulo blank relabeling, checked via isomorphic query answers);
//   * storage back-ends round-trip random arrays bit-exactly through
//     random view chains;
//   * the wire protocol round-trips random result tables.

#include <random>

#include <gtest/gtest.h>

#include "client/protocol.h"
#include "engine/ssdm.h"
#include "loaders/turtle.h"
#include "storage/memory_backend.h"

namespace scisparql {
namespace {

class Rng {
 public:
  explicit Rng(uint64_t seed) : rng_(seed) {}
  uint64_t Next(uint64_t bound) { return rng_() % bound; }
  double NextDouble() {
    return static_cast<double>(rng_() % 100000) / 100.0 - 250.0;
  }

 private:
  std::mt19937_64 rng_;
};

Term RandomLiteral(Rng& rng) {
  switch (rng.Next(6)) {
    case 0:
      return Term::Integer(static_cast<int64_t>(rng.Next(2000)) - 1000);
    case 1:
      return Term::Double(rng.NextDouble());
    case 2:
      return Term::String("s" + std::to_string(rng.Next(50)));
    case 3:
      return Term::LangString("w" + std::to_string(rng.Next(10)), "en");
    case 4:
      return Term::Boolean(rng.Next(2) == 0);
    default:
      return Term::TypedLiteral("2020-01-0" + std::to_string(1 + rng.Next(9)),
                                vocab::kXsdDateTime);
  }
}

class TurtleRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TurtleRoundTrip, QueriesAgreeAfterRewrite) {
  Rng rng(GetParam());
  WriteBatch batch;
  for (int i = 0; i < 60; ++i) {
    Term s = Term::Iri("http://n/" + std::to_string(rng.Next(10)));
    Term p = Term::Iri("http://p/" + std::to_string(rng.Next(4)));
    Term o = rng.Next(3) == 0
                 ? Term::Iri("http://n/" + std::to_string(rng.Next(10)))
                 : RandomLiteral(rng);
    batch.Add(std::move(s), std::move(p), std::move(o));
  }
  // Plus one array triple.
  int64_t n = 1 + static_cast<int64_t>(rng.Next(6));
  NumericArray arr = NumericArray::Zeros(ElementType::kDouble, {n});
  for (int64_t i = 0; i < n; ++i) arr.SetDoubleAt(i, rng.NextDouble());
  batch.Add(Term::Iri("http://n/arr"), Term::Iri("http://p/data"),
            Term::Array(ResidentArray::Make(arr)));
  Graph g;
  g.Apply(std::move(batch));

  PrefixMap prefixes = PrefixMap::WithDefaults();
  std::string ttl = loaders::WriteTurtle(g, prefixes);
  Graph back;
  loaders::TurtleOptions opts;
  Status st = loaders::LoadTurtleString(ttl, &back, opts);
  ASSERT_TRUE(st.ok()) << st.ToString() << "\n" << ttl;
  ASSERT_EQ(back.size(), g.size());

  // Compare answers of a full scan ordered canonically (blank labels may
  // differ, but this generator emits no blanks outside arrays).
  auto dump = [](const Graph& graph) {
    std::vector<std::string> rows;
    graph.ForEach([&rows](const Triple& t) { rows.push_back(t.ToString()); });
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  EXPECT_EQ(dump(g), dump(back));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TurtleRoundTrip,
                         ::testing::Range<uint64_t>(100, 112));

class ArrayStorageRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ArrayStorageRoundTrip, RandomViewChainsMatchResident) {
  Rng rng(GetParam());
  // Random 2-D array with odd sizes and a small chunk.
  int64_t rows = 3 + static_cast<int64_t>(rng.Next(30));
  int64_t cols = 3 + static_cast<int64_t>(rng.Next(30));
  NumericArray ref = NumericArray::Zeros(ElementType::kDouble, {rows, cols});
  for (int64_t i = 0; i < ref.NumElements(); ++i) {
    ref.SetDoubleAt(i, rng.NextDouble());
  }
  auto storage = std::make_shared<MemoryArrayStorage>();
  ArrayId id = *storage->Store(ref, 1 + static_cast<int64_t>(rng.Next(40)));
  std::shared_ptr<ArrayValue> proxy = *ArrayProxy::Open(storage, id);
  std::shared_ptr<ArrayValue> resident = ResidentArray::Make(ref);

  // Apply 1-3 random (identical) subscript chains to both.
  int chain = 1 + static_cast<int>(rng.Next(3));
  for (int c = 0; c < chain; ++c) {
    const auto& shape = proxy->shape();
    std::vector<Sub> subs;
    bool all_index = true;
    for (int64_t dim : shape) {
      if (rng.Next(3) == 0 && dim > 0) {
        subs.push_back(Sub::Index(static_cast<int64_t>(rng.Next(dim))));
      } else {
        all_index = false;
        int64_t lo = static_cast<int64_t>(rng.Next(dim));
        int64_t step = 1 + static_cast<int64_t>(rng.Next(3));
        int64_t count = (dim - 1 - lo) / step + 1;
        subs.push_back(Sub::Range(lo, count, step));
      }
    }
    if (all_index) break;  // scalar; stop slicing
    auto p2 = proxy->Subscript(subs);
    auto r2 = resident->Subscript(subs);
    ASSERT_TRUE(p2.ok());
    ASSERT_TRUE(r2.ok());
    proxy = *p2;
    resident = *r2;
  }
  NumericArray via_proxy = *proxy->Materialize();
  NumericArray via_resident = *resident->Materialize();
  EXPECT_TRUE(via_proxy.NumericEquals(via_resident));
  // Aggregates agree too.
  if (via_proxy.NumElements() > 0) {
    EXPECT_DOUBLE_EQ(*proxy->Aggregate(AggOp::kSum),
                     *resident->Aggregate(AggOp::kSum));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ArrayStorageRoundTrip,
                         ::testing::Range<uint64_t>(200, 215));

class ProtocolRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProtocolRoundTrip, RandomResultsSurviveWire) {
  Rng rng(GetParam());
  sparql::QueryResult r;
  size_t cols = 1 + rng.Next(4);
  for (size_t c = 0; c < cols; ++c) {
    r.columns.push_back("c" + std::to_string(c));
  }
  size_t nrows = rng.Next(20);
  for (size_t i = 0; i < nrows; ++i) {
    std::vector<Term> row;
    for (size_t c = 0; c < cols; ++c) {
      row.push_back(rng.Next(5) == 0 ? Term() : RandomLiteral(rng));
    }
    r.rows.push_back(std::move(row));
  }
  auto back = client::DeserializeResult(client::SerializeResult(r));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->rows.size(), r.rows.size());
  for (size_t i = 0; i < r.rows.size(); ++i) {
    for (size_t c = 0; c < cols; ++c) {
      if (r.rows[i][c].IsUndef()) {
        EXPECT_TRUE(back->rows[i][c].IsUndef());
      } else {
        EXPECT_EQ(back->rows[i][c], r.rows[i][c]);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolRoundTrip,
                         ::testing::Range<uint64_t>(300, 310));

}  // namespace
}  // namespace scisparql
