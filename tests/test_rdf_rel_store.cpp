#include <gtest/gtest.h>

#include "loaders/turtle.h"
#include "storage/rdf_rel_store.h"

namespace scisparql {
namespace {

class RdfRelStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = *relstore::Database::Open("");
    arrays_ = std::shared_ptr<RelationalArrayStorage>(
        std::move(*RelationalArrayStorage::Attach(db_.get())));
    store_ = *RdfRelationalStore::Attach(db_.get(), arrays_);
  }

  std::unique_ptr<relstore::Database> db_;
  std::shared_ptr<RelationalArrayStorage> arrays_;
  std::unique_ptr<RdfRelationalStore> store_;
};

TEST_F(RdfRelStoreTest, RoundTripAllTermKinds) {
  Graph g;
  loaders::TurtleOptions opts;
  ASSERT_TRUE(loaders::LoadTurtleString(R"(
@prefix ex: <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:res ex:b ;
     ex:blank _:x ;
     ex:int 42 ;
     ex:dbl 2.5 ;
     ex:str "text" ;
     ex:lang "chat"@fr ;
     ex:bool true ;
     ex:typed "2020-01-01"^^xsd:dateTime ;
     ex:arr ((1 2) (3 4)) .
)",
                                        &g, opts)
                  .ok());
  ASSERT_TRUE(store_->SaveGraph(g).ok());

  Graph loaded;
  ASSERT_TRUE(store_->LoadGraph(&loaded).ok());
  EXPECT_EQ(loaded.size(), g.size());
  Term a = Term::Iri("http://ex/a");
  EXPECT_TRUE(loaded.Contains(a, Term::Iri("http://ex/int"),
                              Term::Integer(42)));
  EXPECT_TRUE(loaded.Contains(a, Term::Iri("http://ex/dbl"),
                              Term::Double(2.5)));
  EXPECT_TRUE(loaded.Contains(a, Term::Iri("http://ex/lang"),
                              Term::LangString("chat", "fr")));
  EXPECT_TRUE(loaded.Contains(a, Term::Iri("http://ex/bool"),
                              Term::Boolean(true)));
  EXPECT_TRUE(loaded.Contains(
      a, Term::Iri("http://ex/typed"),
      Term::TypedLiteral("2020-01-01",
                         "http://www.w3.org/2001/XMLSchema#dateTime")));
}

TEST_F(RdfRelStoreTest, ArraysLoadAsLazyProxies) {
  Graph g;
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {100});
  for (int64_t i = 0; i < 100; ++i) a.SetDoubleAt(i, i);
  WriteBatch batch;
  batch.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/data"),
            Term::Array(ResidentArray::Make(a)));
  g.Apply(std::move(batch));
  ASSERT_TRUE(store_->SaveGraph(g).ok());

  Graph loaded;
  ASSERT_TRUE(store_->LoadGraph(&loaded).ok());
  auto ts = loaded.MatchAll(Term::Iri("http://ex/s"),
                            Term::Iri("http://ex/data"), Term());
  ASSERT_EQ(ts.size(), 1u);
  ASSERT_TRUE(ts[0].o.IsArray());
  EXPECT_FALSE(ts[0].o.array()->resident());  // lazy proxy
  EXPECT_EQ(ts[0].o.array()->shape(), (std::vector<int64_t>{100}));
  // Resolving gives back the data.
  NumericArray m = *ts[0].o.array()->Materialize();
  EXPECT_DOUBLE_EQ(m.DoubleAt(42), 42.0);
}

TEST_F(RdfRelStoreTest, ProxySavedByReferenceNotCopied) {
  // Store an array, build a proxy term, save a graph containing it: the
  // chunks must not be duplicated.
  NumericArray a = NumericArray::Zeros(ElementType::kDouble, {64});
  ArrayId id = *arrays_->Store(a, 16);
  auto proxy = *ArrayProxy::Open(arrays_, id);
  Graph g;
  WriteBatch batch;
  batch.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/p"),
            Term::Array(proxy));
  g.Apply(std::move(batch));
  ASSERT_TRUE(store_->SaveGraph(g).ok());
  Graph loaded;
  ASSERT_TRUE(store_->LoadGraph(&loaded).ok());
  auto ts = loaded.MatchAll(Term(), Term::Iri("http://ex/p"), Term());
  ASSERT_EQ(ts.size(), 1u);
  auto* p = dynamic_cast<const ArrayProxy*>(ts[0].o.array().get());
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->array_id(), id);  // same stored array
}

TEST_F(RdfRelStoreTest, PartitionCountsByValueType) {
  Graph g;
  loaders::TurtleOptions opts;
  ASSERT_TRUE(loaders::LoadTurtleString(R"(
@prefix ex: <http://ex/> .
ex:a ex:p ex:b . ex:a ex:q ex:c .
ex:a ex:n 1 . ex:a ex:m 2.5 .
ex:a ex:s "x" .
ex:a ex:arr (1 2 3) .
)",
                                        &g, opts)
                  .ok());
  ASSERT_TRUE(store_->SaveGraph(g).ok());
  auto counts = *store_->CountPartitions();
  EXPECT_EQ(counts.resources, 2u);
  EXPECT_EQ(counts.numbers, 2u);
  EXPECT_EQ(counts.literals, 1u);
  EXPECT_EQ(counts.arrays, 1u);
}

TEST_F(RdfRelStoreTest, PersistsAcrossDatabaseReopen) {
  std::string path = std::string(::testing::TempDir()) + "/rdf_store.db";
  std::remove(path.c_str());
  {
    auto db = *relstore::Database::Open(path);
    std::shared_ptr<RelationalArrayStorage> arrays(
        std::move(*RelationalArrayStorage::Attach(db.get())));
    auto store = *RdfRelationalStore::Attach(db.get(), arrays);
    Graph g;
    WriteBatch batch;
    batch.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/p"),
              Term::Array(ResidentArray::Make(*NumericArray::FromInts(
                  {3}, {7, 8, 9}))));
    batch.Add(Term::Iri("http://ex/s"), Term::Iri("http://ex/name"),
              Term::String("persisted"));
    g.Apply(std::move(batch));
    ASSERT_TRUE(store->SaveGraph(g).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  {
    auto db = *relstore::Database::Open(path);
    std::shared_ptr<RelationalArrayStorage> arrays(
        std::move(*RelationalArrayStorage::Attach(db.get())));
    auto store = *RdfRelationalStore::Attach(db.get(), arrays);
    Graph loaded;
    ASSERT_TRUE(store->LoadGraph(&loaded).ok());
    EXPECT_EQ(loaded.size(), 2u);
    auto ts = loaded.MatchAll(Term(), Term::Iri("http://ex/p"), Term());
    ASSERT_EQ(ts.size(), 1u);
    EXPECT_EQ(ts[0].o.array()->Materialize()->ToString(), "[7, 8, 9]");
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace scisparql
