// Direct tests of the Sinew functions (Sections 3.2.2 / 4.1): typed and
// chain extraction through the registered batch extractor (the path every
// virtual-column reference reads through, in a scan and in the scalar
// evaluator), reservoir functional updates, containment, rendering.

#include <gtest/gtest.h>

#include "engine/eval.h"
#include "engine/udf.h"
#include "json/json.h"
#include "scalar_eval.h"
#include "serial/sinew_format.h"
#include "sinew/catalog.h"
#include "sinew/extract_functions.h"

namespace sinew {
namespace {

using engine::Datum;
using engine::Expr;
using engine::ExtractTarget;

class ExtractFunctionsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RegisterSinewFunctions(&udfs_, &catalog_);
    Value doc = *json::Parse(
        R"({"url": "x.com", "hits": 22, "ok": true, "score": 1.5,
            "user": {"id": 7, "geo": {"cc": "pl"}},
            "tags": ["a", "b"]})");
    auto blob = serial::SerializeDocument(doc, &catalog_);
    ASSERT_TRUE(blob.ok());
    data_ = Datum::Bytes(*blob);
  }

  Result<Datum> Call(const std::string& fn, std::vector<Datum> args) {
    const engine::UdfFn* f = udfs_.Find(fn);
    EXPECT_NE(f, nullptr) << fn;
    engine::UdfArgs ptrs;
    for (const Datum& a : args) ptrs.push_back(&a);
    return (*f)(ptrs);
  }

  uint32_t Id(const std::string& key, ValueType type) {
    return *catalog_.FindId(key, type);
  }

  /// The target of `path` typed `type`: its dotted prefixes' object ids,
  /// then its own id (99999, never interned, when it has none).
  ExtractTarget Target(const std::string& path, ValueType type,
                       bool raw = false) {
    ExtractTarget t;
    for (size_t dot = path.find('.'); dot != std::string::npos;
         dot = path.find('.', dot + 1)) {
      t.prefix_ids.push_back(Id(path.substr(0, dot), ValueType::kObject));
    }
    t.attr_id = catalog_.FindId(path, type).value_or(99999);
    t.raw_bytes = raw;
    t.type_tag = static_cast<int64_t>(type);
    return t;
  }

  /// Extracts `target` from `doc` with the registered batch extractor;
  /// NULL when the document does not hold it.
  Result<Datum> Extract(const Datum& doc, const ExtractTarget& target) {
    const engine::BatchExtractFn* fn = udfs_.batch_extract();
    EXPECT_NE(fn, nullptr);
    std::vector<engine::ExtractedValue> out;
    engine::BatchExtractStats stats;
    RETURN_NOT_OK((*fn)({doc.str()}, {target}, &out, &stats));
    return out.empty() ? Datum::Null() : std::move(out[0].value);
  }

  Datum Get(const Datum& doc, const std::string& path, ValueType type) {
    Result<Datum> v = Extract(doc, Target(path, type));
    EXPECT_TRUE(v.ok()) << v.status().ToString();
    return v.ok() ? *v : Datum::Null();
  }

  /// A virtual-column reference to every typed variant of `path` over one
  /// source column, evaluated by the scalar evaluator over a row holding
  /// `source`.
  Result<Datum> ReadAny(const Datum& source, const std::string& path) {
    std::vector<ExtractTarget> targets;
    for (const serial::Attribute& attr : catalog_.FindAllTypes(path)) {
      targets.push_back(Target(path, attr.type));
    }
    std::sort(targets.begin(), targets.end());
    std::vector<engine::ExprPtr> sources;
    sources.push_back(Expr::Column("", "_data"));
    sources[0]->bound_slot = 0;
    engine::ExprPtr ref =
        Expr::Virtual(path, std::move(sources), {std::move(targets)});
    return engine::EvalExpr(*ref, {source}, &udfs_);
  }

  AttributeCatalog catalog_;
  engine::UdfRegistry udfs_;
  Datum data_;
};

TEST_F(ExtractFunctionsTest, TypedExtractorsRespectTypes) {
  EXPECT_EQ(Get(data_, "url", ValueType::kString).str(), "x.com");
  EXPECT_EQ(Get(data_, "hits", ValueType::kInt).int_value(), 22);
  EXPECT_TRUE(Get(data_, "ok", ValueType::kBool).bool_value());
  EXPECT_EQ(Get(data_, "score", ValueType::kDouble).double_value(), 1.5);
  // Wrong type -> NULL, not an error (the multi-typed-key contract).
  EXPECT_TRUE(Get(data_, "url", ValueType::kInt).is_null());
  EXPECT_TRUE(Get(data_, "missing", ValueType::kString).is_null());
  // NULL data -> NULL.
  EXPECT_TRUE(ReadAny(Datum::Null(), "url")->is_null());
}

TEST_F(ExtractFunctionsTest, NumAndAnyExtractors) {
  // Any: natural type for scalars, JSON text for collections.
  EXPECT_EQ(ReadAny(data_, "hits")->int_value(), 22);
  EXPECT_EQ(ReadAny(data_, "score")->double_value(), 1.5);
  EXPECT_EQ(ReadAny(data_, "tags")->str(), R"(["a","b"])");
  EXPECT_EQ(ReadAny(data_, "user")->str(), R"({"id":7,"geo":{"cc":"pl"}})");
  // A document holding a key under two types yields the lower type tag.
  auto both = serial::SerializeDocument(
      *json::Parse(R"({"dual": "s", "dual": 3})"), &catalog_);
  ASSERT_TRUE(both.ok());
  EXPECT_EQ(ReadAny(Datum::Bytes(*both), "dual")->int_value(), 3);
}

TEST_F(ExtractFunctionsTest, DeepNestedPaths) {
  EXPECT_EQ(Get(data_, "user.geo.cc", ValueType::kString).str(), "pl");
  EXPECT_EQ(Get(data_, "user.id", ValueType::kInt).int_value(), 7);
  EXPECT_EQ(ReadAny(data_, "user.geo.cc")->str(), "pl");
}

TEST_F(ExtractFunctionsTest, ChainExtraction) {
  // Chain ids resolved by hand: descend user -> user.geo -> user.geo.cc.
  ExtractTarget cc;
  cc.prefix_ids = {Id("user", ValueType::kObject),
                   Id("user.geo", ValueType::kObject)};
  cc.attr_id = Id("user.geo.cc", ValueType::kString);
  cc.type_tag = static_cast<int64_t>(ValueType::kString);
  auto v = Extract(data_, cc);
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_EQ(v->str(), "pl");
  // Missing id along the chain -> NULL.
  ExtractTarget miss = cc;
  miss.prefix_ids = {99999};
  EXPECT_TRUE(Extract(data_, miss)->is_null());
  // Raw bytes return the nested document verbatim.
  auto raw = Extract(data_, Target("user", ValueType::kObject, true));
  ASSERT_TRUE(raw.ok());
  EXPECT_TRUE(raw->is_bytes());
  EXPECT_TRUE(serial::DocumentView(raw->str()).Validate().ok());
}

TEST_F(ExtractFunctionsTest, ArrayContains) {
  auto tags = Extract(data_, Target("tags", ValueType::kArray, true));
  ASSERT_TRUE(tags.ok());
  EXPECT_TRUE(Call("sinew_array_contains", {*tags, Datum::Text("a")})
                  ->bool_value());
  EXPECT_FALSE(Call("sinew_array_contains", {*tags, Datum::Text("z")})
                   ->bool_value());
  EXPECT_TRUE(Call("sinew_array_contains", {Datum::Null(), Datum::Text("a")})
                  ->is_null());
  // The rewritten shape of array_contains over a virtual array: the
  // containment test over a raw-bytes virtual reference to it.
  std::vector<engine::ExprPtr> sources;
  sources.push_back(Expr::Column("", "_data"));
  sources[0]->bound_slot = 0;
  std::vector<engine::ExprPtr> args;
  args.push_back(Expr::Virtual("tags", std::move(sources),
                               {{Target("tags", ValueType::kArray, true)}}));
  args.push_back(Expr::Literal(Datum::Text("b")));
  engine::ExprPtr contains =
      Expr::Function("sinew_array_contains", std::move(args));
  Result<Datum> in = engine::EvalExpr(*contains, {data_}, &udfs_);
  ASSERT_TRUE(in.ok()) << in.status().ToString();
  EXPECT_TRUE(in->bool_value());
  contains->args[1] = Expr::Literal(Datum::Text("z"));
  Result<Datum> out = engine::EvalExpr(*contains, {data_}, &udfs_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(out->bool_value());
}

TEST_F(ExtractFunctionsTest, ReservoirSetReplaceAndTypeSwap) {
  // Replace an int with an int.
  auto updated = Call("sinew_reservoir_set",
                      {data_, Datum::Text("hits"), Datum::Int(99)});
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(Get(*updated, "hits", ValueType::kInt).int_value(), 99);
  // Swap the type: int attribute disappears, string appears.
  auto swapped = Call("sinew_reservoir_set",
                      {*updated, Datum::Text("hits"), Datum::Text("many")});
  ASSERT_TRUE(swapped.ok());
  EXPECT_TRUE(Get(*swapped, "hits", ValueType::kInt).is_null());
  EXPECT_EQ(Get(*swapped, "hits", ValueType::kString).str(), "many");
  // Set NULL removes every typed variant.
  auto cleared = Call("sinew_reservoir_set",
                      {*swapped, Datum::Text("hits"), Datum::Null()});
  EXPECT_TRUE(ReadAny(*cleared, "hits")->is_null());
  // Remove is equivalent for existing values.
  auto removed =
      Call("sinew_reservoir_remove", {data_, Datum::Text("url")});
  EXPECT_TRUE(ReadAny(*removed, "url")->is_null());
  // Untouched keys survive every transformation.
  EXPECT_TRUE(Get(*removed, "ok", ValueType::kBool).bool_value());
}

TEST_F(ExtractFunctionsTest, ReservoirSetOnNullStartsEmptyDocument) {
  auto fresh = Call("sinew_reservoir_set",
                    {Datum::Null(), Datum::Text("k"), Datum::Int(1)});
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(Get(*fresh, "k", ValueType::kInt).int_value(), 1);
}

TEST_F(ExtractFunctionsTest, RenderFunctions) {
  auto user_bytes = Extract(data_, Target("user", ValueType::kObject, true));
  ASSERT_TRUE(user_bytes->is_bytes());
  EXPECT_EQ(Call("sinew_render_object", {*user_bytes})->str(),
            R"({"id":7,"geo":{"cc":"pl"}})");
  auto tags_bytes = Extract(data_, Target("tags", ValueType::kArray, true));
  EXPECT_EQ(Call("sinew_render_array", {*tags_bytes})->str(), R"(["a","b"])");
  EXPECT_EQ(Call("sinew_reconstruct", {data_})->str(),
            R"({"url":"x.com","hits":22,"ok":true,"score":1.5,)"
            R"("user":{"id":7,"geo":{"cc":"pl"}},"tags":["a","b"]})");
}

TEST_F(ExtractFunctionsTest, ArgumentValidation) {
  // A virtual-column source must be serialized data.
  EXPECT_FALSE(ReadAny(Datum::Text("not bytes"), "url").ok());
  EXPECT_FALSE(Call("sinew_array_contains", {data_}).ok());
  EXPECT_FALSE(
      Call("sinew_array_contains", {Datum::Int(1), Datum::Text("a")}).ok());
  EXPECT_FALSE(Call("sinew_render_object", {Datum::Int(1)}).ok());
}

}  // namespace
}  // namespace sinew
