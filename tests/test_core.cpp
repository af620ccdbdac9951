// Unit tests for the core utility layer: RNG determinism and statistics,
// modular/integer math, table and CSV formatting, argument parsing.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>

#include "core/args.hpp"
#include "core/blob.hpp"
#include "core/csv.hpp"
#include "core/error.hpp"
#include "core/json.hpp"
#include "core/mathutil.hpp"
#include "core/rng.hpp"
#include "core/table.hpp"
#include "sim/arbitration.hpp"

namespace otis::core {
namespace {

TEST(Error, RequireThrowsWithLocation) {
  try {
    OTIS_REQUIRE(false, "boom");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("test_core.cpp"), std::string::npos);
  }
}

TEST(Error, AssertMarksInternal) {
  try {
    OTIS_ASSERT(false, "invariant");
    FAIL() << "should have thrown";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("internal invariant"),
              std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) {
      ++equal;
    }
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, StreamsAreIndependent) {
  Rng a = Rng::stream(7, 0);
  Rng b = Rng::stream(7, 1);
  EXPECT_NE(a(), b());
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    seen.insert(rng.uniform(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
}

TEST(Rng, UniformRealInHalfOpenUnit) {
  Rng rng(11);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform_real();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(13);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyFair) {
  Rng rng(17);
  int heads = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    heads += rng.bernoulli(0.5) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

// Slotted aloha reads each contender's coin as bit 63 of its raw draw
// (sim::detail::aloha_coin). That is bernoulli(0.5)'s decision only
// because uniform_real() is (x >> 11) * 2^-53: < 0.5 iff x < 2^63.
TEST(Rng, FairCoinIsBit63OfTheDraw) {
  constexpr std::uint64_t kHalf = std::uint64_t{1} << 63;
  const std::uint64_t edges[] = {0,
                                 kHalf - (std::uint64_t{1} << 11),
                                 kHalf - 1,
                                 kHalf,
                                 kHalf + (std::uint64_t{1} << 11),
                                 ~std::uint64_t{0}};
  for (const std::uint64_t x : edges) {
    SCOPED_TRACE(x);
    const bool heads = static_cast<double>(x >> 11) * 0x1.0p-53 < 0.5;
    EXPECT_EQ(heads, x < kHalf);
    EXPECT_EQ(sim::detail::aloha_coin(x), heads ? ~std::uint64_t{0} : 0);
  }
}

TEST(Rng, FairBernoulliMatchesBit63DrawForDraw) {
  Rng coins(31);
  Rng raw(31);
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t x = raw();
    const bool heads = coins.bernoulli(0.5);
    ASSERT_EQ(heads, (x >> 63) == 0) << "draw " << i;
    ASSERT_EQ(sim::detail::aloha_coin(x), heads ? ~std::uint64_t{0} : 0)
        << "draw " << i;
  }
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(21);
  auto p = rng.permutation(50);
  std::set<std::size_t> values(p.begin(), p.end());
  EXPECT_EQ(values.size(), 50u);
  EXPECT_EQ(*values.begin(), 0u);
  EXPECT_EQ(*values.rbegin(), 49u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng rng(23);
  auto s = rng.sample_without_replacement(100, 10);
  std::set<std::size_t> values(s.begin(), s.end());
  EXPECT_EQ(values.size(), 10u);
  for (std::size_t v : values) {
    EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleRejectsOversizedRequest) {
  Rng rng(25);
  EXPECT_THROW(rng.sample_without_replacement(3, 4), Error);
}

TEST(Blob, VectorLengthPastTheBlobThrows) {
  // 2^61 + 1 elements of 8 bytes wrap a 64-bit byte count to 8, which
  // a check on pos + n * 8 lets through.
  for (const std::uint64_t n :
       {(std::uint64_t{1} << 61) + 1, std::uint64_t{2}}) {
    BlobWriter out;
    out.put_u64(n);
    out.put_i64(7);
    BlobReader in(out.bytes());
    EXPECT_THROW((void)in.get_i64_vec(), Error) << n;
  }
  BlobWriter out;
  out.put_i64_vec({3, -4});
  BlobReader in(out.bytes());
  EXPECT_EQ(in.get_i64_vec(), (std::vector<std::int64_t>{3, -4}));
  EXPECT_TRUE(in.at_end());
}

TEST(MathUtil, FloorModMatchesMathConvention) {
  EXPECT_EQ(floor_mod(7, 3), 1);
  EXPECT_EQ(floor_mod(-7, 3), 2);
  EXPECT_EQ(floor_mod(-3, 3), 0);
  EXPECT_EQ(floor_mod(0, 5), 0);
  EXPECT_EQ(floor_mod(-1, 12), 11);
}

TEST(MathUtil, IpowSmallCases) {
  EXPECT_EQ(ipow(2, 10), 1024);
  EXPECT_EQ(ipow(3, 0), 1);
  EXPECT_EQ(ipow(5, 3), 125);
  EXPECT_EQ(ipow(1, 62), 1);
}

TEST(MathUtil, IpowOverflowThrows) {
  EXPECT_THROW((void)ipow(10, 20), Error);
}

TEST(MathUtil, CeilLogMatchesDefinition) {
  EXPECT_EQ(ceil_log(2, 1), 0u);
  EXPECT_EQ(ceil_log(2, 2), 1u);
  EXPECT_EQ(ceil_log(2, 3), 2u);
  EXPECT_EQ(ceil_log(3, 12), 3u);  // 3^2 = 9 < 12 <= 27 = 3^3
  EXPECT_EQ(ceil_log(3, 27), 3u);
  EXPECT_EQ(ceil_log(5, 3750), 6u);
}

TEST(MathUtil, FloorLogMatchesDefinition) {
  EXPECT_EQ(floor_log(2, 1), 0u);
  EXPECT_EQ(floor_log(2, 7), 2u);
  EXPECT_EQ(floor_log(2, 8), 3u);
  EXPECT_EQ(floor_log(10, 999), 2u);
}

TEST(MathUtil, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(7, 13), 1);
}

TEST(MathUtil, IsPowerOf) {
  EXPECT_TRUE(is_power_of(2, 64));
  EXPECT_TRUE(is_power_of(3, 1));
  EXPECT_FALSE(is_power_of(2, 12));
  EXPECT_FALSE(is_power_of(3, 0));
}

TEST(MathUtil, KautzOrderMatchesPaperExamples) {
  // Paper Sec. 2.5 claims "KG(5,4) has N = 3750 nodes", but by its own
  // formula N = d^{k-1}(d+1), KG(5,4) has 6 * 5^3 = 750 nodes; 3750 is
  // KG(5,5). We implement the formula, not the typo (see EXPERIMENTS.md).
  EXPECT_EQ(kautz_order(5, 4), 750);
  EXPECT_EQ(kautz_order(5, 5), 3750);
  EXPECT_EQ(kautz_order(3, 2), 12);
  EXPECT_EQ(kautz_order(2, 3), 12);
  EXPECT_EQ(kautz_order(2, 1), 3);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  Table table({"name", "value"});
  table.add("alpha", 1);
  table.add("b", 22.5);
  EXPECT_EQ(table.row_count(), 2u);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22.500"), std::string::npos);
  // Header rule present.
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, BoolsRenderAsYesNo) {
  Table table({"flag"});
  table.add(true);
  table.add(false);
  const std::string text = table.to_string();
  EXPECT_NE(text.find("yes"), std::string::npos);
  EXPECT_NE(text.find("no"), std::string::npos);
}

TEST(FormatDouble, Precision) {
  EXPECT_EQ(format_double(1.23456, 2), "1.23");
  EXPECT_EQ(format_double(-0.5, 1), "-0.5");
}

TEST(Csv, WritesHeaderAndEscapes) {
  const std::string path = "/tmp/otisnet_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.write_row({"1", "x,y"});
    csv.write_row({"2", "say \"hi\""});
  }
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  EXPECT_NE(text.find("a,b\n"), std::string::npos);
  EXPECT_NE(text.find("\"x,y\""), std::string::npos);
  EXPECT_NE(text.find("\"say \"\"hi\"\"\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWrongColumnCount) {
  const std::string path = "/tmp/otisnet_test2.csv";
  CsvWriter csv(path, {"a", "b"});
  EXPECT_THROW(csv.write_row({"only-one"}), Error);
  std::remove(path.c_str());
}

TEST(Args, ParsesEqualsAndSpaceForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta", "4", "pos1"};
  Args args(5, argv);
  EXPECT_EQ(args.get_int("alpha", 0), 3);
  EXPECT_EQ(args.get_int("beta", 0), 4);
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "pos1");
}

TEST(Args, DefaultsAndFlags) {
  const char* argv[] = {"prog", "--verbose"};
  Args args(2, argv);
  EXPECT_TRUE(args.has("verbose"));
  EXPECT_FALSE(args.has("quiet"));
  EXPECT_EQ(args.get("mode", "fast"), "fast");
  EXPECT_DOUBLE_EQ(args.get_double("load", 0.5), 0.5);
}

TEST(Args, UnknownOptionRejectedWithSpec) {
  const char* argv[] = {"prog", "--typo=1"};
  EXPECT_THROW(Args(2, argv, {"load", "seed"}), Error);
}

TEST(Args, NonNumericValueThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  Args args(2, argv);
  EXPECT_THROW((void)args.get_int("n", 0), Error);
}

TEST(Json, ParsesNestedDocument) {
  const Json doc = Json::parse(R"({
    "name": "grid é\n",
    "count": 42,
    "ratio": -1.5e2,
    "on": true,
    "off": false,
    "nothing": null,
    "list": [1, [2, 3], {"k": "v"}]
  })");
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.at("name").as_string(), "grid \xC3\xA9\n");
  EXPECT_EQ(doc.at("count").as_int(), 42);
  EXPECT_DOUBLE_EQ(doc.at("ratio").as_number(), -150.0);
  EXPECT_TRUE(doc.at("on").as_bool());
  EXPECT_FALSE(doc.at("off").as_bool());
  EXPECT_TRUE(doc.at("nothing").is_null());
  const auto& list = doc.at("list").items();
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[1].items()[1].as_int(), 3);
  EXPECT_EQ(list[2].at("k").as_string(), "v");
  EXPECT_EQ(doc.find("missing"), nullptr);
  EXPECT_EQ(doc.int_or("missing", 7), 7);
  EXPECT_EQ(doc.string_or("name", "x"), "grid \xC3\xA9\n");
}

TEST(Json, SurrogatePairsDecodeToUtf8) {
  EXPECT_EQ(Json::parse(R"("\uD83D\uDE00")").as_string(),
            "\xF0\x9F\x98\x80");  // U+1F600 via a surrogate pair
  EXPECT_EQ(Json::parse(R"("\u00e9A")").as_string(),
            "\xC3\xA9"
            "A");
  EXPECT_THROW(Json::parse(R"("\uD83D")"), Error);   // lone high
  EXPECT_THROW(Json::parse(R"("\uDE00")"), Error);   // lone low
  EXPECT_THROW(Json::parse(R"("\uD83DA")"), Error);  // broken pair
}

TEST(Json, IntegerLiteralsAreExact) {
  // Integer literals keep their exact int64 value; a double would round
  // 2^53 + 1 down to 2^53.
  EXPECT_EQ(Json::parse("9007199254740993").as_int(), 9007199254740993);
  EXPECT_EQ(Json::parse("9223372036854775807").as_int(),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(Json::parse("-9223372036854775808").as_int(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_DOUBLE_EQ(Json::parse("9007199254740993").as_number(), 0x1p53);
  EXPECT_THROW((void)Json::parse("9223372036854775808").as_int(), Error);
  EXPECT_THROW((void)Json::parse("-9223372036854775809").as_int(), Error);
  // A fraction or exponent converts only below 2^53, where every
  // integer is an exact double.
  EXPECT_EQ(Json::parse("1e3").as_int(), 1000);
  EXPECT_EQ(Json::parse("-2.0").as_int(), -2);
  EXPECT_EQ(Json::parse("9007199254740991.0").as_int(), 9007199254740991);
  EXPECT_THROW((void)Json::parse("9.007199254740993e15").as_int(), Error);
  EXPECT_THROW((void)Json::parse("9007199254740992.0").as_int(), Error);
  EXPECT_THROW((void)Json::parse("1e19").as_int(), Error);
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), Error);
  EXPECT_THROW(Json::parse("{"), Error);
  EXPECT_THROW(Json::parse("{\"a\": 1,}"), Error);
  EXPECT_THROW(Json::parse("[1 2]"), Error);
  EXPECT_THROW(Json::parse("tru"), Error);
  EXPECT_THROW(Json::parse("\"unterminated"), Error);
  EXPECT_THROW(Json::parse("1.5 extra"), Error);
  EXPECT_THROW(Json::parse("01a"), Error);
  // Type errors surface as core::Error, and as_int rejects fractions.
  EXPECT_THROW((void)Json::parse("[]").as_bool(), Error);
  EXPECT_THROW((void)Json::parse("1.25").as_int(), Error);
}

TEST(Json, NestingIsBoundedBeforeTheStack) {
  // The parser recurses once per array or object level: the limit
  // parses, one level more throws, and so does a hostile document far
  // past it, which would otherwise overflow the stack.
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  const auto objects = [](int depth) {
    std::string text;
    for (int i = 0; i < depth; ++i) {
      text += "{\"a\":";
    }
    return text + "1" + std::string(static_cast<std::size_t>(depth), '}');
  };
  EXPECT_TRUE(Json::parse(arrays(Json::kMaxDepth)).is_array());
  EXPECT_TRUE(Json::parse(objects(Json::kMaxDepth)).is_object());
  EXPECT_THROW(Json::parse(arrays(Json::kMaxDepth + 1)), Error);
  EXPECT_THROW(Json::parse(objects(Json::kMaxDepth + 1)), Error);
  EXPECT_THROW(Json::parse(arrays(100'000)), Error);
  EXPECT_THROW(Json::parse(std::string(100'000, '[')), Error);

  // From a file, the error names the file.
  const std::filesystem::path path =
      std::filesystem::temp_directory_path() /
      ("otis_deep_" + std::to_string(::getpid()) + ".json");
  std::ofstream(path) << arrays(100'000);
  try {
    (void)Json::parse_file(path.string());
    ADD_FAILURE() << "a 100,000-deep file parsed";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(path.string()),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find("nesting"), std::string::npos)
        << error.what();
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace otis::core
