// Tests for util/json.hpp — the self-contained JSON DOM: its value API, the
// compact object layout's contract (key-ordered dumps whatever the insertion
// order, last duplicate wins, sort-once parsing), byte-pinned dumps of a
// 100/400 scenario and its schedule, and a seeded mutation sweep that must
// never crash, hang, or accept text it cannot round-trip.
#include "util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "baseline/greedy_utility.hpp"
#include "io/scenario_io.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace haste::util {
namespace {

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::vector<std::string> keys_of(const Json& object) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : object.items()) keys.push_back(key);
  return keys;
}

TEST(Json, DefaultIsNull) {
  const Json j;
  EXPECT_TRUE(j.is_null());
  EXPECT_EQ(j.dump(), "null");
}

TEST(Json, Scalars) {
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, ArraysAndObjects) {
  Json array = Json::array();
  array.push_back(1);
  array.push_back("two");
  array.push_back(Json::object());
  EXPECT_EQ(array.size(), 3u);
  EXPECT_EQ(array.at(0).as_int(), 1);
  EXPECT_EQ(array.at(1).as_string(), "two");
  EXPECT_TRUE(array.at(2).is_object());

  Json object = Json::object();
  object.set("a", 1.5);
  object.set("b", true);
  EXPECT_TRUE(object.contains("a"));
  EXPECT_FALSE(object.contains("z"));
  EXPECT_DOUBLE_EQ(object.at("a").as_number(), 1.5);
}

TEST(Json, TypeMismatchesThrow) {
  const Json j(1.5);
  EXPECT_THROW(j.as_string(), JsonError);
  EXPECT_THROW(j.as_bool(), JsonError);
  EXPECT_THROW(j.at("key"), JsonError);
  EXPECT_THROW(j.at(std::size_t{0}), JsonError);
  EXPECT_THROW(j.as_int(), JsonError);  // 1.5 not integral
  EXPECT_EQ(Json(3.0).as_int(), 3);
}

TEST(Json, ParseScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_DOUBLE_EQ(Json::parse("-12.75e1").as_number(), -127.5);
  EXPECT_EQ(Json::parse("\"a b\"").as_string(), "a b");
}

TEST(Json, ParseNested) {
  const Json j = Json::parse(R"({"xs": [1, 2, {"deep": [true, null]}], "s": "x"})");
  EXPECT_EQ(j.at("xs").size(), 3u);
  EXPECT_TRUE(j.at("xs").at(2).at("deep").at(0).as_bool());
  EXPECT_TRUE(j.at("xs").at(2).at("deep").at(1).is_null());
}

TEST(Json, ParseWhitespaceTolerant) {
  EXPECT_NO_THROW(Json::parse("  { \"a\" :\n [ 1 ,\t2 ] }  "));
}

TEST(Json, ParseErrors) {
  EXPECT_THROW(Json::parse(""), JsonError);
  EXPECT_THROW(Json::parse("{"), JsonError);
  EXPECT_THROW(Json::parse("[1,]"), JsonError);
  EXPECT_THROW(Json::parse("[1] trailing"), JsonError);
  EXPECT_THROW(Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW(Json::parse("truth"), JsonError);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), JsonError);
  EXPECT_THROW(Json::parse("01x"), JsonError);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string original = "line\nquote\"back\\slash\ttab";
  const Json j(original);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), original);
}

TEST(Json, UnicodeEscapesParse) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");   // e-acute
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // euro
  EXPECT_THROW(Json::parse("\"\\ud800\""), JsonError);  // surrogate rejected
}

TEST(Json, NumbersRoundTripExactly) {
  for (double value : {0.0, 1.0, -2.5, 0.1, 1e-12, 3.141592653589793, 1e18}) {
    EXPECT_EQ(Json::parse(Json(value).dump()).as_number(), value);
  }
}

TEST(Json, DeepDocumentRoundTrip) {
  Json root = Json::object();
  Json tasks = Json::array();
  for (int i = 0; i < 20; ++i) {
    Json t = Json::object();
    t.set("id", i);
    t.set("x", 0.125 * i);
    t.set("label", "task-" + std::to_string(i));
    tasks.push_back(std::move(t));
  }
  root.set("tasks", std::move(tasks));
  root.set("meta", Json::object()).set("version", 2);

  for (int indent : {-1, 0, 2, 4}) {
    const Json reparsed = Json::parse(root.dump(indent));
    EXPECT_EQ(reparsed.at("tasks").size(), 20u) << "indent " << indent;
    EXPECT_EQ(reparsed.at("tasks").at(7).at("label").as_string(), "task-7");
  }
}

TEST(Json, NestingDepthLimit) {
  std::string deep(200, '[');
  deep += std::string(200, ']');
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(Json, NonFiniteLiteralsParseButStayUnserializable) {
  // google-benchmark emits bare NaN/Infinity in its JSON dumps (the cv
  // aggregate of a zero-variance counter); bench_compare must be able to
  // load such files, so the parser accepts the literals. dump() stays
  // strict — see NonFiniteNumbersRejectedOnDump.
  EXPECT_TRUE(std::isnan(Json::parse("NaN").as_number()));
  EXPECT_EQ(Json::parse("Infinity").as_number(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(Json::parse("-Infinity").as_number(),
            -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(Json::parse(R"({"cv": NaN})").at("cv").as_number()));
  // Prefixes and case variants are still errors, not silently-parsed junk.
  EXPECT_THROW(Json::parse("Nan"), JsonError);
  EXPECT_THROW(Json::parse("Inf"), JsonError);
  EXPECT_THROW(Json::parse("-Inf"), JsonError);
}

TEST(Json, NonFiniteNumbersRejectedOnDump) {
  EXPECT_THROW(Json(std::numeric_limits<double>::infinity()).dump(), JsonError);
  EXPECT_THROW(Json(std::numeric_limits<double>::quiet_NaN()).dump(), JsonError);
}

TEST(Json, DefaultLookups) {
  const Json j = Json::parse(R"({"present": 5, "name": "x", "flag": true})");
  EXPECT_DOUBLE_EQ(j.number_or("present", 1.0), 5.0);
  EXPECT_DOUBLE_EQ(j.number_or("absent", 1.0), 1.0);
  EXPECT_EQ(j.string_or("name", "y"), "x");
  EXPECT_EQ(j.string_or("missing", "y"), "y");
  EXPECT_TRUE(j.bool_or("flag", false));
  EXPECT_FALSE(j.bool_or("missing", false));
}

TEST(Json, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "haste_json_test.json";
  Json value = Json::object();
  value.set("answer", 42);
  save_json_file(path, value);
  const Json loaded = load_json_file(path);
  EXPECT_EQ(loaded.at("answer").as_int(), 42);
  std::remove(path.c_str());
  EXPECT_THROW(load_json_file(path), std::runtime_error);
}


TEST(JsonObject, DumpsInKeyOrderWhateverTheInsertionOrder) {
  const std::vector<std::string> keys = {"slot", "charger", "orientation_rad", "b",
                                         "orientation_deg", "a", "zz", ""};
  Json forward = Json::object();
  for (std::size_t i = 0; i < keys.size(); ++i) {
    forward.set(keys[i], static_cast<int>(i));
  }
  Json backward = Json::object();
  for (std::size_t i = keys.size(); i-- > 0;) {
    backward.set(keys[i], static_cast<int>(i));
  }
  EXPECT_EQ(forward.dump(), backward.dump());
  EXPECT_EQ(forward.dump(),
            R"({"":7,"a":5,"b":3,"charger":1,"orientation_deg":4,"orientation_rad":2,)"
            R"("slot":0,"zz":6})");
  // Overwriting keeps one member per key, in place.
  forward.set("b", "again");
  EXPECT_EQ(forward.size(), keys.size());
  EXPECT_EQ(forward.at("b").as_string(), "again");
}

TEST(JsonObject, ParsedDuplicateKeyKeepsItsLastValue) {
  const Json parsed = Json::parse(R"({"b": 1, "a": 2, "b": 3, "c": 4, "a": 5, "b": 6})");
  EXPECT_EQ(parsed.size(), 3u);
  EXPECT_EQ(parsed.at("a").as_int(), 5);
  EXPECT_EQ(parsed.at("b").as_int(), 6);
  EXPECT_EQ(parsed.at("c").as_int(), 4);
  EXPECT_EQ(parsed.dump(), R"({"a":5,"b":6,"c":4})");
  // Already-sorted text with a repeated key takes the sorting path too.
  EXPECT_EQ(Json::parse(R"({"a": 1, "a": 2})").dump(), R"({"a":2})");
}

TEST(JsonObject, BuiltInOneStepLikeParsedAndSetByKey) {
  // The one-step factory sorts its members and keeps a repeated key's last
  // value, exactly as parsing the same members in the same order would.
  const Json built = Json::object({{"slot", 3}, {"charger", 1}, {"b", "x"}, {"charger", 2}});
  EXPECT_EQ(built.dump(), R"({"b":"x","charger":2,"slot":3})");
  EXPECT_EQ(built.dump(), Json::parse(R"({"slot":3,"charger":1,"b":"x","charger":2})").dump());
  EXPECT_EQ(Json::object({}).dump(), "{}");
  Json array = Json::array();
  array.reserve(8);
  EXPECT_EQ(array.size(), 0u);
  EXPECT_THROW(Json(1).reserve(2), JsonError);
}

TEST(JsonObject, ItemsIterateInSortedOrder) {
  const Json parsed = Json::parse(R"({"zeta": 1, "alpha": 2, "Mid": 3, "beta": {"y": 1, "x": 2}})");
  EXPECT_EQ(keys_of(parsed), (std::vector<std::string>{"Mid", "alpha", "beta", "zeta"}));
  EXPECT_EQ(keys_of(parsed.at("beta")), (std::vector<std::string>{"x", "y"}));
  EXPECT_THROW(Json::array().items(), JsonError);
}

// The dumps of a 100/400 paper-preset scenario and of a schedule for it,
// pinned byte for byte (FNV-1a of the text) at values captured with the
// std::map-backed DOM this layout replaced.
TEST(JsonObject, ScenarioAndScheduleDumpsAreBytePinned) {
  sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
  config.chargers = 100;
  config.tasks = 400;
  util::Rng rng(2018);
  const model::Network net = sim::generate_scenario(config, rng);
  const Json scenario = io::network_to_json(net);
  const Json schedule = io::schedule_to_json(baseline::schedule_greedy_utility(net));
  EXPECT_EQ(fnv1a(scenario.dump()), 0xfdb4b6f0e89d35acULL);
  EXPECT_EQ(fnv1a(scenario.dump(2)), 0xb22b152d4504422eULL);
  EXPECT_EQ(fnv1a(schedule.dump()), 0x25b29b90f11a050eULL);
  EXPECT_EQ(fnv1a(schedule.dump(2)), 0x102948910629debeULL);
  for (const Json* document : {&scenario, &schedule}) {
    EXPECT_EQ(Json::parse(document->dump()).dump(), document->dump());
    EXPECT_EQ(Json::parse(document->dump(2)).dump(2), document->dump(2));
  }
}

// Parsing collects an object's members and sorts them once; inserting each
// into the sorted vector as it arrives would be quadratic in the key count
// for keys written in descending order. The ctest TIMEOUT bounds this case.
TEST(JsonObject, HundredThousandDescendingKeysParseFast) {
  constexpr int kKeys = 100'000;
  std::string text = "{";
  for (int i = kKeys; i-- > 0;) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%06d", i);
    text += '"';
    text += key;
    text += "\":";
    text += std::to_string(i);
    if (i != 0) text += ',';
  }
  text += '}';
  const Json parsed = Json::parse(text);
  ASSERT_EQ(parsed.size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(parsed.items().begin()->first, "k000000");
  EXPECT_EQ(parsed.items().rbegin()->first, "k099999");
  EXPECT_EQ(parsed.at("k054321").as_int(), 54321);
}

// Seeded mutation sweep over JSON documents the tests build: flipped,
// inserted, deleted, duplicated and truncated bytes. Every mutant either
// throws JsonError with a message, or parses, and then dump -> parse -> dump
// reproduces the same text (a number dump() refuses — NaN, Infinity — must
// also be a JsonError). Fixed seed and budget, so a failure reproduces.
TEST(JsonFuzz, MutantsAreRejectedWithAMessageOrRoundTrip) {
  std::vector<std::string> corpus = {
      R"({"a": [1, 2.5, -3e2, true, false, null], "b": {"c": "d\n\u00e9"}})",
      R"([{"charger": 0, "slot": 3, "orientation_rad": 1.25}, [], {}, ""])",
      R"({"cv": NaN, "max": Infinity, "min": -Infinity, "escaped": "\"\\\/\b\f\r\t"})",
      R"({"op":"arrive","tasks":[{"x":1.5,"y":2,"energy":5000}],"slot":12})",
  };
  {
    sim::ScenarioConfig config = sim::ScenarioConfig::paper_default();
    config.chargers = 4;
    config.tasks = 10;
    util::Rng rng(7);
    const model::Network net = sim::generate_scenario(config, rng);
    corpus.push_back(io::network_to_json(net).dump());
    corpus.push_back(io::schedule_to_json(baseline::schedule_greedy_utility(net)).dump(2));
  }
  constexpr std::string_view kAlphabet = "{}[]:,\"\\ .-+eE0123456789truefalsnNIy\n\x01\xc3";
  util::Rng rng(20181018);
  int accepted = 0;
  int rejected = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = corpus[static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(corpus.size()) - 1))];
    const int edits = static_cast<int>(rng.uniform_int(1, 4));
    for (int e = 0; e < edits && !text.empty(); ++e) {
      const auto at = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(text.size()) - 1));
      const char byte = kAlphabet[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kAlphabet.size()) - 1))];
      switch (rng.uniform_int(0, 4)) {
        case 0: text[at] = byte; break;
        case 1: text.insert(text.begin() + static_cast<std::ptrdiff_t>(at), byte); break;
        case 2: text.erase(at, 1); break;
        case 3: {
          const auto length = static_cast<std::size_t>(rng.uniform_int(1, 16));
          text.insert(at, text.substr(at, length));
          break;
        }
        default: text.resize(at); break;
      }
    }
    SCOPED_TRACE(::testing::Message() << "iteration " << iteration << ": " << text);
    Json parsed;
    try {
      parsed = Json::parse(text);
    } catch (const JsonError& error) {
      EXPECT_NE(std::string(error.what()), "");
      ++rejected;
      continue;
    }
    ++accepted;
    for (const int indent : {-1, 2}) {
      std::string first;
      try {
        first = parsed.dump(indent);
      } catch (const JsonError& error) {
        EXPECT_NE(std::string(error.what()), "");
        continue;
      }
      EXPECT_EQ(Json::parse(first).dump(indent), first);
    }
  }
  // Both outcomes must actually occur, or the sweep tests nothing.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
}  // namespace haste::util
