//===- tests/support_test.cpp - Support library tests ------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/CommandLine.h"
#include "support/Error.h"
#include "support/Json.h"
#include "support/JsonWriter.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace stencilflow;

//===----------------------------------------------------------------------===//
// Error / Expected
//===----------------------------------------------------------------------===//

TEST(ErrorTest, SuccessIsFalsy) {
  Error Err;
  EXPECT_FALSE(Err);
  EXPECT_FALSE(Error::success());
}

TEST(ErrorTest, FailureCarriesMessage) {
  Error Err = makeError("something broke");
  EXPECT_TRUE(Err);
  EXPECT_EQ(Err.message(), "something broke");
}

TEST(ErrorTest, AddContextPrefixes) {
  Error Err = makeError("inner");
  Err.addContext("outer");
  EXPECT_EQ(Err.message(), "outer: inner");
}

TEST(ErrorTest, AddContextOnSuccessIsNoop) {
  Error Err;
  Err.addContext("outer");
  EXPECT_FALSE(Err);
}

TEST(ExpectedTest, HoldsValue) {
  Expected<int> Value(42);
  ASSERT_TRUE(Value);
  EXPECT_EQ(*Value, 42);
}

TEST(ExpectedTest, HoldsError) {
  Expected<int> Value(makeError("nope"));
  ASSERT_FALSE(Value);
  EXPECT_EQ(Value.message(), "nope");
}

TEST(ExpectedTest, TakeValueMoves) {
  Expected<std::string> Value(std::string("payload"));
  std::string Taken = Value.takeValue();
  EXPECT_EQ(Taken, "payload");
}

//===----------------------------------------------------------------------===//
// String utilities
//===----------------------------------------------------------------------===//

TEST(StringUtilsTest, Split) {
  auto Pieces = splitString("a,b,,c", ',');
  ASSERT_EQ(Pieces.size(), 4u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "");
  EXPECT_EQ(Pieces[3], "c");
}

TEST(StringUtilsTest, SplitNoSeparator) {
  auto Pieces = splitString("abc", ',');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "abc");
}

TEST(StringUtilsTest, Trim) {
  EXPECT_EQ(trimString("  x  "), "x");
  EXPECT_EQ(trimString("x"), "x");
  EXPECT_EQ(trimString("   "), "");
  EXPECT_EQ(trimString(""), "");
}

TEST(StringUtilsTest, Join) {
  EXPECT_EQ(joinStrings({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(joinStrings({}, ", "), "");
  EXPECT_EQ(joinStrings({"solo"}, ", "), "solo");
}

TEST(StringUtilsTest, StartsEndsWith) {
  EXPECT_TRUE(startsWith("stencilflow", "sten"));
  EXPECT_FALSE(startsWith("st", "sten"));
  EXPECT_TRUE(endsWith("kernel.cl", ".cl"));
  EXPECT_FALSE(endsWith("cl", ".cl"));
}

TEST(StringUtilsTest, Format) {
  EXPECT_EQ(formatString("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatString("%.2f", 1.5), "1.50");
}

TEST(StringUtilsTest, ReplaceAll) {
  EXPECT_EQ(replaceAll("aaa", "a", "bb"), "bbbbbb");
  EXPECT_EQ(replaceAll("abc", "x", "y"), "abc");
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE((*json::parse("null")).isNull());
  EXPECT_TRUE((*json::parse("true")).getBoolean());
  EXPECT_FALSE((*json::parse("false")).getBoolean());
  EXPECT_DOUBLE_EQ((*json::parse("3.5")).getNumber(), 3.5);
  EXPECT_EQ(json::toInteger<int64_t>((*json::parse("-17")).getNumber()),
            std::optional<int64_t>(-17));
  EXPECT_EQ((*json::parse("\"hi\\n\"")).getString(), "hi\n");
}

TEST(JsonTest, ParsesNested) {
  auto Parsed = json::parse(R"({"a": [1, 2, {"b": true}], "c": "x"})");
  ASSERT_TRUE(Parsed);
  const json::Object &Root = Parsed->getObject();
  ASSERT_TRUE(Root.contains("a"));
  const auto &Array = Root.get("a")->getArray();
  ASSERT_EQ(Array.size(), 3u);
  EXPECT_TRUE(Array[2].getObject().get("b")->getBoolean());
  EXPECT_EQ(Root.get("c")->getString(), "x");
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  auto Parsed = json::parse(R"({"z": 1, "a": 2, "m": 3})");
  ASSERT_TRUE(Parsed);
  std::vector<std::string> Keys;
  for (const auto &[Key, Member] : Parsed->getObject())
    Keys.push_back(Key);
  EXPECT_EQ(Keys, (std::vector<std::string>{"z", "a", "m"}));
}

TEST(JsonTest, ErrorsCarryPosition) {
  auto Parsed = json::parse("{\n  \"a\": }");
  ASSERT_FALSE(Parsed);
  EXPECT_NE(Parsed.message().find("2:"), std::string::npos);
}

TEST(JsonTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(json::parse("1 2"));
}

TEST(JsonTest, RejectsUnterminatedString) {
  EXPECT_FALSE(json::parse("\"abc"));
}

TEST(JsonTest, ToIntegerAcceptsOnlyIntegralNumbersInRange) {
  EXPECT_EQ(json::toInteger<int>(-17.0), std::optional<int>(-17));
  EXPECT_EQ(json::toInteger<int>(2147483647.0), std::optional<int>(INT32_MAX));
  EXPECT_EQ(json::toInteger<int>(-2147483648.0), std::optional<int>(INT32_MIN));
  EXPECT_FALSE(json::toInteger<int>(2147483648.0));
  EXPECT_FALSE(json::toInteger<int>(-2147483649.0));
  EXPECT_FALSE(json::toInteger<int>(1.5));
  EXPECT_FALSE(json::toInteger<int>(-0.5));
  EXPECT_EQ(json::toInteger<int64_t>(-9223372036854775808.0),
            std::optional<int64_t>(INT64_MIN));
  EXPECT_FALSE(json::toInteger<int64_t>(9223372036854775808.0));
  EXPECT_EQ(json::toInteger<uint64_t>(18446744073709549568.0),
            std::optional<uint64_t>(18446744073709549568ull));
  EXPECT_FALSE(json::toInteger<uint64_t>(18446744073709551616.0));
  EXPECT_FALSE(json::toInteger<uint64_t>(-1.0));
  for (double Bad : {1e300, -1e300, HUGE_VAL, -HUGE_VAL, std::nan("")})
    EXPECT_FALSE(json::toInteger<int64_t>(Bad)) << Bad;
}

TEST(JsonTest, ReadMemberChecksTypeAndRange) {
  auto Doc = json::parse(
      R"({"b": true, "i": 7, "d": 2.5, "s": "x", "h": "0xfF", "big": 1e10})");
  ASSERT_TRUE(Doc);
  const json::Object &O = Doc->getObject();
  // Absent members leave the output untouched.
  int I = -1;
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "missing", I)));
  EXPECT_EQ(I, -1);
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "i", I)));
  EXPECT_EQ(I, 7);
  bool B = false;
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "b", B)));
  EXPECT_TRUE(B);
  double D = 0;
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "d", D)));
  EXPECT_EQ(D, 2.5);
  std::string S;
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "s", S)));
  EXPECT_EQ(S, "x");
  uint64_t H = 0;
  EXPECT_FALSE(static_cast<bool>(json::readHexMember(O, "h", H)));
  EXPECT_EQ(H, 0xffu);
  int64_t Big = 0;
  EXPECT_FALSE(static_cast<bool>(json::readMember(O, "big", Big)));
  EXPECT_EQ(Big, 10000000000);

  // Mistyped and out-of-range members are InvalidInput errors, and the
  // output keeps its value.
  struct Case {
    Error Err;
    const char *Message;
  } Cases[] = {
      {json::readMember(O, "s", I), "'s' must be a number"},
      {json::readMember(O, "i", B), "'i' must be a boolean"},
      {json::readMember(O, "i", S), "'i' must be a string"},
      {json::readMember(O, "d", I),
       "'d' must be an integer in [-2147483648, 2147483647]"},
      {json::readMember(O, "big", I),
       "'big' must be an integer in [-2147483648, 2147483647]"},
      {json::readHexMember(O, "s", H), "'s' must be a 64-bit hex string"},
      {json::readHexMember(O, "i", H), "'i' must be a string"},
  };
  for (const Case &C : Cases) {
    ASSERT_TRUE(static_cast<bool>(C.Err)) << C.Message;
    EXPECT_EQ(C.Err.code(), ErrorCode::InvalidInput);
    EXPECT_EQ(C.Err.message(), C.Message);
  }
  EXPECT_EQ(I, 7);
  EXPECT_EQ(H, 0xffu);
}

TEST(JsonTest, LineCommentsAllowed) {
  auto Parsed = json::parse("// header\n{\"a\": 1 // trailing\n}");
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(Parsed->getObject().get("a")->getNumber(), 1);
}

TEST(JsonTest, RoundTripCompact) {
  const char *Text = R"({"a":[1,2.5,"x"],"b":{"c":null,"d":false}})";
  auto Parsed = json::parse(Text);
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(Parsed->toString(), Text);
}

TEST(JsonTest, PrettyPrintIsReparseable) {
  auto Parsed = json::parse(R"({"a": [1, 2], "b": "x"})");
  ASSERT_TRUE(Parsed);
  auto Reparsed = json::parse(Parsed->toPrettyString());
  ASSERT_TRUE(Reparsed);
  EXPECT_EQ(Reparsed->toString(), Parsed->toString());
}

TEST(JsonTest, DeepCopySemantics) {
  auto Parsed = json::parse(R"({"a": {"b": 1}})");
  ASSERT_TRUE(Parsed);
  json::Value Copy = *Parsed;
  Copy.getObject().get("a")->getObject().set("b", 2);
  EXPECT_EQ(Parsed->getObject().get("a")->getObject().get("b")->getNumber(),
            1);
  EXPECT_EQ(Copy.getObject().get("a")->getObject().get("b")->getNumber(), 2);
}

TEST(JsonTest, UnicodeEscapes) {
  auto Parsed = json::parse("\"\\u0041\\u00e9\"");
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(Parsed->getString(), "A\xc3\xa9");
}

//===----------------------------------------------------------------------===//
// Random
//===----------------------------------------------------------------------===//

TEST(RandomTest, Deterministic) {
  Random A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.nextUInt64(), B.nextUInt64());
}

TEST(RandomTest, BoundsRespected) {
  Random Rng(9);
  for (int I = 0; I < 1000; ++I) {
    int64_t Value = Rng.nextInRange(-3, 7);
    EXPECT_GE(Value, -3);
    EXPECT_LE(Value, 7);
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, DifferentSeedsDiffer) {
  Random A(1), B(2);
  int Same = 0;
  for (int I = 0; I < 64; ++I)
    Same += A.nextUInt64() == B.nextUInt64();
  EXPECT_LT(Same, 4);
}

//===----------------------------------------------------------------------===//
// CommandLine
//===----------------------------------------------------------------------===//

TEST(CommandLineTest, ParsesFlagsAndPositional) {
  const char *Argv[] = {"prog", "--size=64", "--name", "hdiff", "input.json"};
  auto Parsed = CommandLine::parse(5, Argv, {"size", "name"});
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(*Parsed->getInt("size", 0), 64);
  EXPECT_EQ(Parsed->getString("name"), "hdiff");
  ASSERT_EQ(Parsed->positional().size(), 1u);
  EXPECT_EQ(Parsed->positional()[0], "input.json");
}

TEST(CommandLineTest, RejectsUnknownFlag) {
  const char *Argv[] = {"prog", "--bogus=1"};
  EXPECT_FALSE(CommandLine::parse(2, Argv, {"size"}));
}

TEST(CommandLineTest, DefaultsApply) {
  const char *Argv[] = {"prog"};
  auto Parsed = CommandLine::parse(1, Argv, {"w"});
  ASSERT_TRUE(Parsed);
  EXPECT_EQ(*Parsed->getInt("w", 4), 4);
  EXPECT_DOUBLE_EQ(*Parsed->getDouble("w", 2.5), 2.5);
  EXPECT_FALSE(Parsed->has("w"));
  int Kept = 7;
  EXPECT_FALSE(static_cast<bool>(Parsed->read("w", Kept)));
  EXPECT_EQ(Kept, 7);
}

TEST(CommandLineTest, RejectsValuesThatAreNotNumbers) {
  // A numeric flag must parse completely: trailing text, a fraction for
  // an integer, or an empty value is a typed error naming the flag.
  const char *Argv[] = {"prog", "--n=abc", "--m=12x", "--f=0.5", "--e="};
  auto Parsed = CommandLine::parse(5, Argv, {"n", "m", "f", "e"});
  ASSERT_TRUE(Parsed);
  for (const char *Flag : {"n", "m", "f", "e"}) {
    Expected<int64_t> Value = Parsed->getInt(Flag, 0);
    ASSERT_FALSE(Value) << Flag;
    EXPECT_EQ(Value.code(), ErrorCode::InvalidInput);
    EXPECT_NE(Value.message().find(std::string("--") + Flag),
              std::string::npos)
        << Value.message();
  }
  EXPECT_FALSE(Parsed->getDouble("n", 0.0));
  EXPECT_FALSE(Parsed->getDouble("m", 0.0));
  EXPECT_FALSE(Parsed->getDouble("e", 0.0));
  // A fraction is a valid double, and read() picks the parser by type.
  EXPECT_DOUBLE_EQ(*Parsed->getDouble("f", 0.0), 0.5);
  double Seconds = 0.0;
  EXPECT_FALSE(static_cast<bool>(Parsed->read("f", Seconds)));
  EXPECT_DOUBLE_EQ(Seconds, 0.5);
  int Count = 3;
  EXPECT_TRUE(static_cast<bool>(Parsed->read("f", Count)));
  EXPECT_EQ(Count, 3);
}

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriterTest, EmitsNestedDocument) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.attribute("name", "trace");
  W.key("events");
  W.beginArray();
  W.beginObject();
  W.attribute("ts", static_cast<int64_t>(42));
  W.attribute("ok", true);
  W.endObject();
  W.value(1.5);
  W.valueNull();
  W.endArray();
  W.endObject();
  EXPECT_TRUE(W.complete());
  EXPECT_EQ(Out,
            "{\"name\":\"trace\",\"events\":[{\"ts\":42,\"ok\":true},"
            "1.5,null]}");
}

TEST(JsonWriterTest, EscapesStrings) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.attribute("k\"ey", "line\nbreak\ttab\\slash");
  W.endObject();
  EXPECT_EQ(Out, "{\"k\\\"ey\":\"line\\nbreak\\ttab\\\\slash\"}");
}

TEST(JsonWriterTest, IntegralDoublesPrintAsIntegers) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginArray();
  W.value(3.0);
  W.value(0.25);
  W.endArray();
  EXPECT_EQ(Out, "[3,0.25]");
}

TEST(JsonWriterTest, OutputRoundTripsThroughParser) {
  std::string Out;
  json::JsonWriter W(Out);
  W.beginObject();
  W.key("nested");
  W.beginArray();
  for (int I = 0; I != 3; ++I) {
    W.beginObject();
    W.attribute("i", I);
    W.attribute("label", formatString("item %d", I));
    W.endObject();
  }
  W.endArray();
  W.endObject();
  auto Parsed = json::parse(Out);
  ASSERT_TRUE(Parsed) << Parsed.message();
  const auto &Nested = Parsed->getObject().get("nested")->getArray();
  ASSERT_EQ(Nested.size(), 3u);
  EXPECT_EQ(Nested[2].getObject().get("label")->getString(), "item 2");
}

//===----------------------------------------------------------------------===//
// Exit-code taxonomy (the one table every CLI exits through)
//===----------------------------------------------------------------------===//

TEST(ExitCodeTest, TableCoversEveryErrorCodeInEnumOrder) {
  const std::vector<ExitCodeRow> &Table = exitCodeTable();
  ASSERT_EQ(static_cast<int>(Table.size()), NumErrorCodes);
  for (int I = 0; I != NumErrorCodes; ++I)
    EXPECT_EQ(Table[I].Code, static_cast<ErrorCode>(I));
}

TEST(ExitCodeTest, ClassifiedCodesAreDistinctSmallValues) {
  // The unclassified trio shares POSIX's generic 1; every classified
  // failure gets its own code so CI scripts can branch on the kind.
  std::set<int> Seen;
  for (const ExitCodeRow &Row : exitCodeTable()) {
    EXPECT_GT(Row.ExitCode, 0);
    EXPECT_LT(Row.ExitCode, 64) << "stay clear of the 64+ BSD range";
    if (Row.ExitCode == 1)
      continue;
    EXPECT_TRUE(Seen.insert(Row.ExitCode).second)
        << "duplicate exit code " << Row.ExitCode;
  }
  // Pinned values: these are documented in README/--help and scripts
  // depend on them, so a renumbering must be deliberate.
  EXPECT_EQ(exitCodeFor(ErrorCode::Unknown), 1);
  EXPECT_EQ(exitCodeFor(ErrorCode::InvalidInput), 1);
  EXPECT_EQ(exitCodeFor(ErrorCode::Infeasible), 1);
  EXPECT_EQ(exitCodeFor(ErrorCode::ValidationMismatch), 2);
  EXPECT_EQ(exitCodeFor(ErrorCode::Deadlock), 3);
  EXPECT_EQ(exitCodeFor(ErrorCode::CycleLimit), 4);
  EXPECT_EQ(exitCodeFor(ErrorCode::DeviceLost), 5);
  EXPECT_EQ(exitCodeFor(ErrorCode::LinkFailure), 6);
  EXPECT_EQ(exitCodeFor(ErrorCode::DataCorruption), 7);
  EXPECT_EQ(exitCodeFor(ErrorCode::Starvation), 8);
  EXPECT_EQ(exitCodeFor(ErrorCode::SnapshotInvalid), 9);
  EXPECT_EQ(exitCodeFor(ErrorCode::SnapshotIncompatible), 10);
  EXPECT_EQ(exitCodeFor(ErrorCode::Overloaded), 11);
}

TEST(ExitCodeTest, NamesRoundTripAndLegendListsEveryDistinctCode) {
  for (int I = 0; I != NumErrorCodes; ++I) {
    ErrorCode Code = static_cast<ErrorCode>(I);
    std::optional<ErrorCode> Back = errorCodeFromName(errorCodeName(Code));
    ASSERT_TRUE(Back.has_value()) << errorCodeName(Code);
    EXPECT_EQ(*Back, Code);
  }
  EXPECT_FALSE(errorCodeFromName("no-such-code").has_value());

  std::string Legend = exitCodeLegend();
  EXPECT_NE(Legend.find("0 success"), std::string::npos);
  for (const ExitCodeRow &Row : exitCodeTable()) {
    if (Row.ExitCode == 1)
      continue; // collapsed into the generic "1  error" line
    EXPECT_NE(Legend.find(errorCodeName(Row.Code)), std::string::npos)
        << errorCodeName(Row.Code);
  }
}
