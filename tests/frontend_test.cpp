//===- tests/frontend_test.cpp - Frontend tests -------------------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/IntegerBoundaries.h"
#include "common/TestPrograms.h"
#include "frontend/Lexer.h"
#include "frontend/Parser.h"
#include "frontend/ProgramLoader.h"
#include "frontend/SemanticAnalysis.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::testing;

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

TEST(LexerTest, TokenizesOperators) {
  auto Tokens = tokenize("a <= b != c && d || !e");
  ASSERT_TRUE(Tokens);
  std::vector<TokenKind> Kinds;
  for (const Token &Tok : *Tokens)
    Kinds.push_back(Tok.Kind);
  EXPECT_EQ(Kinds, (std::vector<TokenKind>{
                       TokenKind::Identifier, TokenKind::LessEqual,
                       TokenKind::Identifier, TokenKind::NotEqual,
                       TokenKind::Identifier, TokenKind::AmpAmp,
                       TokenKind::Identifier, TokenKind::PipePipe,
                       TokenKind::Not, TokenKind::Identifier,
                       TokenKind::EndOfInput}));
}

TEST(LexerTest, NumbersWithExponentsAndSuffix) {
  auto Tokens = tokenize("1.5e-3 2.0f 42");
  ASSERT_TRUE(Tokens);
  EXPECT_DOUBLE_EQ((*Tokens)[0].NumberValue, 1.5e-3);
  EXPECT_DOUBLE_EQ((*Tokens)[1].NumberValue, 2.0);
  EXPECT_DOUBLE_EQ((*Tokens)[2].NumberValue, 42.0);
}

TEST(LexerTest, CommentsSkipped) {
  auto Tokens = tokenize("a = 1; # comment\nb = 2; // more\n");
  ASSERT_TRUE(Tokens);
  EXPECT_EQ(Tokens->size(), 9u); // 2 * (ident, =, num, ;) + EOF.
}

TEST(LexerTest, PositionsTracked) {
  auto Tokens = tokenize("a\n  b");
  ASSERT_TRUE(Tokens);
  EXPECT_EQ((*Tokens)[0].Line, 1u);
  EXPECT_EQ((*Tokens)[1].Line, 2u);
  EXPECT_EQ((*Tokens)[1].Column, 3u);
}

TEST(LexerTest, RejectsBitwiseOperators) {
  EXPECT_FALSE(tokenize("a & b"));
  EXPECT_FALSE(tokenize("a | b"));
  EXPECT_FALSE(tokenize("a @ b"));
}

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

TEST(ParserTest, Precedence) {
  auto E = parseExpression("a + b * c");
  ASSERT_TRUE(E);
  EXPECT_EQ((*E)->toString(), "(a + (b * c))");
}

TEST(ParserTest, Parentheses) {
  auto E = parseExpression("(a + b) * c");
  ASSERT_TRUE(E);
  EXPECT_EQ((*E)->toString(), "((a + b) * c)");
}

TEST(ParserTest, Ternary) {
  auto E = parseExpression("a > 0.0 ? b : c");
  ASSERT_TRUE(E);
  EXPECT_EQ((*E)->toString(), "((a > 0.0) ? b : c)");
}

TEST(ParserTest, NestedTernaryRightAssociative) {
  auto E = parseExpression("a > 0.0 ? b : c > 0.0 ? d : e");
  ASSERT_TRUE(E);
  EXPECT_EQ((*E)->toString(), "((a > 0.0) ? b : ((c > 0.0) ? d : e))");
}

TEST(ParserTest, FieldAccessOffsets) {
  auto E = parseExpression("a[0, -1, 2]");
  ASSERT_TRUE(E);
  auto *Access = dyn_cast<FieldAccessExpr>(E->get());
  ASSERT_NE(Access, nullptr);
  EXPECT_EQ(Access->offset(), (Offset{0, -1, 2}));
}

TEST(ParserTest, NegativeLiteralFolded) {
  auto E = parseExpression("-4.0");
  ASSERT_TRUE(E);
  auto *Lit = dyn_cast<LiteralExpr>(E->get());
  ASSERT_NE(Lit, nullptr);
  EXPECT_DOUBLE_EQ(Lit->value(), -4.0);
}

TEST(ParserTest, Intrinsics) {
  auto E = parseExpression("min(sqrt(a), max(b, 2.0))");
  ASSERT_TRUE(E);
  EXPECT_EQ((*E)->toString(), "min(sqrt(a), max(b, 2.0))");
}

TEST(ParserTest, RejectsUnknownFunction) {
  auto E = parseExpression("external_lookup(a)");
  ASSERT_FALSE(E);
  EXPECT_NE(E.message().find("math functions"), std::string::npos);
}

TEST(ParserTest, RejectsWrongArity) {
  EXPECT_FALSE(parseExpression("sqrt(a, b)"));
  EXPECT_FALSE(parseExpression("min(a)"));
}

TEST(ParserTest, RejectsNonIntegerOffsets) {
  EXPECT_FALSE(parseExpression("a[0.5]"));
  EXPECT_FALSE(parseExpression("a[b]"));
}

TEST(ParserTest, RejectsMoreThanThreeOffsetIndices) {
  // Offsets hold three components inline: a fourth index is an input
  // error before any offset is built, never an overflow.
  for (const char *Text : {"a[0, 0, 0, 0]", "a[1, -2, 3, 4, 5]"}) {
    Expected<ExprPtr> E = parseExpression(Text);
    ASSERT_FALSE(E) << Text;
    EXPECT_EQ(E.code(), ErrorCode::InvalidInput) << Text;
    EXPECT_NE(E.message().find("more than 3 indices"), std::string::npos)
        << E.message();
  }
  EXPECT_TRUE(parseExpression("a[1, -2, 3]"));
  Expected<ExprPtr> Huge = parseExpression("a[0, 4294967296]");
  ASSERT_FALSE(Huge);
  EXPECT_EQ(Huge.code(), ErrorCode::InvalidInput);
}

TEST(ParserTest, StatementsRequireSemicolons) {
  EXPECT_FALSE(parseStencilCode("a = 1.0"));
  EXPECT_TRUE(parseStencilCode("a = 1.0;"));
}

TEST(ParserTest, MultiStatementBlock) {
  auto Code = parseStencilCode("t = a[0] + 1.0;\nb = t * t;");
  ASSERT_TRUE(Code);
  std::shared_ptr<const std::vector<Assignment>> Statements =
      Code->materialize();
  ASSERT_EQ(Statements->size(), 2u);
  EXPECT_EQ((*Statements)[0].Target, "t");
  EXPECT_EQ((*Statements)[1].Target, "b");
}

TEST(ParserTest, ErrorPositionsReported) {
  auto Code = parseStencilCode("a = 1.0;\nb = * 2;");
  ASSERT_FALSE(Code);
  EXPECT_NE(Code.message().find("2:"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Semantic analysis
//===----------------------------------------------------------------------===//

TEST(SemanticTest, ResolvesLocalsAndFields) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "t = a[0, 0] * 2.0; out = t + a[0, 1];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  const StencilNode *Node = P.findNode("out");
  ASSERT_NE(Node, nullptr);
  ASSERT_EQ(Node->Accesses.size(), 1u);
  EXPECT_EQ(Node->Accesses[0].Field, "a");
  EXPECT_EQ(Node->Accesses[0].Offsets.size(), 2u);
}

TEST(SemanticTest, BareNameResolvesToZeroOffsetAccess) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a + 1.0;");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  EXPECT_EQ(P.findNode("out")->Accesses[0].Offsets[0], (Offset{0, 0}));
}

TEST(SemanticTest, ScalarFieldAccess) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  Field Scalar;
  Scalar.Name = "alpha";
  Scalar.DimensionMask = {false, false};
  P.Inputs.push_back(Scalar);
  addStencil(P, "out", "out = a[0, 0] * alpha;");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  const FieldAccesses *FA = P.findNode("out")->accessesFor("alpha");
  ASSERT_NE(FA, nullptr);
  EXPECT_TRUE(FA->Offsets[0].empty());
}

TEST(SemanticTest, OffsetsSortedInMemoryOrder) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a[1, 0] + a[-1, 0] + a[0, 0];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  const auto &Offsets = P.findNode("out")->Accesses[0].Offsets;
  EXPECT_EQ(Offsets[0], (Offset{-1, 0}));
  EXPECT_EQ(Offsets[1], (Offset{0, 0}));
  EXPECT_EQ(Offsets[2], (Offset{1, 0}));
}

TEST(SemanticTest, DuplicateOffsetsDeduplicated) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a[0, 1] + a[0, 1];");
  P.Outputs = {"out"};
  ASSERT_FALSE(analyzeProgram(P));
  EXPECT_EQ(P.findNode("out")->Accesses[0].Offsets.size(), 1u);
}

TEST(SemanticTest, UndefinedNameRejected) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = ghost + a[0, 0];");
  P.Outputs = {"out"};
  Error Err = analyzeProgram(P);
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("ghost"), std::string::npos);
}

TEST(SemanticTest, UseBeforeDefRejected) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "x = y + a[0, 0]; y = 1.0; out = x;");
  P.Outputs = {"out"};
  EXPECT_TRUE(analyzeProgram(P));
}

TEST(SemanticTest, LocalShadowingFieldRejected) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "a = 1.0; out = a;");
  P.Outputs = {"out"};
  Error Err = analyzeProgram(P);
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("shadows"), std::string::npos);
}

TEST(SemanticTest, WrongRankOffsetRejected) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = a[0, 0, 0];");
  P.Outputs = {"out"};
  EXPECT_TRUE(analyzeProgram(P));
}

TEST(SemanticTest, ReadingOwnOutputRejected) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "out = out[0, 0] + a[0, 0];");
  P.Outputs = {"out"};
  EXPECT_TRUE(analyzeProgram(P));
}

TEST(SemanticTest, FinalStatementMustMatchNodeName) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "out", "wrong = a[0, 0];");
  P.Outputs = {"out"};
  EXPECT_TRUE(analyzeProgram(P));
}

//===----------------------------------------------------------------------===//
// Program loader
//===----------------------------------------------------------------------===//

namespace {

const char *LaplaceJson = R"({
  "name": "laplace2d",
  "dimensions": [16, 16],
  "inputs": {
    "a": {"data_type": "float32", "data": {"kind": "random", "seed": 7}}
  },
  "outputs": ["b"],
  "program": {
    "b": {
      "computation":
        "b = a[0,-1] + a[0,1] + a[-1,0] + a[1,0] - 4.0 * a[0,0];",
      "boundary_conditions": {"a": {"type": "constant", "value": 0.0}}
    }
  }
})";

} // namespace

TEST(LoaderTest, LoadsLaplace) {
  auto Program = programFromJsonText(LaplaceJson);
  ASSERT_TRUE(Program) << Program.message();
  EXPECT_EQ(Program->Name, "laplace2d");
  EXPECT_EQ(Program->IterationSpace.extents(),
            (std::vector<int64_t>{16, 16}));
  EXPECT_EQ(Program->Nodes.size(), 1u);
  EXPECT_EQ(Program->Nodes[0].Accesses[0].Offsets.size(), 5u);
  EXPECT_EQ(Program->Nodes[0].boundaryFor("a").Kind,
            BoundaryKind::Constant);
}

TEST(LoaderTest, DefaultsOutputsToSinks) {
  const char *Json = R"({
    "dimensions": [8, 8],
    "inputs": {"a": {}},
    "program": {
      "mid": {"computation": "mid = a[0,0] * 2.0;"},
      "end": {"computation": "end = mid[0,0] + 1.0;"}
    }
  })";
  auto Program = programFromJsonText(Json);
  ASSERT_TRUE(Program) << Program.message();
  EXPECT_EQ(Program->Outputs, (std::vector<std::string>{"end"}));
}

TEST(LoaderTest, LowerDimensionalInput) {
  const char *Json = R"({
    "dimensions": [4, 8, 8],
    "inputs": {
      "a": {},
      "c": {"dimensions": ["k"]}
    },
    "outputs": ["out"],
    "program": {
      "out": {"computation": "out = a[0,0,0] * c[0];"}
    }
  })";
  auto Program = programFromJsonText(Json);
  ASSERT_TRUE(Program) << Program.message();
  const Field *C = Program->findInput("c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->rank(), 1u);
  EXPECT_EQ(C->shapeWithin(Program->IterationSpace).extents(),
            (std::vector<int64_t>{4}));
}

TEST(LoaderTest, VectorizationParsed) {
  const char *Json = R"({
    "dimensions": [8, 8],
    "vectorization": 4,
    "inputs": {"a": {}},
    "outputs": ["b"],
    "program": {"b": {"computation": "b = a[0,0] + 1.0;"}}
  })";
  auto Program = programFromJsonText(Json);
  ASSERT_TRUE(Program) << Program.message();
  EXPECT_EQ(Program->VectorWidth, 4);
}

TEST(LoaderTest, RejectsBadDimensions) {
  EXPECT_FALSE(programFromJsonText(R"({"dimensions": [], "program": {}})"));
  EXPECT_FALSE(programFromJsonText(
      R"({"dimensions": [1,2,3,4], "program": {}})"));
  EXPECT_FALSE(programFromJsonText(
      R"({"dimensions": [0], "program": {}})"));
}

TEST(LoaderTest, OverRankProgramsAndAccessesAreInputErrors) {
  // A rank-4 program is refused by the loader before any stencil code is
  // analyzed, and a four-index access in a valid program by the parser.
  Expected<StencilProgram> Rank4 = programFromJsonText(R"({
    "dimensions": [2, 2, 2, 2],
    "inputs": {"a": {}},
    "program": {"b": {"computation": "b = a[0, 0, 0, 0];"}}
  })");
  ASSERT_FALSE(Rank4);
  EXPECT_EQ(Rank4.code(), ErrorCode::InvalidInput);
  Expected<StencilProgram> Wide = programFromJsonText(R"({
    "dimensions": [2, 2, 2],
    "inputs": {"a": {}},
    "program": {"b": {"computation": "b = a[0, 0, 0, 0];"}}
  })");
  ASSERT_FALSE(Wide);
  EXPECT_EQ(Wide.code(), ErrorCode::InvalidInput);
  EXPECT_NE(Wide.message().find("more than 3 indices"), std::string::npos)
      << Wide.message();

  // Built in code, a rank-4 program never reaches offset construction.
  StencilProgram Program;
  Program.IterationSpace = Shape({2, 2, 2, 2});
  Program.Inputs.push_back(Field{"a", DataType::Float32,
                                 std::vector<bool>(4, true), {}});
  StencilNode Node;
  Node.Name = "b";
  Expected<StencilCode> Code = parseStencilCode("b = a;");
  ASSERT_TRUE(Code) << Code.message();
  Node.Code = Code.takeValue();
  Program.Nodes.push_back(std::move(Node));
  Program.Outputs = {"b"};
  Error Err = analyzeProgram(Program);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_EQ(Err.code(), ErrorCode::InvalidInput);
}

TEST(LoaderTest, RejectsMissingComputation) {
  const char *Json = R"({
    "dimensions": [8, 8],
    "inputs": {"a": {}},
    "program": {"b": {}}
  })";
  EXPECT_FALSE(programFromJsonText(Json));
}

TEST(LoaderTest, RejectsUnknownBoundary) {
  const char *Json = R"({
    "dimensions": [8, 8],
    "inputs": {"a": {}},
    "outputs": ["b"],
    "program": {
      "b": {"computation": "b = a[0,0];",
            "boundary_conditions": {"a": {"type": "mirror"}}}
    }
  })";
  EXPECT_FALSE(programFromJsonText(Json));
}

TEST(LoaderTest, ErrorsNameTheFieldPathAndOffendingJson) {
  // Malformed descriptions fail with the JSON path of the offending field
  // and the value found there, so the message pinpoints what to fix.
  struct Case {
    const char *Json;
    const char *ExpectedFragment;
  } Cases[] = {
      {R"({"dimensions": [8, "x"], "program": {}})",
       "dimensions: must contain positive integers (got \"x\")"},
      {R"({"dimensions": [8, 8], "vectorization": -2,
           "program": {"b": {"computation": "b = 1.0;"}}})",
       "vectorization: must be a positive integer (got -2)"},
      // 2^32 + 1 once wrapped to W = 1.
      {R"({"dimensions": [8, 8], "vectorization": 4294967297,
           "program": {"b": {"computation": "b = 1.0;"}}})",
       "vectorization: must be a positive integer (got 4294967297)"},
      {R"({"dimensions": [4294967296, 4294967296, 4294967296],
           "program": {}})",
       "dimensions: cell count overflows 64 bits (got "
       "[4294967296,4294967296,4294967296])"},
      {R"({"dimensions": [8, 8],
           "inputs": {"a": {"data": {"kind": 1}}},
           "program": {"b": {"computation": "b = a[0,0];"}}})",
       "inputs.a.data: data source requires a string 'kind' "
       "(got {\"kind\":1})"},
      {R"({"dimensions": [8, 8],
           "inputs": {"a": {"data": {"kind": "random", "seed": "x"}}},
           "program": {"b": {"computation": "b = a[0,0];"}}})",
       "inputs.a.data.seed: random data source 'seed' must be a number "
       "(got \"x\")"},
      {R"({"dimensions": [8, 8],
           "inputs": {"a": {"dimensions": ["z"]}},
           "program": {"b": {"computation": "b = a[0,0];"}}})",
       "inputs.a.dimensions: unknown dimension name 'z' "
       "(this program has: j, i)"},
      {R"({"dimensions": [8, 8], "inputs": {"a": {}},
           "program": {"b": {}}})",
       "program.b.computation: stencil requires a 'computation' string "
       "(missing)"},
      {R"({"dimensions": [8, 8], "inputs": {"a": {}},
           "program": {"b": {"computation": "b = a[0,0];",
                             "boundary_conditions": {"a": 3}}}})",
       "program.b.boundary_conditions.a: boundary condition must be an "
       "object (got 3)"},
      {R"({"dimensions": [8, 8], "inputs": {"a": {}}, "outputs": ["b"],
           "program": {"b": {"computation": "b = a[0,0];"}},
           "time_loop": [{"output": "b"}]})",
       "time_loop[0]: 'time_loop' entries require 'output' and 'input' "
       "field names"},
  };
  for (const Case &C : Cases) {
    auto Program = programFromJsonText(C.Json);
    ASSERT_FALSE(Program) << C.Json;
    EXPECT_NE(Program.message().find(C.ExpectedFragment), std::string::npos)
        << "message: " << Program.message()
        << "\nexpected fragment: " << C.ExpectedFragment;
    EXPECT_EQ(Program.code(), ErrorCode::InvalidInput) << C.Json;
  }
}

TEST(LoaderTest, IntegerMembersRejectOutOfRangeNumbers) {
  expectIntegerBoundariesRejected(
      {{R"({"dimensions": [@, 8], "inputs": {"a": {}},
            "program": {"b": {"computation": "b = a[0,0];"}}})",
        Int64OnePast},
       {R"({"dimensions": [8, 8], "vectorization": @, "inputs": {"a": {}},
            "program": {"b": {"computation": "b = a[0,0];"}}})",
        IntOnePast},
       {R"({"dimensions": [8, 8],
            "inputs": {"a": {"data": {"kind": "random", "seed": @}}},
            "program": {"b": {"computation": "b = a[0,0];"}}})",
        Int64OnePast}},
      [](const std::string &Text) { return programFromJsonText(Text); });
}

TEST(LoaderTest, ErrorContextTruncatesLargeValues) {
  // A huge offending value must not turn the diagnostic into a dump.
  std::string Big = R"({"dimensions": [8, 8], "inputs": {"a": {"data": )";
  Big += R"({"kind": ")" + std::string(500, 'x') + R"("}}},)";
  Big += R"("program": {"b": {"computation": "b = a[0,0];"}}})";
  auto Program = programFromJsonText(Big);
  ASSERT_FALSE(Program);
  EXPECT_LT(Program.message().size(), 300u) << Program.message();
  EXPECT_NE(Program.message().find("..."), std::string::npos)
      << Program.message();
}

TEST(LoaderTest, RoundTripThroughJson) {
  auto Program = programFromJsonText(LaplaceJson);
  ASSERT_TRUE(Program);
  json::Value Emitted = programToJson(*Program);
  auto Reloaded = programFromJson(Emitted);
  ASSERT_TRUE(Reloaded) << Reloaded.message();
  EXPECT_EQ(Reloaded->Name, Program->Name);
  EXPECT_EQ(Reloaded->Nodes.size(), Program->Nodes.size());
  EXPECT_EQ(Reloaded->Nodes[0].Code.toString(),
            Program->Nodes[0].Code.toString());
  EXPECT_EQ(Reloaded->Outputs, Program->Outputs);
}

TEST(LoaderTest, RandomSeedsSurviveTheirOwnJson) {
  // Seeds above 2^53 are written as hex text; 0x9e3779b97f4a7c15 once
  // reloaded as 0x9e3779b97f4a7c00.
  for (uint64_t Seed : {uint64_t(7), uint64_t(1) << 53,
                        uint64_t(0xdeadbeefcafebabeull),
                        uint64_t(0x9e3779b97f4a7c15ull), ~uint64_t(0)}) {
    auto Program = programFromJsonText(LaplaceJson);
    ASSERT_TRUE(Program);
    Program->Inputs[0].Source = DataSource::random(Seed);
    std::string Text = programToJson(*Program).toString();
    auto Reloaded = programFromJsonText(Text);
    ASSERT_TRUE(Reloaded) << Reloaded.message();
    EXPECT_EQ(Reloaded->Inputs[0].Source.Seed, Seed) << Text;
  }
  auto Malformed = programFromJsonText(
      R"({"dimensions": [8, 8],
          "inputs": {"a": {"data": {"kind": "random", "seed": "0xzz"}}},
          "program": {"b": {"computation": "b = a[0,0];"}}})");
  ASSERT_FALSE(Malformed);
  EXPECT_NE(Malformed.message().find(
                "inputs.a.data.seed: random data source 'seed' must be "
                "64-bit hex (got \"0xzz\")"),
            std::string::npos)
      << Malformed.message();
}

TEST(LoaderTest, RandomProgramsRoundTrip) {
  for (uint64_t Seed = 1; Seed <= 10; ++Seed) {
    StencilProgram Program = randomProgram(Seed);
    json::Value Emitted = programToJson(Program);
    auto Reloaded = programFromJson(Emitted);
    ASSERT_TRUE(Reloaded) << "seed " << Seed << ": " << Reloaded.message();
    EXPECT_EQ(Reloaded->Nodes.size(), Program.Nodes.size());
    for (size_t I = 0; I != Program.Nodes.size(); ++I)
      EXPECT_EQ(Reloaded->Nodes[I].Accesses.size(),
                Program.Nodes[I].Accesses.size());
  }
}
