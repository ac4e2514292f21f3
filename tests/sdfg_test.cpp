//===- tests/sdfg_test.cpp - SDFG, transformations, fusion --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "common/TestPrograms.h"
#include "core/DataflowAnalysis.h"
#include "runtime/InputData.h"
#include "runtime/ReferenceExecutor.h"
#include "runtime/Validation.h"
#include "sdfg/Graph.h"
#include "sdfg/Lowering.h"
#include "sdfg/StencilFusion.h"
#include "sdfg/Transforms.h"

#include "core/ValidRegion.h"

#include <gtest/gtest.h>

using namespace stencilflow;
using namespace stencilflow::sdfg;
using namespace stencilflow::testing;

namespace {

/// Compares \p Actual and \p Expected on the interior region of the fused
/// node \p Name of \p Fused — the exactness contract of spatial fusion
/// (boundary cells compute through the halo; see sdfg/StencilFusion.h).
void expectInteriorMatch(const StencilProgram &Fused,
                         const std::string &Name,
                         const std::vector<double> &Actual,
                         const std::vector<double> &Expected) {
  const StencilNode *Node = Fused.findNode(Name);
  ASSERT_NE(Node, nullptr);
  StencilNode Trimmed = Node->clone();
  Trimmed.ShrinkOutput = true;
  ValidRegion Region = computeValidRegion(Fused, Trimmed);
  ASSERT_GT(Region.numCells(), 0);
  int64_t Mismatches = 0;
  for (int64_t Cell = 0; Cell != Fused.IterationSpace.numCells(); ++Cell) {
    if (!Region.contains(Fused.IterationSpace.delinearize(Cell)))
      continue;
    Mismatches += Actual[static_cast<size_t>(Cell)] !=
                  Expected[static_cast<size_t>(Cell)];
  }
  EXPECT_EQ(Mismatches, 0) << "interior mismatch in field '" << Name << "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// Graph basics
//===----------------------------------------------------------------------===//

TEST(SdfgGraphTest, BuildAndQuery) {
  SDFG G("test");
  G.Domain = Shape({8, 8});
  ASSERT_FALSE(G.addContainer(
      Container{"a", DataType::Float32, {true, true},
                ContainerKind::Array, 0, false}));
  EXPECT_TRUE(G.addContainer(
      Container{"a", DataType::Float32, {true, true},
                ContainerKind::Array, 0, false})); // Duplicate.
  State &S = G.addState("main");
  AccessNode *A = S.addAccess("a");
  TaskletNode *T = S.addTasklet("t", "x = a");
  S.connect(A, T, "a");
  EXPECT_EQ(S.successors(A->id()), std::vector<int>{T->id()});
  EXPECT_EQ(S.predecessors(T->id()), std::vector<int>{A->id()});
  EXPECT_FALSE(G.validate());
}

TEST(SdfgGraphTest, ValidateCatchesUndeclaredContainer) {
  SDFG G("test");
  G.Domain = Shape({8});
  State &S = G.addState("main");
  S.addAccess("ghost");
  EXPECT_TRUE(G.validate());
}

TEST(SdfgGraphTest, ScopeContents) {
  SDFG G("test");
  G.Domain = Shape({8, 8});
  State &S = G.addState("main");
  auto [Entry, Exit] = S.addMap("k", 0, 8);
  TaskletNode *Inner = S.addTasklet("inner", "");
  TaskletNode *Outer = S.addTasklet("outer", "");
  S.connect(Entry, Inner);
  S.connect(Inner, Exit);
  S.connect(Exit, Outer);
  std::vector<int> Contents = S.scopeContents(Entry->id());
  EXPECT_EQ(Contents, std::vector<int>{Inner->id()});
}

TEST(SdfgGraphTest, RemoveNodeDropsEdges) {
  SDFG G("test");
  G.Domain = Shape({8});
  ASSERT_FALSE(G.addContainer(
      Container{"a", DataType::Float32, {true}, ContainerKind::Array, 0,
                false}));
  State &S = G.addState("main");
  AccessNode *A = S.addAccess("a");
  TaskletNode *T = S.addTasklet("t", "");
  S.connect(A, T, "a");
  int TId = T->id();
  S.removeNode(TId);
  EXPECT_TRUE(S.edges().empty());
  EXPECT_EQ(S.findNode(TId), nullptr);
}

//===----------------------------------------------------------------------===//
// Program -> SDFG lowering and expansion
//===----------------------------------------------------------------------===//

TEST(SdfgLoweringTest, BuildsStreamsWithBufferDepths) {
  StencilProgram P = diamondProgram(16, 16);
  auto Compiled = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(Compiled);
  auto Dataflow = analyzeDataflow(*Compiled);
  auto G = buildSDFG(*Compiled, *Dataflow);
  ASSERT_TRUE(G) << G.message();
  // Streams for each edge; the A->C stream carries the delay buffer.
  const Container *AC = G->findContainer("A__to__C");
  ASSERT_NE(AC, nullptr);
  EXPECT_EQ(AC->Kind, ContainerKind::Stream);
  EXPECT_EQ(AC->BufferDepth,
            Dataflow->findEdge("A", "C")->BufferDepth);
  EXPECT_GT(AC->BufferDepth, 0);
  // Library nodes present.
  size_t LibraryCount = 0;
  for (const auto &N : G->states()[0].nodes())
    LibraryCount += isa<StencilLibraryNode>(N.get());
  EXPECT_EQ(LibraryCount, 3u);
}

TEST(SdfgLoweringTest, DotRendering) {
  StencilProgram P = laplace2d(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  auto G = buildSDFG(*Compiled, *Dataflow);
  ASSERT_TRUE(G);
  std::string Dot = G->toDot();
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("stencil b"), std::string::npos);
}

TEST(SdfgLoweringTest, ExpansionCreatesFig12Structure) {
  StencilProgram P = laplace2d(8, 8);
  auto Compiled = CompiledProgram::compile(std::move(P));
  auto Dataflow = analyzeDataflow(*Compiled);
  auto G = buildSDFG(*Compiled, *Dataflow);
  ASSERT_TRUE(G);
  ASSERT_FALSE(expandAllStencilNodes(*G, *Compiled, *Dataflow));

  State &S = G->states()[0];
  // No library nodes remain.
  for (const auto &N : S.nodes())
    EXPECT_FALSE(isa<StencilLibraryNode>(N.get()));
  // A pipeline scope with init/drain phases exists.
  auto Pipelines = S.nodesOfType<PipelineEntryNode>();
  ASSERT_EQ(Pipelines.size(), 1u);
  EXPECT_GT(Pipelines[0]->initIterations(), 0);
  // Shift registers became containers, and an unrolled shift map exists.
  EXPECT_NE(G->findContainer("b__sreg__a"), nullptr);
  bool HasUnrolledMap = false;
  for (auto *Map : S.nodesOfType<MapEntryNode>())
    HasUnrolledMap |= Map->unrolled();
  EXPECT_TRUE(HasUnrolledMap);
  // Shift, update, compute and guarded-write tasklets all present.
  std::vector<std::string> Labels;
  for (const auto &N : S.nodes())
    if (isa<TaskletNode>(N.get()))
      Labels.push_back(N->label());
  auto contains = [&](const std::string &Needle) {
    for (const std::string &Label : Labels)
      if (Label.find(Needle) != std::string::npos)
        return true;
    return false;
  };
  EXPECT_TRUE(contains("shift_"));
  EXPECT_TRUE(contains("update_"));
  EXPECT_TRUE(contains("compute_"));
  EXPECT_TRUE(contains("write_"));
  EXPECT_FALSE(G->validate());
}

//===----------------------------------------------------------------------===//
// Stencil fusion (Sec. V-B)
//===----------------------------------------------------------------------===//

TEST(FusionTest, LegalityConditions) {
  // Diamond: A has two consumers -> not fusible. B has one consumer and is
  // not an output -> fusible into C.
  StencilProgram P = diamondProgram();
  EXPECT_FALSE(canFuseInto(P, "A"));
  auto Consumer = canFuseInto(P, "B");
  ASSERT_TRUE(Consumer);
  EXPECT_EQ(*Consumer, "C");
  // C is a program output -> not fusible.
  EXPECT_FALSE(canFuseInto(P, "C"));
}

TEST(FusionTest, RejectsMismatchedBoundaries) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, -1] + a[0, 1];", DataType::Float32,
             {{"a", BoundaryCondition::constant(1.0)}});
  addStencil(P, "y", "y = x[0, 0] + a[0, 0];", DataType::Float32,
             {{"a", BoundaryCondition::constant(2.0)}});
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  auto Result = canFuseInto(P, "x");
  ASSERT_FALSE(Result);
  EXPECT_NE(Result.message().find("boundary"), std::string::npos);
}

TEST(FusionTest, RejectsCopyBoundaryAtShiftedOffset) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, -1] + a[0, 0];", DataType::Float32,
             {{"a", BoundaryCondition::copy()}});
  addStencil(P, "y", "y = x[0, -1] + x[0, 1];", DataType::Float32,
             {{"x", BoundaryCondition::constant(0.0)}});
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  EXPECT_FALSE(canFuseInto(P, "x"));
}

TEST(FusionTest, AllowsCopyBoundaryAtCenterOnlyRead) {
  StencilProgram P;
  P.IterationSpace = Shape({8, 8});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, -1] + a[0, 0];", DataType::Float32,
             {{"a", BoundaryCondition::copy()}});
  addStencil(P, "y", "y = x[0, 0] * 2.0;");
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  EXPECT_TRUE(canFuseInto(P, "x"));
}

TEST(FusionTest, FusionPreservesSemanticsOnChain) {
  StencilProgram Original = jacobi3dChain(4, 12, 12, 12);
  StencilProgram Fused = Original.clone();
  auto Report = fuseAllStencils(Fused);
  ASSERT_TRUE(Report) << Report.message();
  EXPECT_EQ(Report->FusedPairs, 3);
  EXPECT_EQ(Fused.Nodes.size(), 1u);

  auto CompiledOriginal = CompiledProgram::compile(std::move(Original));
  auto CompiledFused = CompiledProgram::compile(std::move(Fused));
  ASSERT_TRUE(CompiledOriginal);
  ASSERT_TRUE(CompiledFused) << CompiledFused.message();
  auto Inputs = materializeInputs(CompiledOriginal->program());
  auto ResultOriginal = runReference(*CompiledOriginal, Inputs);
  auto ResultFused = runReference(*CompiledFused, Inputs);
  ASSERT_TRUE(ResultOriginal);
  ASSERT_TRUE(ResultFused);
  // Fusion computes through the halo; exactness holds on the interior.
  expectInteriorMatch(CompiledFused->program(), "a4",
                      ResultFused->field("a4"),
                      ResultOriginal->field("a4"));
}

TEST(FusionTest, FusionPreservesSemanticsOnDiamond) {
  StencilProgram Original = diamondProgram(12, 12);
  StencilProgram Fused = Original.clone();
  auto Report = fuseAllStencils(Fused);
  ASSERT_TRUE(Report) << Report.message();
  // B fuses into C; A then has a single consumer left and fuses too.
  EXPECT_EQ(Report->FusedPairs, 2);
  EXPECT_EQ(Fused.Nodes.size(), 1u);
  auto CompiledOriginal = CompiledProgram::compile(std::move(Original));
  auto CompiledFused = CompiledProgram::compile(std::move(Fused));
  ASSERT_TRUE(CompiledFused) << CompiledFused.message();
  auto Inputs = materializeInputs(CompiledOriginal->program());
  auto ResultOriginal = runReference(*CompiledOriginal, Inputs);
  auto ResultFused = runReference(*CompiledFused, Inputs);
  expectInteriorMatch(CompiledFused->program(), "C",
                      ResultFused->field("C"), ResultOriginal->field("C"));
}

TEST(FusionTest, FusionNeverIncreasesPipelineLatency) {
  // For a symmetric chain the fused window distance equals the sum of the
  // individual ones, so L is unchanged; it must never grow (Fig. 11b:
  // spatial fusion "only reduces latency").
  StencilProgram Original = jacobi3dChain(3, 6, 8, 8);
  StencilProgram Fused = Original.clone();
  ASSERT_TRUE(fuseAllStencils(Fused));
  auto CompiledOriginal = CompiledProgram::compile(std::move(Original));
  auto CompiledFused = CompiledProgram::compile(std::move(Fused));
  auto DataflowOriginal = analyzeDataflow(*CompiledOriginal);
  auto DataflowFused = analyzeDataflow(*CompiledFused);
  ASSERT_TRUE(DataflowOriginal);
  ASSERT_TRUE(DataflowFused);
  EXPECT_LE(DataflowFused->PipelineLatency,
            DataflowOriginal->PipelineLatency);
}

TEST(FusionTest, OverlappingWindowsReducePipelineLatency) {
  // When the consumer reads the producer at a forward offset, the fused
  // access window overlaps the producer's own window, and the combined
  // initialization phase is shorter than the chained ones (the latency
  // reduction of Sec. V-B).
  StencilProgram P;
  P.IterationSpace = Shape({16, 16});
  addInput(P, "a");
  addStencil(P, "x", "x = a[-1, 0] + a[1, 0];", DataType::Float32,
             {{"a", BoundaryCondition::constant(0.0)}});
  addStencil(P, "y", "y = x[1, 0] * 2.0;", DataType::Float32,
             {{"x", BoundaryCondition::constant(0.0)}});
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  StencilProgram Fused = P.clone();
  ASSERT_TRUE(fuseAllStencils(Fused));
  auto CompiledOriginal = CompiledProgram::compile(std::move(P));
  auto CompiledFused = CompiledProgram::compile(std::move(Fused));
  ASSERT_TRUE(CompiledFused) << CompiledFused.message();
  auto DataflowOriginal = analyzeDataflow(*CompiledOriginal);
  auto DataflowFused = analyzeDataflow(*CompiledFused);
  EXPECT_LT(DataflowFused->PipelineLatency,
            DataflowOriginal->PipelineLatency);
}

TEST(FusionTest, FusedProgramCombinesInternalBuffers) {
  // After fusing two Jacobi steps, the single node reads the input over a
  // doubled window: one merged buffer instead of two separate ones.
  StencilProgram P = jacobi3dChain(2, 6, 8, 8);
  ASSERT_TRUE(fuseAllStencils(P));
  ASSERT_EQ(P.Nodes.size(), 1u);
  NodeBuffers Buffers = computeNodeBuffers(P, P.Nodes[0], P.VectorWidth);
  ASSERT_EQ(Buffers.Buffers.size(), 1u);
  // Window spans [-2JI .. +2JI]: 4*J*I + 1 elements.
  EXPECT_EQ(Buffers.Buffers[0].SizeElements, 4 * 8 * 8 + 1);
}

TEST(FusionTest, ShiftedInstantiationUsesDistinctWindows) {
  // y reads x at two offsets; x reads a at two offsets. The fused node
  // must read a at the combined offsets {-2, 0, 2} (via two instances).
  StencilProgram P;
  P.IterationSpace = Shape({1, 16});
  addInput(P, "a");
  addStencil(P, "x", "x = a[0, -1] + a[0, 1];", DataType::Float32,
             {{"a", BoundaryCondition::constant(0.0)}});
  addStencil(P, "y", "y = x[0, -1] * x[0, 1];", DataType::Float32,
             {{"x", BoundaryCondition::constant(0.0)}});
  P.Outputs = {"y"};
  ASSERT_FALSE(analyzeProgram(P));
  StencilProgram Original = P.clone();
  ASSERT_TRUE(fuseAllStencils(P));
  ASSERT_EQ(P.Nodes.size(), 1u);
  const FieldAccesses *FA = P.Nodes[0].accessesFor("a");
  ASSERT_NE(FA, nullptr);
  EXPECT_EQ(FA->Offsets.size(), 3u); // {-2, 0, 2}.

  auto CompiledOriginal = CompiledProgram::compile(std::move(Original));
  auto CompiledFused = CompiledProgram::compile(std::move(P));
  ASSERT_TRUE(CompiledFused) << CompiledFused.message();
  auto Inputs = materializeInputs(CompiledOriginal->program());
  auto A = runReference(*CompiledOriginal, Inputs);
  auto B = runReference(*CompiledFused, Inputs);
  expectInteriorMatch(CompiledFused->program(), "y", B->field("y"),
                      A->field("y"));
}

TEST(FusionTest, RandomChainsFuseCorrectly) {
  // Chains with constant boundaries fuse fully as long as the fused code
  // stays below the growth limit (length 4 is the deepest 7-point chain
  // under it); results must be preserved on the interior.
  for (int Length : {2, 3, 4}) {
    StencilProgram Original = jacobi3dChain(Length, 12, 12, 12);
    StencilProgram Fused = Original.clone();
    ASSERT_TRUE(fuseAllStencils(Fused));
    auto CompiledOriginal = CompiledProgram::compile(std::move(Original));
    auto CompiledFused = CompiledProgram::compile(std::move(Fused));
    ASSERT_TRUE(CompiledFused);
    auto Inputs = materializeInputs(CompiledOriginal->program());
    auto A = runReference(*CompiledOriginal, Inputs);
    auto B = runReference(*CompiledFused, Inputs);
    std::string Out = formatString("a%d", Length);
    expectInteriorMatch(CompiledFused->program(), Out, B->field(Out),
                        A->field(Out));
  }
}

//===----------------------------------------------------------------------===//
// NestDim / MapFission / extraction (Fig. 13 external path)
//===----------------------------------------------------------------------===//

namespace {

/// Builds a Fig. 17a-style SDFG: a vertical map over k containing a chain
/// of two 2D stencils with a scoped transient between them.
SDFG buildVerticalMapSDFG() {
  SDFG G("external");
  G.Domain = Shape({4, 8, 8});
  EXPECT_FALSE(G.addContainer(
      Container{"in_field", DataType::Float32, {true, true, true},
                ContainerKind::Array, 0, false}));
  EXPECT_FALSE(G.addContainer(
      Container{"tmp", DataType::Float32, {false, true, true},
                ContainerKind::Array, 0, true}));
  EXPECT_FALSE(G.addContainer(
      Container{"out_field", DataType::Float32, {true, true, true},
                ContainerKind::Array, 0, false}));

  State &S = G.addState("main");
  auto [Entry, Exit] = S.addMap("k", 0, 4);

  // Stencil 1: 2D laplace on the k-th slice of in_field -> tmp.
  StencilNode S1;
  S1.Name = "lap";
  auto Code1 = parseStencilCode(
      "lap = in_field[0,-1] + in_field[0,1] + in_field[-1,0] + "
      "in_field[1,0] - 4.0 * in_field[0,0];");
  EXPECT_TRUE(Code1);
  S1.Code = Code1.takeValue();
  S1.Boundaries["in_field"] = BoundaryCondition::constant(0.0);
  StencilLibraryNode *Lib1 = S.addStencil(std::move(S1));

  // Stencil 2: scale tmp -> out_field.
  StencilNode S2;
  S2.Name = "scale";
  auto Code2 = parseStencilCode("scale = tmp[0,0] * 0.5;");
  EXPECT_TRUE(Code2);
  S2.Code = Code2.takeValue();
  StencilLibraryNode *Lib2 = S.addStencil(std::move(S2));

  AccessNode *In = S.addAccess("in_field");
  AccessNode *Tmp = S.addAccess("tmp");
  AccessNode *Out = S.addAccess("out_field");
  S.connect(In, Entry, "in_field");
  S.connect(Entry, Lib1, "in_field");
  S.connect(Lib1, Tmp, "tmp");
  S.connect(Tmp, Lib2, "tmp");
  S.connect(Lib2, Exit, "out_field");
  S.connect(Exit, Out, "out_field");
  return G;
}

} // namespace

TEST(TransformsTest, MapFissionSplitsScopes) {
  SDFG G = buildVerticalMapSDFG();
  State &S = G.states()[0];
  int MapId = S.nodesOfType<MapEntryNode>()[0]->id();
  ASSERT_FALSE(applyMapFission(G, 0, MapId, 0));
  // Two separate maps now; the transient spans k.
  EXPECT_EQ(G.states()[0].nodesOfType<MapEntryNode>().size(), 2u);
  const Container *Tmp = G.findContainer("tmp");
  ASSERT_NE(Tmp, nullptr);
  EXPECT_TRUE(Tmp->DimensionMask[0]);
}

TEST(TransformsTest, NestDimRaisesRank) {
  SDFG G = buildVerticalMapSDFG();
  State &S = G.states()[0];
  int MapId = S.nodesOfType<MapEntryNode>()[0]->id();
  ASSERT_FALSE(applyMapFission(G, 0, MapId, 0));
  // Nest both remaining maps.
  while (!G.states()[0].nodesOfType<MapEntryNode>().empty()) {
    int Id = G.states()[0].nodesOfType<MapEntryNode>()[0]->id();
    ASSERT_FALSE(applyNestDim(G, 0, Id, 0));
  }
  auto Libraries = G.states()[0].nodesOfType<StencilLibraryNode>();
  ASSERT_EQ(Libraries.size(), 2u);
  // The laplace stencil's offsets are now rank 3 with a leading 0.
  for (auto *Lib : Libraries) {
    for (const Assignment &Stmt : Lib->stencil().Code.Statements)
      walkExpr(*Stmt.Value, [&](const Expr &E) {
        if (const auto *Access = dyn_cast<FieldAccessExpr>(&E)) {
          EXPECT_EQ(Access->offset().size(), 3u);
          EXPECT_EQ(Access->offset()[0], 0);
        }
      });
  }
}

TEST(TransformsTest, NestDimRequiresSingleStencil) {
  SDFG G = buildVerticalMapSDFG();
  int MapId = G.states()[0].nodesOfType<MapEntryNode>()[0]->id();
  Error Err = applyNestDim(G, 0, MapId, 0);
  ASSERT_TRUE(Err);
  EXPECT_NE(Err.message().find("MapFission"), std::string::npos);
}

TEST(TransformsTest, CanonicalizeAndExtractRunsEndToEnd) {
  SDFG G = buildVerticalMapSDFG();
  ASSERT_FALSE(canonicalize(G));
  auto Program = extractStencilProgram(G);
  ASSERT_TRUE(Program) << Program.message();
  EXPECT_EQ(Program->Nodes.size(), 2u);
  EXPECT_EQ(Program->Inputs.size(), 1u);
  EXPECT_EQ(Program->Outputs, std::vector<std::string>{"out_field"});

  // The extracted program must compute exactly what a hand-written 3D
  // program computes.
  StencilProgram Manual;
  Manual.IterationSpace = Shape({4, 8, 8});
  addInput(Manual, "in_field", DataType::Float32,
           Program->Inputs[0].Source);
  addStencil(Manual, "tmp",
             "tmp = in_field[0,0,-1] + in_field[0,0,1] + in_field[0,-1,0] "
             "+ in_field[0,1,0] - 4.0 * in_field[0,0,0];",
             DataType::Float32,
             {{"in_field", BoundaryCondition::constant(0.0)}});
  addStencil(Manual, "out_field", "out_field = tmp[0,0,0] * 0.5;");
  Manual.Outputs = {"out_field"};
  ASSERT_FALSE(analyzeProgram(Manual));

  auto CompiledExtracted = CompiledProgram::compile(Program->clone());
  auto CompiledManual = CompiledProgram::compile(std::move(Manual));
  ASSERT_TRUE(CompiledExtracted) << CompiledExtracted.message();
  ASSERT_TRUE(CompiledManual);
  auto Inputs = materializeInputs(CompiledExtracted->program());
  auto A = runReference(*CompiledExtracted, Inputs);
  auto B = runReference(*CompiledManual, Inputs);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  ValidationReport Validation = validateField(
      "out_field", A->field("out_field"), B->field("out_field"));
  EXPECT_TRUE(Validation.Passed) << Validation.Summary;
}

TEST(TransformsTest, ExtractionThenFusionShrinksDag) {
  // The full case-study pipeline shape: canonicalize, extract, fuse.
  SDFG G = buildVerticalMapSDFG();
  ASSERT_FALSE(canonicalize(G));
  auto Program = extractStencilProgram(G);
  ASSERT_TRUE(Program);
  EXPECT_EQ(Program->Nodes.size(), 2u);
  auto Report = fuseAllStencils(*Program);
  ASSERT_TRUE(Report) << Report.message();
  EXPECT_EQ(Report->FusedPairs, 1);
  EXPECT_EQ(Program->Nodes.size(), 1u);
  EXPECT_FALSE(Program->validate());
}

TEST(FusionTest, GrowthLimitStopsExponentialChains) {
  // Each fusion instantiates the producer once per read offset, so deep
  // 7-point chains grow exponentially; the legality check must refuse
  // before the code explodes, leaving a partially fused (still valid)
  // program.
  StencilProgram P = jacobi3dChain(8, 12, 12, 12);
  auto Report = fuseAllStencils(P);
  ASSERT_TRUE(Report) << Report.message();
  EXPECT_GT(Report->FusedPairs, 0);
  EXPECT_GT(P.Nodes.size(), 1u); // Fusion stopped early.
  EXPECT_FALSE(P.validate());
  size_t Statements = 0;
  for (const StencilNode &Node : P.Nodes)
    Statements = std::max(Statements, Node.Code.Statements.size());
  EXPECT_LE(Statements, 768u);
}
