//===- frontend/ProgramLoader.cpp - JSON program descriptions ---------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/ProgramLoader.h"

#include "frontend/Parser.h"
#include "frontend/SemanticAnalysis.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace stencilflow;
using json::Value;

namespace {

/// Renders the offending JSON value for error context, truncated so
/// messages stay one line: ` (got {"kind": 1})`.
std::string got(const Value &V) {
  std::string Text = V.toString();
  constexpr size_t MaxLen = 80;
  if (Text.size() > MaxLen)
    Text = Text.substr(0, MaxLen - 3) + "...";
  return " (got " + Text + ")";
}

/// Same, for a field that may be absent entirely.
std::string got(const Value *V) {
  return V ? got(*V) : std::string(" (missing)");
}

/// Malformed-description error: "<json path>: <what> (got <value>)". The
/// path names the offending field in the document (e.g. "inputs.a.data"),
/// so the message pinpoints what to fix without re-reading the schema.
Error badField(const std::string &Path, const std::string &What,
               const Value *V) {
  return makeError(ErrorCode::InvalidInput, Path + ": " + What + got(V));
}

Expected<DataSource> dataSourceFromJson(const Value &V,
                                        const std::string &Path) {
  if (!V.isObject())
    return badField(Path, "data source must be an object", &V);
  const json::Object &Obj = V.getObject();
  const Value *KindValue = Obj.get("kind");
  if (!KindValue || !KindValue->isString())
    return badField(Path, "data source requires a string 'kind'", &V);
  const std::string &Kind = KindValue->getString();
  if (Kind == "zero")
    return DataSource::zero();
  if (Kind == "constant") {
    const Value *Val = Obj.get("value");
    if (!Val || !Val->isNumber())
      return badField(Path + ".value",
                      "constant data source requires a numeric 'value'",
                      Val);
    return DataSource::constant(Val->getNumber());
  }
  if (Kind == "random") {
    uint64_t Seed = 42;
    if (const Value *SeedValue = Obj.get("seed")) {
      // A seed above 2^53 is hex text (json::uint64ToJson).
      if (SeedValue->isString() && startsWith(SeedValue->getString(), "0x")) {
        if (json::readHexMember(Obj, "seed", Seed))
          return badField(Path + ".seed",
                          "random data source 'seed' must be 64-bit hex",
                          SeedValue);
        return DataSource::random(Seed);
      }
      if (!SeedValue->isNumber())
        return badField(Path + ".seed",
                        "random data source 'seed' must be a number",
                        SeedValue);
      // Read as int64: programToJson once wrote seeds above 2^63 that way.
      std::optional<int64_t> Signed =
          json::toInteger<int64_t>(SeedValue->getNumber());
      if (!Signed)
        return badField(Path + ".seed",
                        "random data source 'seed' must be a 64-bit integer",
                        SeedValue);
      Seed = static_cast<uint64_t>(*Signed);
    }
    return DataSource::random(Seed);
  }
  if (Kind == "ramp") {
    double Step = 1.0;
    if (const Value *StepValue = Obj.get("step")) {
      if (!StepValue->isNumber())
        return badField(Path + ".step",
                        "ramp data source 'step' must be a number",
                        StepValue);
      Step = StepValue->getNumber();
    }
    return DataSource::ramp(Step);
  }
  return badField(Path + ".kind",
                  "unknown data source kind (zero, constant, random, ramp)",
                  KindValue);
}

Value dataSourceToJson(const DataSource &Source) {
  json::Object Obj;
  switch (Source.SourceKind) {
  case DataSource::Kind::Zero:
    Obj.set("kind", "zero");
    break;
  case DataSource::Kind::Constant:
    Obj.set("kind", "constant");
    Obj.set("value", Source.Value);
    break;
  case DataSource::Kind::Random:
    Obj.set("kind", "random");
    Obj.set("seed", json::uint64ToJson(Source.Seed));
    break;
  case DataSource::Kind::Ramp:
    Obj.set("kind", "ramp");
    Obj.set("step", Source.Value);
    break;
  }
  return Value(std::move(Obj));
}

Expected<BoundaryCondition> boundaryFromJson(const Value &V,
                                             const std::string &Path) {
  if (!V.isObject())
    return badField(Path, "boundary condition must be an object", &V);
  const json::Object &Obj = V.getObject();
  const Value *TypeValue = Obj.get("type");
  if (!TypeValue || !TypeValue->isString())
    return badField(Path, "boundary condition requires a string 'type'",
                    &V);
  Expected<BoundaryKind> Kind = parseBoundaryKind(TypeValue->getString());
  if (!Kind)
    return Kind.takeError().addContext(Path + ".type");
  switch (*Kind) {
  case BoundaryKind::Constant: {
    double BoundaryValue = 0.0;
    if (const Value *Val = Obj.get("value")) {
      if (!Val->isNumber())
        return badField(Path + ".value",
                        "constant boundary 'value' must be a number", Val);
      BoundaryValue = Val->getNumber();
    }
    return BoundaryCondition::constant(BoundaryValue);
  }
  case BoundaryKind::Copy:
    return BoundaryCondition::copy();
  case BoundaryKind::Shrink:
    return BoundaryCondition::shrink();
  }
  return badField(Path, "invalid boundary kind", TypeValue);
}

Value boundaryToJson(const BoundaryCondition &Boundary) {
  json::Object Obj;
  Obj.set("type", std::string(boundaryKindName(Boundary.Kind)));
  if (Boundary.Kind == BoundaryKind::Constant)
    Obj.set("value", Boundary.Value);
  return Value(std::move(Obj));
}

/// Maps a list of dimension names (e.g. ["k", "i"]) to a mask over the
/// program dimensions.
Expected<std::vector<bool>>
dimensionMaskFromNames(const std::vector<Value> &Names, size_t Rank,
                       const std::string &Path) {
  std::vector<std::string> DimNames = StencilProgram::dimensionNames(Rank);
  std::vector<bool> Mask(Rank, false);
  for (const Value &NameValue : Names) {
    if (!NameValue.isString())
      return badField(Path, "input dimension names must be strings",
                      &NameValue);
    const std::string &Name = NameValue.getString();
    auto It = std::find(DimNames.begin(), DimNames.end(), Name);
    if (It == DimNames.end()) {
      std::string Known;
      for (const std::string &Dim : DimNames)
        Known += (Known.empty() ? "" : ", ") + Dim;
      return makeError(ErrorCode::InvalidInput,
                       Path + ": unknown dimension name '" + Name +
                           "' (this program has: " + Known + ")");
    }
    Mask[static_cast<size_t>(It - DimNames.begin())] = true;
  }
  return Mask;
}

} // namespace

Expected<StencilProgram> stencilflow::programFromJson(const Value &Root) {
  if (!Root.isObject())
    return makeError("program description must be a JSON object");
  const json::Object &Obj = Root.getObject();

  StencilProgram Program;
  if (const Value *Name = Obj.get("name")) {
    if (!Name->isString())
      return badField("name", "must be a string", Name);
    Program.Name = Name->getString();
  }

  const Value *Dims = Obj.get("dimensions");
  if (!Dims || !Dims->isArray())
    return badField("dimensions", "program requires a 'dimensions' array",
                    Dims);
  std::vector<int64_t> Extents;
  int64_t Cells = 1;
  for (const Value &Extent : Dims->getArray()) {
    std::optional<int64_t> E =
        Extent.isNumber() ? json::toInteger<int64_t>(Extent.getNumber())
                          : std::nullopt;
    if (!E || *E <= 0)
      return badField("dimensions", "must contain positive integers",
                      &Extent);
    if (__builtin_mul_overflow(Cells, *E, &Cells))
      return badField("dimensions", "cell count overflows 64 bits", Dims);
    Extents.push_back(*E);
  }
  if (Extents.empty() || Extents.size() > 3)
    return badField("dimensions", "programs must have 1, 2, or 3 dimensions",
                    Dims);
  Program.IterationSpace = Shape(std::move(Extents));
  size_t Rank = Program.IterationSpace.rank();

  if (const Value *W = Obj.get("vectorization")) {
    std::optional<int> Width =
        W->isNumber() ? json::toInteger<int>(W->getNumber()) : std::nullopt;
    if (!Width || *Width < 1)
      return badField("vectorization", "must be a positive integer", W);
    Program.VectorWidth = *Width;
  }

  // Inputs.
  if (const Value *Inputs = Obj.get("inputs")) {
    if (!Inputs->isObject())
      return badField("inputs", "must be an object", Inputs);
    for (const auto &[InputName, InputValue] : Inputs->getObject()) {
      std::string Path = "inputs." + InputName;
      if (!InputValue->isObject())
        return badField(Path, "input must be an object", InputValue.get());
      const json::Object &InputObj = InputValue->getObject();
      Field Input;
      Input.Name = InputName;
      Input.DimensionMask = std::vector<bool>(Rank, true);
      if (const Value *Type = InputObj.get("data_type")) {
        if (!Type->isString())
          return badField(Path + ".data_type", "must be a string", Type);
        Expected<DataType> Parsed = parseDataType(Type->getString());
        if (!Parsed)
          return Parsed.takeError().addContext(Path + ".data_type");
        Input.Type = *Parsed;
      }
      if (const Value *InputDims = InputObj.get("dimensions")) {
        if (!InputDims->isArray())
          return badField(Path + ".dimensions",
                          "must be an array of dimension names", InputDims);
        Expected<std::vector<bool>> Mask = dimensionMaskFromNames(
            InputDims->getArray(), Rank, Path + ".dimensions");
        if (!Mask)
          return Mask.takeError();
        Input.DimensionMask = *Mask;
      }
      if (const Value *Source = InputObj.get("data")) {
        Expected<DataSource> Parsed =
            dataSourceFromJson(*Source, Path + ".data");
        if (!Parsed)
          return Parsed.takeError();
        Input.Source = *Parsed;
      }
      Program.Inputs.push_back(std::move(Input));
    }
  }

  // Stencil nodes.
  const Value *ProgramNodes = Obj.get("program");
  if (!ProgramNodes || !ProgramNodes->isObject())
    return badField("program", "requires a 'program' object of stencils",
                    ProgramNodes);
  for (const auto &[NodeName, NodeValue] : ProgramNodes->getObject()) {
    std::string Path = "program." + NodeName;
    if (!NodeValue->isObject())
      return badField(Path, "stencil must be an object", NodeValue.get());
    const json::Object &NodeObj = NodeValue->getObject();
    StencilNode Node;
    Node.Name = NodeName;

    const Value *Computation = NodeObj.get("computation");
    if (!Computation || !Computation->isString())
      return badField(Path + ".computation",
                      "stencil requires a 'computation' string",
                      Computation);
    Expected<StencilCode> Code = parseStencilCode(Computation->getString());
    if (!Code)
      return Code.takeError().addContext(Path + ".computation");
    Node.Code = Code.takeValue();

    if (const Value *Type = NodeObj.get("data_type")) {
      if (!Type->isString())
        return badField(Path + ".data_type", "must be a string", Type);
      Expected<DataType> Parsed = parseDataType(Type->getString());
      if (!Parsed)
        return Parsed.takeError().addContext(Path + ".data_type");
      Node.Type = *Parsed;
    }

    if (const Value *Boundaries = NodeObj.get("boundary_conditions")) {
      if (!Boundaries->isObject())
        return badField(Path + ".boundary_conditions", "must be an object",
                        Boundaries);
      for (const auto &[FieldName, BoundaryValue] : Boundaries->getObject()) {
        Expected<BoundaryCondition> Boundary = boundaryFromJson(
            *BoundaryValue, Path + ".boundary_conditions." + FieldName);
        if (!Boundary)
          return Boundary.takeError();
        Node.Boundaries[FieldName] = *Boundary;
      }
    }

    if (const Value *Shrink = NodeObj.get("shrink")) {
      if (!Shrink->isBoolean())
        return badField(Path + ".shrink", "must be a boolean", Shrink);
      Node.ShrinkOutput = Shrink->getBoolean();
    }

    Program.Nodes.push_back(std::move(Node));
  }

  // Outputs. Default: nodes nobody consumes. (Consumption is only known
  // after semantic analysis, so explicit outputs are resolved first.)
  if (const Value *Outputs = Obj.get("outputs")) {
    if (!Outputs->isArray())
      return badField("outputs", "must be an array of field names",
                      Outputs);
    for (const Value &Output : Outputs->getArray()) {
      if (!Output.isString())
        return badField("outputs", "must be an array of field names",
                        &Output);
      Program.Outputs.push_back(Output.getString());
    }
  }

  // Time loop: output -> input feedback bindings for iterative programs.
  if (const Value *TimeLoop = Obj.get("time_loop")) {
    if (!TimeLoop->isArray())
      return badField("time_loop", "must be an array of bindings",
                      TimeLoop);
    size_t Index = 0;
    for (const Value &Entry : TimeLoop->getArray()) {
      std::string Path = formatString("time_loop[%zu]", Index++);
      if (!Entry.isObject())
        return badField(Path, "'time_loop' entries must be objects",
                        &Entry);
      const json::Object &EntryObj = Entry.getObject();
      const Value *Output = EntryObj.get("output");
      const Value *Input = EntryObj.get("input");
      if (!Output || !Output->isString() || !Input || !Input->isString())
        return badField(
            Path, "'time_loop' entries require 'output' and 'input' "
                  "field names",
            &Entry);
      Program.TimeLoop.push_back({Output->getString(), Input->getString()});
    }
  }

  if (Error Err = analyzeProgram(Program)) {
    // If outputs were defaulted, retry after inferring sinks.
    if (!Program.Outputs.empty())
      return Err;
    for (StencilNode &Node : Program.Nodes)
      if (Error NodeErr = analyzeNode(Program, Node))
        return NodeErr;
    for (const StencilNode &Node : Program.Nodes)
      if (Program.consumersOf(Node.Name).empty())
        Program.Outputs.push_back(Node.Name);
    if (Error RetryErr = Program.validate())
      return RetryErr;
  }
  return Program;
}

Expected<StencilProgram>
stencilflow::programFromJsonText(std::string_view Text) {
  Expected<Value> Parsed = json::parse(Text);
  if (!Parsed)
    return Parsed.takeError().addContext("parsing program description");
  return programFromJson(*Parsed);
}

Expected<StencilProgram>
stencilflow::loadProgramFile(const std::string &Path) {
  Expected<Value> Parsed = json::parseFile(Path);
  if (!Parsed)
    return Parsed.takeError();
  Expected<StencilProgram> Program = programFromJson(*Parsed);
  if (!Program)
    return Program.takeError().addContext(Path);
  return Program;
}

Value stencilflow::programToJson(const StencilProgram &Program) {
  json::Object Root;
  Root.set("name", Program.Name);

  std::vector<Value> Dims;
  for (int64_t Extent : Program.IterationSpace.extents())
    Dims.emplace_back(Extent);
  Root.set("dimensions", Value(std::move(Dims)));
  Root.set("vectorization", Program.VectorWidth);

  json::Object Inputs;
  std::vector<std::string> DimNames =
      StencilProgram::dimensionNames(Program.IterationSpace.rank());
  for (const Field &Input : Program.Inputs) {
    json::Object InputObj;
    InputObj.set("data_type", std::string(dataTypeName(Input.Type)));
    if (!Input.isFullRank()) {
      std::vector<Value> Names;
      for (size_t Dim = 0; Dim != Input.DimensionMask.size(); ++Dim)
        if (Input.DimensionMask[Dim])
          Names.emplace_back(DimNames[Dim]);
      InputObj.set("dimensions", Value(std::move(Names)));
    }
    InputObj.set("data", dataSourceToJson(Input.Source));
    Inputs.set(Input.Name, Value(std::move(InputObj)));
  }
  Root.set("inputs", Value(std::move(Inputs)));

  std::vector<Value> Outputs;
  for (const std::string &Output : Program.Outputs)
    Outputs.emplace_back(Output);
  Root.set("outputs", Value(std::move(Outputs)));

  // Omitted when empty so fingerprints of loop-free programs are stable.
  if (!Program.TimeLoop.empty()) {
    std::vector<Value> TimeLoop;
    for (const IterationBinding &Binding : Program.TimeLoop) {
      json::Object BindingObj;
      BindingObj.set("output", Binding.Output);
      BindingObj.set("input", Binding.Input);
      TimeLoop.emplace_back(std::move(BindingObj));
    }
    Root.set("time_loop", Value(std::move(TimeLoop)));
  }

  json::Object NodesObj;
  for (const StencilNode &Node : Program.Nodes) {
    json::Object NodeObj;
    NodeObj.set("computation", Node.Code.toString());
    NodeObj.set("data_type", std::string(dataTypeName(Node.Type)));
    if (!Node.Boundaries.empty()) {
      json::Object Boundaries;
      for (const auto &[FieldName, Boundary] : Node.Boundaries)
        Boundaries.set(FieldName, boundaryToJson(Boundary));
      NodeObj.set("boundary_conditions", Value(std::move(Boundaries)));
    }
    if (Node.ShrinkOutput)
      NodeObj.set("shrink", true);
    NodesObj.set(Node.Name, Value(std::move(NodeObj)));
  }
  Root.set("program", Value(std::move(NodesObj)));
  return Value(std::move(Root));
}
