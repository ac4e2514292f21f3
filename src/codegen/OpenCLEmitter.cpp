//===- codegen/OpenCLEmitter.cpp - Annotated OpenCL generation ----------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "codegen/OpenCLEmitter.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace stencilflow;

namespace {

/// Scalar C type of \p Type.
std::string scalarType(DataType Type) {
  return std::string(dataTypeOpenCLName(Type));
}

/// Vector C type for W lanes.
std::string vectorType(DataType Type, int W) {
  if (W == 1)
    return scalarType(Type);
  return scalarType(Type) + formatString("%d", W);
}

std::string channelName(const std::string &Source,
                        const std::string &Consumer) {
  return "ch_" + Source + "__to__" + Consumer;
}

/// Emits a floating-point literal with the type's suffix.
std::string literalText(double Value, DataType Type) {
  std::string Text;
  if (Value == std::floor(Value) && std::fabs(Value) < 1e15)
    Text = formatString("%.1f", Value);
  else
    Text = formatString("%.9g", Value);
  if (Type == DataType::Float32)
    Text += "f";
  return Text;
}

/// Math intrinsic spelling for the element type.
std::string intrinsicText(Intrinsic Fn, DataType Type) {
  bool F32 = Type == DataType::Float32;
  switch (Fn) {
  case Intrinsic::Sqrt:
    return F32 ? "sqrtf" : "sqrt";
  case Intrinsic::Abs:
    return F32 ? "fabsf" : "fabs";
  case Intrinsic::Exp:
    return F32 ? "expf" : "exp";
  case Intrinsic::Log:
    return F32 ? "logf" : "log";
  case Intrinsic::Sin:
    return F32 ? "sinf" : "sin";
  case Intrinsic::Cos:
    return F32 ? "cosf" : "cos";
  case Intrinsic::Tanh:
    return F32 ? "tanhf" : "tanh";
  case Intrinsic::Floor:
    return F32 ? "floorf" : "floor";
  case Intrinsic::Ceil:
    return F32 ? "ceilf" : "ceil";
  case Intrinsic::Min:
    return F32 ? "fminf" : "fmin";
  case Intrinsic::Max:
    return F32 ? "fmaxf" : "fmax";
  case Intrinsic::Pow:
    return F32 ? "powf" : "pow";
  }
  return "<?>";
}

/// Renders an expression, mapping field accesses to their predicated slot
/// variables (in_<slot>).
std::string emitExpr(const Expr &E, const compute::Kernel &Kernel,
                     DataType Type) {
  switch (E.kind()) {
  case ExprKind::Literal:
    return literalText(cast<LiteralExpr>(&E)->value(), Type);
  case ExprKind::FieldAccess: {
    const auto *Access = cast<FieldAccessExpr>(&E);
    int Slot = Kernel.inputIndex(Access->field(), Access->offset());
    assert(Slot >= 0 && "access without a kernel slot");
    return formatString("in_%d", Slot);
  }
  case ExprKind::LocalRef:
    return cast<LocalRefExpr>(&E)->name();
  case ExprKind::Unary: {
    const auto *Unary = cast<UnaryExpr>(&E);
    const char *Op = Unary->op() == UnaryOp::Neg ? "-" : "!";
    return formatString("(%s%s)", Op,
                        emitExpr(Unary->operand(), Kernel, Type).c_str());
  }
  case ExprKind::Binary: {
    const auto *Binary = cast<BinaryExpr>(&E);
    return formatString("(%s %s %s)",
                        emitExpr(Binary->lhs(), Kernel, Type).c_str(),
                        std::string(binaryOpSpelling(Binary->op())).c_str(),
                        emitExpr(Binary->rhs(), Kernel, Type).c_str());
  }
  case ExprKind::Call: {
    const auto *Call = cast<CallExpr>(&E);
    std::string Text = intrinsicText(Call->intrinsic(), Type) + "(";
    for (size_t I = 0, N = Call->args().size(); I != N; ++I) {
      if (I)
        Text += ", ";
      Text += emitExpr(*Call->args()[I], Kernel, Type);
    }
    return Text + ")";
  }
  case ExprKind::Select: {
    const auto *Select = cast<SelectExpr>(&E);
    return formatString(
        "(%s ? %s : %s)",
        emitExpr(Select->condition(), Kernel, Type).c_str(),
        emitExpr(Select->trueValue(), Kernel, Type).c_str(),
        emitExpr(Select->falseValue(), Kernel, Type).c_str());
  }
  }
  return "<?>";
}

/// Everything the emitter needs about one device's design.
struct DeviceContext {
  int Device = 0;
  std::vector<size_t> Nodes;         ///< Node indices placed here.
  std::set<std::string> ReadFields;  ///< Off-chip inputs read here.
  std::vector<std::string> Outputs;  ///< Program outputs written here.
};

} // namespace

Expected<std::vector<GeneratedSource>>
stencilflow::emitOpenCL(const CompiledProgram &Compiled,
                        const DataflowAnalysis &Dataflow,
                        const Partition *Placement,
                        const EmitterOptions &Options) {
  const StencilProgram &Program = Compiled.program();
  int W = Compiled.vectorWidth();
  int64_t Iterations = Program.IterationSpace.numCells() / W;
  size_t Rank = Program.IterationSpace.rank();
  std::vector<std::string> Dims = StencilProgram::dimensionNames(Rank);

  auto deviceOf = [&](const std::string &Node) {
    return Placement ? Placement->deviceOf(Node) : 0;
  };
  int NumDevices = 1;
  for (const StencilNode &Node : Program.Nodes)
    NumDevices = std::max(NumDevices, deviceOf(Node.Name) + 1);

  std::vector<DeviceContext> Devices(static_cast<size_t>(NumDevices));
  for (int D = 0; D != NumDevices; ++D)
    Devices[static_cast<size_t>(D)].Device = D;
  for (size_t Index : Compiled.topologicalOrder()) {
    const StencilNode &Node = Program.Nodes[Index];
    DeviceContext &Ctx =
        Devices[static_cast<size_t>(deviceOf(Node.Name))];
    Ctx.Nodes.push_back(Index);
    for (const FieldAccesses &FA : Node.Accesses)
      if (Program.findInput(FA.Field))
        Ctx.ReadFields.insert(FA.Field);
    if (Program.isProgramOutput(Node.Name))
      Ctx.Outputs.push_back(Node.Name);
  }

  std::vector<GeneratedSource> Sources;
  for (DeviceContext &Ctx : Devices) {
    std::string S;
    S += formatString("// Generated by StencilFlow: program '%s', device %d"
                      " of %d\n",
                      Program.Name.c_str(), Ctx.Device, NumDevices);
    S += formatString("// Iteration space %s, vectorization W=%d\n\n",
                      Program.IterationSpace.toString().c_str(), W);
    S += "#pragma OPENCL EXTENSION cl_intel_channels : enable\n";
    bool HasRemote = false;
    if (Placement)
      for (const RemoteStream &Stream : Placement->RemoteStreams)
        if (Stream.SourceDevice == Ctx.Device ||
            Stream.ConsumerDevice == Ctx.Device)
          HasRemote = true;
    if (HasRemote) {
      S += "#include <smi.h> // Streaming Message Interface (Sec. VI-B)\n";
      // Reliable framing: every inter-device vector travels with a
      // sequence number and a CRC-32 of its payload, mirroring the
      // simulator's Go-Back-N transport (sim/Machine.cpp). The receiver
      // drops out-of-sequence or corrupted frames; the SMI runtime's
      // rewind covers the gap.
      S += "\ntypedef struct { uint seq; uint crc; } sf_frame_t;\n\n";
      S += "inline uint sf_crc32(const uchar *data, int len) {\n"
           "  uint crc = 0xFFFFFFFFu;\n"
           "  for (int i = 0; i < len; ++i) {\n"
           "    crc ^= data[i];\n"
           "    #pragma unroll\n"
           "    for (int b = 0; b < 8; ++b)\n"
           "      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));\n"
           "  }\n"
           "  return ~crc;\n"
           "}\n";
    }
    S += "\n";

    // Channel declarations: every edge whose consumer lives here and whose
    // producer also lives here (or is one of our memory readers).
    auto edgeIsLocal = [&](const DataflowEdge &Edge) {
      if (deviceOf(Edge.Consumer) != Ctx.Device)
        return false;
      if (Program.findInput(Edge.Source))
        return true; // Reader is instantiated on the consumer's device.
      return deviceOf(Edge.Source) == Ctx.Device;
    };
    for (const DataflowEdge &Edge : Dataflow.Edges) {
      if (!edgeIsLocal(Edge))
        continue;
      int64_t Depth = Edge.BufferDepth + Options.ExtraChannelDepth;
      S += formatString(
          "channel %s %s __attribute__((depth(%lld))); // delay buffer "
          "%lld\n",
          vectorType(Program.fieldType(Edge.Source), W).c_str(),
          channelName(Edge.Source, Edge.Consumer).c_str(),
          static_cast<long long>(Depth),
          static_cast<long long>(Edge.BufferDepth));
    }
    for (const std::string &Output : Ctx.Outputs)
      S += formatString("channel %s %s __attribute__((depth(64)));\n",
                        vectorType(Program.fieldType(Output), W).c_str(),
                        channelName(Output, "memory").c_str());
    S += "\n";

    // Memory readers: one prefetcher per off-chip input, fanned out to
    // every local consumer.
    for (const std::string &FieldName : Ctx.ReadFields) {
      const Field *Input = Program.findInput(FieldName);
      if (!Input->isFullRank())
        continue; // Lower-rank inputs are passed as kernel arguments.
      std::string VType = vectorType(Input->Type, W);
      S += formatString("__kernel void read_%s(__global const %s *restrict "
                        "mem) {\n",
                        FieldName.c_str(), VType.c_str());
      S += formatString("  for (long i = 0; i < %lld; ++i) {\n",
                        static_cast<long long>(Iterations));
      S += formatString("    const %s value = mem[i];\n", VType.c_str());
      for (size_t Index : Ctx.Nodes) {
        const StencilNode &Node = Program.Nodes[Index];
        if (Node.accessesFor(FieldName) &&
            Dataflow.findEdge(FieldName, Node.Name))
          S += formatString("    write_channel_intel(%s, value);\n",
                            channelName(FieldName, Node.Name).c_str());
      }
      S += "  }\n}\n\n";
    }

    // Stencil units.
    for (size_t Index : Ctx.Nodes) {
      const StencilNode &Node = Program.Nodes[Index];
      const compute::Kernel &Kernel = Compiled.kernel(Index);
      const NodeBuffers &Buffers = Dataflow.Buffers[Index];
      std::string SType = scalarType(Node.Type);
      std::string VType = vectorType(Node.Type, W);
      int64_t Init = Buffers.InitCycles;

      // ROM (lower-rank) inputs become kernel arguments; hence no autorun
      // when present.
      std::vector<std::string> RomFields;
      for (const FieldAccesses &FA : Node.Accesses) {
        const Field *Input = Program.findInput(FA.Field);
        if (Input && !Input->isFullRank())
          RomFields.push_back(FA.Field);
      }

      S += "__attribute__((max_global_work_dim(0)))\n";
      if (RomFields.empty())
        S += "__attribute__((autorun))\n";
      S += formatString("__kernel void stencil_%s(", Node.Name.c_str());
      for (size_t R = 0; R != RomFields.size(); ++R) {
        if (R)
          S += ", ";
        S += formatString("__global const %s *restrict rom_%s",
                          scalarType(Program.fieldType(RomFields[R])).c_str(),
                          RomFields[R].c_str());
      }
      S += ") {\n";

      // Send sequence counters for the reliable framing, one per remote
      // consumer of this node.
      for (size_t Consumer : Program.consumersOf(Node.Name)) {
        const StencilNode &ConsumerNode = Program.Nodes[Consumer];
        if (deviceOf(ConsumerNode.Name) != Ctx.Device)
          S += formatString("  uint smi_seq_%s_to_%s = 0;\n",
                            Node.Name.c_str(),
                            ConsumerNode.Name.c_str());
      }

      // Shift registers (Intel shift-register pattern, Sec. VI-A).
      struct StreamInfo {
        std::string Field;
        int64_t Size;
        int64_t MinLinear;
        int64_t Delay; // Fill-delay steps.
      };
      std::vector<StreamInfo> Streams;
      for (const InternalBuffer &Buffer : Buffers.Buffers) {
        StreamInfo Info;
        Info.Field = Buffer.Field;
        Info.Size =
            (Buffer.InitCycles + 1) * W + std::max<int64_t>(
                                              0, -Buffer.MinLinear);
        Info.MinLinear = Buffer.MinLinear;
        Info.Delay = Init - Buffer.InitCycles;
        Streams.push_back(Info);
        S += formatString("  %s sreg_%s[%lld]; // internal buffer, %lld "
                          "elements of reuse\n",
                          SType.c_str(), Buffer.Field.c_str(),
                          static_cast<long long>(Info.Size),
                          static_cast<long long>(Buffer.SizeElements));
      }

      // Output index counters for boundary predication.
      for (const std::string &Dim : Dims)
        S += formatString("  long %s = 0;\n", Dim.c_str());
      S += formatString(
          "  for (long it = 0; it < %lld; ++it) { // fully pipelined, "
          "II=1\n",
          static_cast<long long>(Iterations + Init));

      // Shift phase.
      for (const StreamInfo &Info : Streams) {
        S += "    #pragma unroll\n";
        S += formatString(
            "    for (int s = 0; s < %lld; ++s)\n      sreg_%s[s] = "
            "sreg_%s[s + %d];\n",
            static_cast<long long>(Info.Size - W), Info.Field.c_str(),
            Info.Field.c_str(), W);
      }

      // Update phase.
      for (const StreamInfo &Info : Streams) {
        S += formatString(
            "    if (it >= %lld && it < %lld) {\n",
            static_cast<long long>(Info.Delay),
            static_cast<long long>(Info.Delay + Iterations));
        S += formatString("      const %s value = read_channel_intel(%s);\n",
                          VType.c_str(),
                          channelName(Info.Field, Node.Name).c_str());
        if (W == 1) {
          S += formatString("      sreg_%s[%lld] = value;\n",
                            Info.Field.c_str(),
                            static_cast<long long>(Info.Size - 1));
        } else {
          S += "      #pragma unroll\n";
          S += formatString(
              "      for (int w = 0; w < %d; ++w)\n        sreg_%s[%lld + "
              "w] = value[w];\n",
              W, Info.Field.c_str(),
              static_cast<long long>(Info.Size - W));
        }
        S += "    }\n";
      }

      // Compute phase with per-lane boundary predication; the conditional
      // write suppresses results during initialization.
      S += formatString("    if (it >= %lld) {\n",
                        static_cast<long long>(Init));
      S += formatString("      %s result;\n", VType.c_str());
      S += "      #pragma unroll\n";
      S += formatString("      for (int w = 0; w < %d; ++w) {\n", W);
      // Predicated slot loads.
      for (size_t Slot = 0, NumSlots = Kernel.inputs().size();
           Slot != NumSlots; ++Slot) {
        const compute::KernelInput &Input = Kernel.inputs()[Slot];
        BoundaryCondition Boundary = Node.boundaryFor(Input.Field);
        std::vector<bool> Mask = Program.fieldDimensionMask(Input.Field);
        bool FullRank = std::all_of(Mask.begin(), Mask.end(),
                                    [](bool B) { return B; });
        // Bounds predicate over the logical index.
        std::string Pred;
        size_t Component = 0;
        for (size_t Dim = 0; Dim != Rank; ++Dim) {
          if (!Mask[Dim])
            continue;
          int Off = Input.Off[Component++];
          std::string Idx = Dims[Dim];
          if (Dim + 1 == Rank)
            Idx += " + w";
          if (Off != 0)
            Idx += formatString(" + (%d)", Off);
          if (!Pred.empty())
            Pred += " && ";
          Pred += formatString("(%s >= 0 && %s < %lld)", Idx.c_str(),
                               Idx.c_str(),
                               static_cast<long long>(
                                   Program.IterationSpace.extent(Dim)));
        }
        if (Pred.empty())
          Pred = "1";

        std::string Read, Center;
        if (FullRank) {
          const StreamInfo *Info = nullptr;
          for (const StreamInfo &Candidate : Streams)
            if (Candidate.Field == Input.Field)
              Info = &Candidate;
          assert(Info && "streamed slot without a shift register");
          int64_t Tap =
              Program.IterationSpace.linearize(Input.Off) - Info->MinLinear;
          Read = formatString("sreg_%s[%lld + w]", Input.Field.c_str(),
                              static_cast<long long>(Tap));
          Center = formatString("sreg_%s[%lld + w]", Input.Field.c_str(),
                                static_cast<long long>(-Info->MinLinear));
        } else {
          // ROM lookup with row-major strides over the spanned dims.
          Shape FieldShape = Program.fieldShape(Input.Field);
          std::vector<int64_t> Strides(FieldShape.rank(), 1);
          for (size_t Dim = FieldShape.rank(); Dim-- > 1;)
            Strides[Dim - 1] = Strides[Dim] * FieldShape.extent(Dim);
          auto romIndex = [&](bool WithOffsets) {
            std::string Text = "0";
            size_t Comp = 0;
            for (size_t Dim = 0; Dim != Rank; ++Dim) {
              if (!Mask[Dim])
                continue;
              std::string Idx = Dims[Dim];
              if (Dim + 1 == Rank)
                Idx += " + w";
              if (WithOffsets && Input.Off[Comp] != 0)
                Idx += formatString(" + (%d)", Input.Off[Comp]);
              Text += formatString(" + (%s) * %lld", Idx.c_str(),
                                   static_cast<long long>(Strides[Comp]));
              ++Comp;
            }
            return Text;
          };
          Read = formatString("rom_%s[%s]", Input.Field.c_str(),
                              romIndex(true).c_str());
          Center = formatString("rom_%s[%s]", Input.Field.c_str(),
                                romIndex(false).c_str());
        }

        std::string Fallback = Boundary.Kind == BoundaryKind::Copy
                                   ? Center
                                   : literalText(Boundary.Value, Node.Type);
        S += formatString("        const %s in_%zu = (%s) ? %s : %s;\n",
                          SType.c_str(), Slot, Pred.c_str(), Read.c_str(),
                          Fallback.c_str());
      }
      // Statements.
      for (size_t StmtIndex = 0;
           StmtIndex != Node.Code.Statements.size(); ++StmtIndex) {
        const Assignment &Stmt = Node.Code.Statements[StmtIndex];
        bool Final = StmtIndex + 1 == Node.Code.Statements.size();
        std::string Value = emitExpr(*Stmt.Value, Kernel, Node.Type);
        if (Final) {
          if (W == 1)
            S += formatString("        result = %s;\n", Value.c_str());
          else
            S += formatString("        result[w] = %s;\n", Value.c_str());
        } else {
          S += formatString("        const %s %s = %s;\n", SType.c_str(),
                            Stmt.Target.c_str(), Value.c_str());
        }
      }
      S += "      }\n";

      // Emit to all consumers (and the writer when this is an output).
      for (size_t Consumer : Program.consumersOf(Node.Name)) {
        const StencilNode &ConsumerNode = Program.Nodes[Consumer];
        if (deviceOf(ConsumerNode.Name) == Ctx.Device) {
          S += formatString("      write_channel_intel(%s, result);\n",
                            channelName(Node.Name, ConsumerNode.Name)
                                .c_str());
        } else {
          // Framed remote push: header (seq + payload CRC) then payload.
          S += formatString(
              "      { // remote stream to device %d\n"
              "        sf_frame_t frame;\n"
              "        frame.seq = smi_seq_%s_to_%s++;\n"
              "        frame.crc = sf_crc32((const uchar *)&result, "
              "(int)sizeof(result));\n"
              "        SMI_Push(&smi_%s_to_%s, &frame);\n"
              "        SMI_Push(&smi_%s_to_%s, &result);\n"
              "      }\n",
              deviceOf(ConsumerNode.Name), Node.Name.c_str(),
              ConsumerNode.Name.c_str(), Node.Name.c_str(),
              ConsumerNode.Name.c_str(), Node.Name.c_str(),
              ConsumerNode.Name.c_str());
        }
      }
      if (Program.isProgramOutput(Node.Name))
        S += formatString("      write_channel_intel(%s, result);\n",
                          channelName(Node.Name, "memory").c_str());

      // Index increment (innermost advances by W).
      std::string Advance;
      for (size_t Dim = Rank; Dim-- > 0;) {
        if (Dim + 1 == Rank) {
          Advance = formatString(
              "      %s += %d;\n      if (%s == %lld) {\n        %s = 0;\n",
              Dims[Dim].c_str(), W, Dims[Dim].c_str(),
              static_cast<long long>(Program.IterationSpace.extent(Dim)),
              Dims[Dim].c_str());
        } else {
          Advance += formatString(
              "        ++%s;\n        if (%s == %lld) {\n          %s = "
              "0;\n",
              Dims[Dim].c_str(), Dims[Dim].c_str(),
              static_cast<long long>(Program.IterationSpace.extent(Dim)),
              Dims[Dim].c_str());
        }
      }
      S += Advance;
      for (size_t Dim = 0; Dim != Rank; ++Dim)
        S += Dim + 1 == Rank ? "      }\n"
                             : std::string(8 - 2 * 0, ' ') + "}\n";
      S += "    }\n";
      S += "  }\n}\n\n";
    }

    // Remote-stream receivers: pops on this device are embedded in the
    // consumer kernels via channels fed by SMI bridge kernels.
    if (Placement) {
      for (const RemoteStream &Stream : Placement->RemoteStreams) {
        if (Stream.ConsumerDevice != Ctx.Device)
          continue;
        std::string VType =
            vectorType(Program.fieldType(Stream.Source), W);
        // The receiver verifies sequence and CRC; corrupted or stale
        // frames are dropped and the sender's Go-Back-N rewind re-covers
        // the gap, so only clean in-order vectors reach the compute
        // kernels.
        S += formatString(
            "__attribute__((autorun))\n__kernel void smi_recv_%s_to_%s() "
            "{\n  uint seq = 0;\n  for (long i = 0; i < %lld;) {\n    "
            "sf_frame_t frame;\n    %s value;\n    "
            "SMI_Pop(&smi_%s_to_%s, &frame);\n    "
            "SMI_Pop(&smi_%s_to_%s, &value);\n    "
            "if (frame.seq == seq &&\n        frame.crc == "
            "sf_crc32((const uchar *)&value, (int)sizeof(value))) {\n"
            "      write_channel_intel(%s, value);\n      ++seq;\n      "
            "++i;\n    } // else: corrupted or stale frame; dropped.\n  "
            "}\n}\n\n",
            Stream.Source.c_str(), Stream.Consumer.c_str(),
            static_cast<long long>(Iterations), VType.c_str(),
            Stream.Source.c_str(), Stream.Consumer.c_str(),
            Stream.Source.c_str(), Stream.Consumer.c_str(),
            channelName(Stream.Source, Stream.Consumer).c_str());
      }
    }

    // Writers.
    for (const std::string &Output : Ctx.Outputs) {
      std::string VType = vectorType(Program.fieldType(Output), W);
      S += formatString(
          "__kernel void write_%s(__global %s *restrict mem) {\n  for "
          "(long i = 0; i < %lld; ++i)\n    mem[i] = "
          "read_channel_intel(%s);\n}\n\n",
          Output.c_str(), VType.c_str(),
          static_cast<long long>(Iterations),
          channelName(Output, "memory").c_str());
    }

    GeneratedSource Generated;
    Generated.Device = Ctx.Device;
    Generated.FileName =
        formatString("%s_device%d.cl", Program.Name.c_str(), Ctx.Device);
    Generated.Source = std::move(S);
    Sources.push_back(std::move(Generated));
  }

  // Host-interface summary.
  std::string Host;
  Host += formatString("// Host interface for '%s' (%d device(s))\n",
                       Program.Name.c_str(), NumDevices);
  Host += "// Buffers to allocate and copy before launch:\n";
  for (const Field &Input : Program.Inputs)
    if (!Program.consumersOf(Input.Name).empty())
      Host += formatString(
          "//   input  %-16s %s x %lld cells\n", Input.Name.c_str(),
          std::string(dataTypeName(Input.Type)).c_str(),
          static_cast<long long>(
              Input.shapeWithin(Program.IterationSpace).numCells()));
  for (const std::string &Output : Program.Outputs)
    Host += formatString(
        "//   output %-16s %s x %lld cells\n", Output.c_str(),
        std::string(dataTypeName(Program.fieldType(Output))).c_str(),
        static_cast<long long>(Program.IterationSpace.numCells()));
  Host += formatString("// Expected cycles: C = L + N (Eq. 1)\n");

  GeneratedSource HostSource;
  HostSource.Device = -1;
  HostSource.FileName = Program.Name + "_host.cpp";
  HostSource.Source = std::move(Host);
  Sources.push_back(std::move(HostSource));
  return Sources;
}
