//===- sdfg/TemporalUnroll.cpp - Temporal blocking unroll --------------------==//
//
// Part of the StencilFlow reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sdfg/TemporalUnroll.h"

#include "frontend/SemanticAnalysis.h"
#include "support/StringUtils.h"

#include <map>
#include <set>
#include <string>
#include <vector>

using namespace stencilflow;

static Error validateBindings(const StencilProgram &Program,
                              const std::vector<IterationBinding> &Bindings) {
  std::set<std::string> BoundInputs;
  for (const IterationBinding &Binding : Bindings) {
    const StencilNode *Producer = Program.findNode(Binding.Output);
    if (!Producer || !Program.isProgramOutput(Binding.Output))
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding source '" + Binding.Output +
                           "' is not a program output");
    if (Producer->ShrinkOutput)
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding source '" + Binding.Output +
                           "' shrinks its output and cannot be fed back");
    const Field *Consumer = Program.findInput(Binding.Input);
    if (!Consumer)
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding target '" + Binding.Input +
                           "' is not a program input");
    if (!Consumer->isFullRank())
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding target '" + Binding.Input +
                           "' must be a full-rank field");
    if (Consumer->Type != Producer->Type)
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding '" + Binding.Output + "' -> '" +
                           Binding.Input + "' mixes element types");
    if (!BoundInputs.insert(Binding.Input).second)
      return makeError(ErrorCode::InvalidInput,
                       "iteration binding target '" + Binding.Input +
                           "' is bound more than once");
  }
  return Error::success();
}

/// Renames every field reference of \p Node according to \p Subst: the
/// access lists, the boundary-condition keys, and the code block's field
/// accesses. \p NewName replaces the node's own name (and the final
/// statement's target).
static void renameNodeFields(StencilNode &Node, const std::string &NewName,
                             const std::map<std::string, std::string> &Subst) {
  for (Assignment &St : Node.Code.statements()) {
    if (St.Target == Node.Name)
      St.Target = NewName;
    walkExprMutable(St.Value, [&](ExprPtr &E) {
      if (auto *FA = dyn_cast<FieldAccessExpr>(E.get())) {
        auto It = Subst.find(FA->field());
        if (It != Subst.end())
          FA->setField(It->second);
      }
    });
  }
  for (FieldAccesses &FA : Node.Accesses) {
    auto It = Subst.find(FA.Field);
    if (It != Subst.end())
      FA.Field = It->second;
  }
  std::map<std::string, BoundaryCondition> NewBoundaries;
  for (auto &[FieldName, Boundary] : Node.Boundaries) {
    auto It = Subst.find(FieldName);
    NewBoundaries.emplace(It == Subst.end() ? FieldName : It->second,
                          Boundary);
  }
  Node.Boundaries = std::move(NewBoundaries);
  Node.Name = NewName;
}

Expected<StencilProgram>
stencilflow::sdfg::unrollTimeSteps(const StencilProgram &Program,
                                   const std::vector<IterationBinding> &Bindings,
                                   int Steps) {
  if (Steps < 1)
    return makeError(ErrorCode::InvalidInput,
                     formatString("temporal degree must be positive, got %d",
                                  Steps));
  if (Error Err = validateBindings(Program, Bindings))
    return Err;

  StencilProgram Result = Program.clone();
  Result.TimeLoop = Bindings;
  if (Steps == 1)
    return Result;
  if (Bindings.empty())
    return makeError(ErrorCode::InvalidInput,
                     "temporal unrolling requires time-loop bindings "
                     "(program '" +
                         Program.Name + "' has none)");

  // Names that renamed copies must avoid: every field name and every local
  // temporary (analysis rejects locals that shadow fields).
  std::set<std::string> UsedNames;
  for (const Field &Input : Program.Inputs)
    UsedNames.insert(Input.Name);
  for (const StencilNode &Node : Program.Nodes) {
    UsedNames.insert(Node.Name);
    for (const CodeInstance &Instance : Node.Code.instances())
      for (const Assignment &St : *Instance.Body)
        UsedNames.insert(Instance.Prefix + St.Target);
  }

  // Step s of the chain names node N `N__t<s>`; the final step keeps the
  // original names so Outputs and the TimeLoop boundary are unchanged.
  std::vector<std::map<std::string, std::string>> StepNames(
      static_cast<size_t>(Steps));
  for (int Step = 0; Step != Steps; ++Step) {
    for (const StencilNode &Node : Program.Nodes) {
      if (Step + 1 == Steps) {
        StepNames[Step][Node.Name] = Node.Name;
        continue;
      }
      std::string Candidate = formatString("%s__t%d", Node.Name.c_str(), Step);
      while (!UsedNames.insert(Candidate).second)
        Candidate += "_";
      StepNames[Step][Node.Name] = Candidate;
    }
  }

  Result.Nodes.clear();
  Result.Nodes.reserve(Program.Nodes.size() * static_cast<size_t>(Steps));
  for (int Step = 0; Step != Steps; ++Step) {
    // Reads of sibling nodes stay within the step; reads of a bound input
    // become the on-chip channel from the previous step's producer.
    std::map<std::string, std::string> Subst = StepNames[Step];
    if (Step > 0)
      for (const IterationBinding &Binding : Bindings)
        Subst[Binding.Input] = StepNames[Step - 1].at(Binding.Output);
    for (const StencilNode &Node : Program.Nodes) {
      StencilNode Copy = Node.clone();
      renameNodeFields(Copy, StepNames[Step].at(Node.Name), Subst);
      Result.Nodes.push_back(std::move(Copy));
    }
  }

  // Prune copies that feed nothing: an output that is not a binding source
  // only matters in the final step; its earlier copies are dead. Keep
  // exactly the nodes reachable backwards from the program outputs.
  std::set<std::string> Live;
  std::vector<std::string> Worklist(Result.Outputs.begin(),
                                    Result.Outputs.end());
  while (!Worklist.empty()) {
    std::string Name = Worklist.back();
    Worklist.pop_back();
    if (!Live.insert(Name).second)
      continue;
    if (const StencilNode *Node = Result.findNode(Name))
      for (const FieldAccesses &FA : Node->Accesses)
        Worklist.push_back(FA.Field);
  }
  std::vector<StencilNode> Kept;
  Kept.reserve(Result.Nodes.size());
  for (StencilNode &Node : Result.Nodes)
    if (Live.count(Node.Name))
      Kept.push_back(std::move(Node));
  Result.Nodes = std::move(Kept);

  // Verified like any hand-written chain: re-run semantic analysis (which
  // rebuilds the access lists) and full validation.
  if (Error Err = analyzeProgram(Result))
    return Err.addContext(
        formatString("unrolling %d timesteps of program '%s'", Steps,
                     Program.Name.c_str()));
  if (Error Err = Result.validate())
    return Err.addContext(
        formatString("unrolling %d timesteps of program '%s'", Steps,
                     Program.Name.c_str()));
  return Result;
}

Expected<StencilProgram>
stencilflow::sdfg::unrollTimeSteps(const StencilProgram &Program, int Steps) {
  return unrollTimeSteps(Program, Program.TimeLoop, Steps);
}
