//===- setcon/Preprocess.cpp - Offline HVN variable substitution ----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "setcon/Preprocess.h"

#include "graph/TarjanSCC.h"
#include "support/DenseU64Set.h"

#include <algorithm>
#include <map>

using namespace poce;

namespace {

/// Marks every variable occurring at any depth inside the constructed term
/// \p Id as indirect. \p TermSeen deduplicates shared hash-consed subterms.
void markIndirectVars(const TermTable &Terms, ExprId Id,
                      std::vector<uint8_t> &TermSeen,
                      std::vector<uint8_t> &Indirect,
                      std::vector<ExprId> &Stack) {
  if (Terms.kind(Id) != ExprKind::Cons || TermSeen[Id])
    return;
  TermSeen[Id] = 1;
  Stack.push_back(Id);
  while (!Stack.empty()) {
    ExprId Term = Stack.back();
    Stack.pop_back();
    const ExprId *Args = Terms.argsOf(Term);
    for (unsigned I = 0, E = Terms.numArgs(Term); I != E; ++I) {
      ExprId Arg = Args[I];
      switch (Terms.kind(Arg)) {
      case ExprKind::Var:
        Indirect[Terms.varOf(Arg)] = 1;
        break;
      case ExprKind::Cons:
        if (!TermSeen[Arg]) {
          TermSeen[Arg] = 1;
          Stack.push_back(Arg);
        }
        break;
      case ExprKind::Zero:
      case ExprKind::One:
        break;
      }
    }
  }
}

} // namespace

OfflineEquivalence poce::offlinePreprocess(
    const TermTable &Terms,
    const std::vector<std::pair<ExprId, ExprId>> &Constraints,
    uint32_t NumVars, const std::function<uint64_t(VarId)> &OrderOf) {
  OfflineEquivalence Result;
  if (NumVars == 0 || Constraints.empty())
    return Result;

  // Dry resolution: mirror the solver's resolution rules (Figure 1) over
  // the input constraints without touching any solver state, collecting
  // the pre-closure variable-variable edges and the source terms flowing
  // into each variable. Constructor decomposition runs to fixpoint with a
  // visited-pair set, so nested matches like c(d(X)) <= c(d(Y)) surface
  // their X <= Y edges; mismatches are skipped silently (the replay counts
  // them through the normal path).
  std::vector<std::pair<uint32_t, uint32_t>> VarEdges;
  std::vector<std::vector<ExprId>> SourcesInto(NumVars);
  std::vector<uint8_t> Indirect(NumVars, 0);
  std::vector<uint8_t> TermSeen(Terms.size(), 0);
  std::vector<ExprId> MarkStack;

  DenseU64Set VisitedPairs;
  std::vector<std::pair<ExprId, ExprId>> Pending(Constraints.rbegin(),
                                                 Constraints.rend());
  while (!Pending.empty()) {
    auto [Lhs, Rhs] = Pending.back();
    Pending.pop_back();
    if (Lhs == Rhs)
      continue;
    ExprKind LhsKind = Terms.kind(Lhs);
    ExprKind RhsKind = Terms.kind(Rhs);
    if (LhsKind == ExprKind::Zero || RhsKind == ExprKind::One)
      continue;
    // Lhs != Rhs and neither trivial side is 0/1 here, so the packed key
    // is never 0 and never the reserved all-ones key.
    if (!VisitedPairs.insert((static_cast<uint64_t>(Lhs) << 32) | Rhs))
      continue;
    markIndirectVars(Terms, Lhs, TermSeen, Indirect, MarkStack);
    markIndirectVars(Terms, Rhs, TermSeen, Indirect, MarkStack);

    switch (LhsKind) {
    case ExprKind::Zero:
      break;
    case ExprKind::Var:
      if (RhsKind == ExprKind::Var)
        VarEdges.push_back({Terms.varOf(Lhs), Terms.varOf(Rhs)});
      // Var <= sink constrains nothing about the variable's solution; the
      // sink's embedded variables were marked indirect above.
      break;
    case ExprKind::One:
      if (RhsKind == ExprKind::Var)
        SourcesInto[Terms.varOf(Rhs)].push_back(Lhs);
      break; // 1 <= c(...) / 1 <= 0: mismatch.
    case ExprKind::Cons:
      if (RhsKind == ExprKind::Var) {
        SourcesInto[Terms.varOf(Rhs)].push_back(Lhs);
        break;
      }
      if (RhsKind == ExprKind::Zero || Terms.consOf(Lhs) != Terms.consOf(Rhs))
        break; // Mismatch.
      {
        const ConstructorSignature &Sig =
            Terms.constructors().signature(Terms.consOf(Lhs));
        const ExprId *LhsArgs = Terms.argsOf(Lhs);
        const ExprId *RhsArgs = Terms.argsOf(Rhs);
        for (unsigned I = 0; I != Sig.arity(); ++I) {
          if (Sig.ArgVariance[I] == Variance::Covariant)
            Pending.push_back({LhsArgs[I], RhsArgs[I]});
          else
            Pending.push_back({RhsArgs[I], LhsArgs[I]});
        }
      }
      break;
    }
  }

  // Tarjan's algorithm over the edge rows (the visited-pair set already
  // made each edge distinct). Components come numbered in reverse
  // topological order — every edge between two components goes from a
  // higher component id to a lower one — so a descending sweep sees each
  // component after all of its predecessors. The labeling needs the
  // predecessor side, so each row's edges that leave its component are
  // filed under their target component; a repeated component pair only
  // repeats a label, which the label-set sort below drops.
  GraphRows G = rowsFromEdges(NumVars, VarEdges);
  FlatSCCs SCCs = computeSCCs(G);
  const uint32_t NumComps = SCCs.numComponents();
  std::vector<std::vector<uint32_t>> CompPreds(NumComps);
  for (VarId Var = 0; Var != NumVars; ++Var)
    for (VarId Succ : G.row(Var)) {
      uint32_t From = SCCs.ComponentOf[Var], To = SCCs.ComponentOf[Succ];
      if (From != To)
        CompPreds[To].push_back(From);
    }

  std::vector<uint8_t> CompIndirect(NumComps, 0);
  for (VarId Var = 0; Var != NumVars; ++Var)
    if (Indirect[Var])
      CompIndirect[SCCs.ComponentOf[Var]] = 1;
  Result.NontrivialSCCs = SCCs.numNontrivialSCCs();
  Result.SCCCollapsedVars =
      SCCs.numNodesInNontrivialSCCs() - Result.NontrivialSCCs;

  // HVN labeling. Label 0 is reserved for "provably empty"; every other
  // label comes from one monotone counter so source-term labels, fresh
  // indirect labels, and value numbers never collide. A component's label
  // set is the sorted, deduplicated union of its nonempty predecessor
  // labels and its members' source-term labels; equal sets get equal
  // value numbers. Singleton sets collapse to their one label (the
  // component is a pure copy of that input), which is what lets copy
  // chains merge into their head.
  uint32_t NextLabel = 1;
  std::vector<uint32_t> SourceLabel(Terms.size(), 0);
  std::map<std::vector<uint32_t>, uint32_t> ValueNumber;
  std::vector<uint32_t> PE(NumComps, 0);
  std::vector<uint32_t> LabelSet;
  for (uint32_t Comp = NumComps; Comp-- > 0;) {
    if (CompIndirect[Comp]) {
      // New inflow can attach here during closure (constructor
      // decomposition); a unique fresh label keeps the component — and
      // anything downstream of it — distinguishable from every other.
      PE[Comp] = NextLabel++;
      continue;
    }
    LabelSet.clear();
    for (uint32_t Pred : CompPreds[Comp])
      if (PE[Pred])
        LabelSet.push_back(PE[Pred]);
    for (uint32_t Member : SCCs.component(Comp))
      for (ExprId Source : SourcesInto[Member]) {
        uint32_t &Label = SourceLabel[Source];
        if (!Label)
          Label = NextLabel++;
        LabelSet.push_back(Label);
      }
    std::sort(LabelSet.begin(), LabelSet.end());
    LabelSet.erase(std::unique(LabelSet.begin(), LabelSet.end()),
                   LabelSet.end());
    if (LabelSet.empty())
      PE[Comp] = 0;
    else if (LabelSet.size() == 1)
      PE[Comp] = LabelSet[0];
    else {
      auto [It, Inserted] = ValueNumber.try_emplace(LabelSet, NextLabel);
      if (Inserted)
        ++NextLabel;
      PE[Comp] = It->second;
    }
  }

  // Group variables by label (members of one SCC share their component's
  // label, so cycle collapses fall out of the same grouping) and emit the
  // merges onto each class's order-minimal witness. std::map keeps the
  // directive order deterministic.
  std::map<uint32_t, std::vector<VarId>> Classes;
  for (VarId Var = 0; Var != NumVars; ++Var)
    Classes[PE[SCCs.ComponentOf[Var]]].push_back(Var);
  Result.Labels = Classes.size();
  for (auto &[Label, Members] : Classes) {
    if (Members.size() < 2)
      continue;
    VarId Witness = Members[0];
    for (VarId Var : Members)
      if (OrderOf(Var) < OrderOf(Witness) ||
          (OrderOf(Var) == OrderOf(Witness) && Var < Witness))
        Witness = Var;
    for (VarId Var : Members)
      if (Var != Witness)
        Result.Merges.push_back({Var, Witness});
  }
  Result.HVNMergedVars = Result.Merges.size() - Result.SCCCollapsedVars;
  return Result;
}
