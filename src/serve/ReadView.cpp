//===- serve/ReadView.cpp - The published view of solution rows -----------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//

#include "serve/ReadView.h"

#include "serve/GraphSnapshot.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace poce;
using namespace poce::serve;

std::string render::locationTag(const ConstraintSolver &Solver,
                                ExprId Term) {
  const TermTable &Terms = Solver.terms();
  if (Terms.kind(Term) == ExprKind::Cons) {
    const ConstructorTable &Cons = Terms.constructors();
    ConsId C = Terms.consOf(Term);
    if (Cons.signature(C).arity() == 0)
      return Cons.signature(C).Name;
    // ref(l, get, set)-shaped terms: the first argument is the location
    // name constructor.
    ExprId First = Terms.argsOf(Term)[0];
    if (Terms.kind(First) == ExprKind::Cons &&
        Cons.signature(Terms.consOf(First)).arity() == 0)
      return Cons.signature(Terms.consOf(First)).Name;
  }
  return Solver.exprStr(Term);
}

std::vector<std::string>
render::lsItems(const ConstraintSolver &Solver,
                const std::vector<ExprId> &Terms) {
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(Solver.exprStr(Term));
  return Items;
}

std::vector<std::string>
render::ptsItems(const ConstraintSolver &Solver,
                 const std::vector<ExprId> &Terms) {
  // Projection to tags can fold several terms onto one location; keep
  // the output sorted and deduplicated so responses are canonical.
  std::vector<std::string> Items;
  Items.reserve(Terms.size());
  for (ExprId Term : Terms)
    Items.push_back(locationTag(Solver, Term));
  std::sort(Items.begin(), Items.end());
  Items.erase(std::unique(Items.begin(), Items.end()), Items.end());
  return Items;
}

std::string render::renderSet(const std::vector<std::string> &Items) {
  std::string Out = "{";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : " ") + Items[I];
  Out += Items.empty() ? "}" : " }";
  return Out;
}

Request poce::serve::parseRequest(const std::string &Line) {
  Request Req;
  std::istringstream In(Line);
  In >> Req.Verb >> Req.Arg1 >> Req.Arg2;
  size_t VerbEnd = Line.find(Req.Verb);
  if (VerbEnd != std::string::npos) {
    size_t RestAt = VerbEnd + Req.Verb.size();
    while (RestAt < Line.size() && Line[RestAt] == ' ')
      ++RestAt;
    Req.Rest = Line.substr(RestAt);
  }
  return Req;
}

bool poce::serve::isReadVerb(const std::string &Verb) {
  return Verb == "ls" || Verb == "pts" || Verb == "alias";
}

std::shared_ptr<const ReadView>
ReadView::build(const ConstraintSolver &Solver,
                const ConstraintSystemFile &Names, const ReadView *Prev,
                uint64_t Epoch) {
  assert(Solver.readShareable() && "build a view of a finalized solver");
  std::shared_ptr<ReadView> View(new ReadView());
  View->Epoch = Epoch;

  // Names only ever grow (`var` lines append), so an equal count means an
  // equal table.
  const std::vector<std::string> &Declared = Names.varNames();
  const size_t NumNames =
      std::min<size_t>(Declared.size(), Solver.numCreations());
  if (Prev && Prev->Names->size() == NumNames) {
    View->Names = Prev->Names;
  } else {
    auto Table = std::make_shared<std::unordered_map<std::string, VarId>>();
    Table->reserve(NumNames);
    for (uint32_t I = 0; I != NumNames; ++I)
      Table->emplace(Declared[I], Solver.varOfCreation(I));
    View->Names = std::move(Table);
  }

  // Term ids are dense and permanent within one solver, so the previous
  // view's renderings stay valid and only new ids need rendering.
  const TermTable &Table = Solver.terms();
  const uint32_t NumTerms = Table.size();
  if (Prev && Prev->Terms->size() == NumTerms) {
    View->Terms = Prev->Terms;
  } else {
    auto Texts = std::make_shared<std::vector<TermText>>();
    if (Prev) {
      assert(Prev->Terms->size() < NumTerms && "view of another solver");
      *Texts = *Prev->Terms;
    }
    Texts->reserve(NumTerms);
    for (ExprId Term = static_cast<ExprId>(Texts->size()); Term < NumTerms;
         ++Term) {
      TermText Entry;
      // Only constructed terms occur in solutions.
      if (Table.kind(Term) != ExprKind::Var) {
        Entry.Text = Solver.exprStr(Term);
        Entry.Tag = render::locationTag(Solver, Term);
      }
      Texts->push_back(std::move(Entry));
    }
    View->Terms = std::move(Texts);
  }

  const std::vector<TermText> &Texts = *View->Terms;
  const uint32_t NumVars = Solver.numVars();
  View->RepOf.resize(NumVars);
  View->Rows.resize(NumVars);
  for (VarId Var = 0; Var != NumVars; ++Var) {
    VarId Rep = Solver.repConst(Var);
    View->RepOf[Var] = Rep;
    if (Rep != Var)
      continue;
    const SparseBitVector &Bits = Solver.leastSolutionBitsConst(Rep);
    if (Prev && Rep < Prev->Rows.size() && Prev->Rows[Rep] &&
        Prev->Rows[Rep]->Bits == Bits) {
      View->Rows[Rep] = Prev->Rows[Rep];
      ++View->RowsReused;
      continue;
    }
    auto Fresh = std::make_shared<Row>();
    Fresh->Bits = Bits;
    Fresh->Tags = Bits.toVector<ExprId>();
    std::sort(Fresh->Tags.begin(), Fresh->Tags.end(),
              [&Texts](ExprId A, ExprId B) {
                return Texts[A].Tag < Texts[B].Tag;
              });
    Fresh->Tags.erase(std::unique(Fresh->Tags.begin(), Fresh->Tags.end(),
                                  [&Texts](ExprId A, ExprId B) {
                                    return Texts[A].Tag == Texts[B].Tag;
                                  }),
                      Fresh->Tags.end());
    View->Rows[Rep] = std::move(Fresh);
    ++View->RowsBuilt;
  }
  return View;
}

Expected<std::shared_ptr<const ReadView>>
ReadView::build(const std::vector<uint8_t> &SnapshotBytes, uint64_t Epoch) {
  SolverBundle Bundle;
  Status Loaded = GraphSnapshot::deserialize(SnapshotBytes.data(),
                                             SnapshotBytes.size(), Bundle);
  if (!Loaded)
    return Loaded.withContext("building read view");
  ConstraintSystemFile Names;
  Status Adopted = Names.adoptDeclarations(*Bundle.Solver);
  if (!Adopted)
    return Adopted.withContext("building read view");
  Bundle.Solver->finalize();
  return build(*Bundle.Solver, Names, nullptr, Epoch);
}

uint32_t ReadView::varOf(const std::string &Name) const {
  auto It = Names->find(Name);
  return It == Names->end() ? NotFound : It->second;
}

template <typename Fn>
void ReadView::forEachItem(ItemKind Kind, uint32_t Var, Fn &&Visit) const {
  const Row &R = *Rows[RepOf[Var]];
  const std::vector<TermText> &Texts = *Terms;
  if (Kind == ItemKind::Ls)
    R.Bits.forEach([&](uint32_t Term) { Visit(Texts[Term].Text); });
  else
    for (ExprId Term : R.Tags)
      Visit(Texts[Term].Tag);
}

std::vector<std::string> ReadView::items(ItemKind Kind, uint32_t Var) const {
  std::vector<std::string> Items;
  forEachItem(Kind, Var,
              [&Items](const std::string &Item) { Items.push_back(Item); });
  return Items;
}

std::string ReadView::renderItems(ItemKind Kind, uint32_t Var) const {
  // render::renderSet's format, written straight into the reply.
  std::string Out = "ok {";
  bool Empty = true;
  forEachItem(Kind, Var, [&](const std::string &Item) {
    Out += Empty ? " " : ", ";
    Out += Item;
    Empty = false;
  });
  Out += Empty ? "}" : " }";
  return Out;
}

std::string ReadView::ls(uint32_t Var) const {
  return renderItems(ItemKind::Ls, Var);
}

std::string ReadView::pts(uint32_t Var) const {
  return renderItems(ItemKind::Pts, Var);
}

bool ReadView::mayAlias(uint32_t X, uint32_t Y) const {
  VarId RepX = RepOf[X], RepY = RepOf[Y];
  return RepX == RepY || Rows[RepX]->Bits.intersects(Rows[RepY]->Bits);
}

std::string ReadView::alias(uint32_t X, uint32_t Y) const {
  return mayAlias(X, Y) ? "ok true" : "ok false";
}

std::string ReadView::answer(const Request &Req) const {
  auto Unknown = [](const std::string &Name) {
    return "err " + Status::error(ErrorCode::NotFound,
                                  "unknown variable '" + Name + "'")
                        .wire();
  };
  uint32_t X = varOf(Req.Arg1);
  if (X == NotFound)
    return Unknown(Req.Arg1);
  if (Req.Verb == "alias") {
    uint32_t Y = varOf(Req.Arg2);
    return Y == NotFound ? Unknown(Req.Arg2) : alias(X, Y);
  }
  return Req.Verb == "ls" ? ls(X) : pts(X);
}
