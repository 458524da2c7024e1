//===- examples/points_to.cpp - Andersen's analysis on a C program ---------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the paper's case study end to end: parse a C program (an embedded
/// sample, or a file given as argv[1]), generate inclusion constraints for
/// Andersen's points-to analysis, solve under all six configurations of
/// the paper's Table 4, and print the (identical) points-to sets plus the
/// per-configuration cost.
///
/// Build & run:  ./build/examples/points_to [file.c]
///
//===----------------------------------------------------------------------===//

#include "andersen/Andersen.h"
#include "andersen/Steensgaard.h"
#include "setcon/Oracle.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace poce;

static const char *const SampleProgram = R"(
/* A miniature program with the pointer idioms the paper's benchmarks
   exercise: double pointers, a swap kernel, a linked list, and a call
   through a function pointer. */
extern void *malloc(unsigned long n);

struct node { struct node *next; int *data; };

int x, y;
int *gp;
struct node *head;

void swap(int **a, int **b) { int *t = *a; *a = *b; *b = t; }

int *pick(int *p, int *q) { return x ? p : q; }

int *(*chooser)(int *, int *);

int main(void) {
  int *p = &x;
  int *q = &y;
  swap(&p, &q);
  chooser = pick;
  gp = chooser(p, q);

  struct node *n = (struct node *)malloc(sizeof(struct node));
  n->data = gp;
  n->next = head;
  head = n;
  return 0;
}
)";

int main(int Argc, char **Argv) {
  std::string Source = SampleProgram;
  std::string Name = "<sample>";
  if (Argc > 1) {
    std::ifstream In(Argv[1]);
    if (!In) {
      std::fprintf(stderr, "points_to: cannot open '%s'\n", Argv[1]);
      return 1;
    }
    std::stringstream Buffer;
    Buffer << In.rdbuf();
    Source = Buffer.str();
    Name = Argv[1];
  }

  minic::TranslationUnit Unit;
  std::vector<std::string> Errors;
  if (!andersen::parseSource(Source, Unit, &Errors, Name)) {
    for (const std::string &Error : Errors)
      std::fprintf(stderr, "%s\n", Error.c_str());
    return 1;
  }
  std::printf("parsed %s: %llu AST nodes\n\n", Name.c_str(),
              (unsigned long long)Unit.numNodes());

  // The oracle configurations need the witness prediction up front.
  ConstructorTable Constructors;
  SolverOptions Base = makeConfig(GraphForm::Inductive, CycleElim::Online);
  Oracle WitnessOracle =
      buildOracle(andersen::makeGenerator(Unit), Constructors, Base);

  const std::pair<GraphForm, CycleElim> Configs[] = {
      {GraphForm::Standard, CycleElim::None},
      {GraphForm::Inductive, CycleElim::None},
      {GraphForm::Standard, CycleElim::Oracle},
      {GraphForm::Inductive, CycleElim::Oracle},
      {GraphForm::Standard, CycleElim::Online},
      {GraphForm::Inductive, CycleElim::Online},
  };

  TextTable Costs({"Config", "Edges", "Work", "Eliminated", "Time(ms)"});
  andersen::AnalysisResult Reference;
  bool HaveReference = false;
  for (auto [Form, Elim] : Configs) {
    SolverOptions Options = makeConfig(Form, Elim);
    andersen::AnalysisResult Result = andersen::runAnalysis(
        Unit, Constructors, Options,
        Elim == CycleElim::Oracle ? &WitnessOracle : nullptr);
    Costs.addRow({Options.configName(), formatGrouped(Result.FinalEdges),
                  formatGrouped(Result.Stats.Work),
                  formatGrouped(Result.Stats.VarsEliminated),
                  formatDouble(Result.AnalysisSeconds * 1e3, 2)});
    if (!HaveReference) {
      Reference = std::move(Result);
      HaveReference = true;
    } else if (Result.PointsTo != Reference.PointsTo) {
      std::fprintf(stderr,
                   "error: %s disagrees with the reference points-to sets\n",
                   Options.configName().c_str());
      return 1;
    }
  }

  std::printf("points-to sets (identical across all six configurations):\n");
  for (const auto &[Location, Targets] : Reference.PointsTo) {
    if (Targets.empty())
      continue;
    std::printf("  %-12s -> {", Location.c_str());
    for (size_t I = 0; I != Targets.size(); ++I)
      std::printf("%s%s", I ? ", " : " ", Targets[I].c_str());
    std::printf(" }\n");
  }
  std::printf("\nper-configuration cost:\n");
  Costs.print();

  // The unification-based baseline of the paper's Section 6 comparison,
  // shown on the first location (by name) where unification is coarser:
  // its Steensgaard set strictly contains its Andersen set.
  andersen::SteensgaardResult Steens = andersen::runSteensgaard(Unit);
  const std::string *Coarser = nullptr;
  for (const auto &[Location, Targets] : Steens.PointsTo) {
    std::vector<std::string> Precise = Reference.pointsTo(Location);
    if (Targets.size() > Precise.size() &&
        std::includes(Targets.begin(), Targets.end(), Precise.begin(),
                      Precise.end())) {
      Coarser = &Location;
      break;
    }
  }
  if (!Coarser) {
    std::printf("\nSteensgaard (unification) for contrast: no location's "
                "points-to set differs from Andersen's\n");
    return 0;
  }
  std::printf("\nSteensgaard (unification) for contrast — faster but "
              "coarser, e.g. %s:\n",
              Coarser->c_str());
  auto PrintSet = [&](const char *Tag,
                      const std::vector<std::string> &Targets) {
    std::printf("  %-10s %s -> {", Tag, Coarser->c_str());
    for (size_t I = 0; I != Targets.size(); ++I)
      std::printf("%s%s", I ? ", " : " ", Targets[I].c_str());
    std::printf(" }\n");
  };
  PrintSet("Andersen:", Reference.pointsTo(*Coarser));
  PrintSet("Steensgaard:", Steens.pointsTo(*Coarser));
  return 0;
}
