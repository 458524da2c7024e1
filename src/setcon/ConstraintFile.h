//===- setcon/ConstraintFile.h - Textual constraint systems -----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain-text interchange format for inclusion constraint systems, so
/// the solver can be driven without a language frontend (and so systems
/// can be captured, replayed, and golden-tested). Format:
///
///     # comment
///     var X Y Z T                 # declare set variables
///     cons a                      # nullary constructor
///     cons ref + + -              # arity/variance: + covariant, - contra
///
///     a <= X                      # one constraint per line
///     X <= Y
///     ref(a, X, X) <= ref(1, T, 0)
///
/// Every name must be declared before use; `0` and `1` are the constants.
/// Parsing retains the system in a replayable form: emit() can feed any
/// number of solvers (deterministically, so oracle construction works).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SETCON_CONSTRAINTFILE_H
#define POCE_SETCON_CONSTRAINTFILE_H

#include "setcon/ConstraintSolver.h"
#include "setcon/Oracle.h"
#include "support/IdIndex.h"
#include "support/Status.h"

#include <string>
#include <string_view>
#include <vector>

namespace poce {

/// A parsed, replayable constraint system.
class ConstraintSystemFile {
public:
  /// Parses \p Text; on failure returns a ParseError Status with a
  /// line-numbered message.
  Status parse(const std::string &Text);

  /// Feeds the system into \p Solver: declares constructors (idempotent),
  /// creates the variables in declaration order, and adds every
  /// constraint.
  void emit(ConstraintSolver &Solver) const;

  /// Parses and applies one line of the file format against a live
  /// solver: `var`/`cons` lines extend this system's declarations (fresh
  /// variables are created in \p Solver immediately, keeping declaration
  /// order aligned with creation order), and a constraint line is fed
  /// through Solver.addConstraint with its canonical text as the tag —
  /// the solver is fully online, so consequences (including cycle
  /// elimination) propagate right away. The constraint is not recorded
  /// here (emit() and str() cover parse()d constraints only): the
  /// solver's tagged base roots are its provenance. Blank and comment
  /// lines are accepted no-ops. On failure returns ParseError (or
  /// FailedPrecondition when system and solver have diverged) and leaves
  /// system and solver unchanged. This is the serve layer's incremental
  /// entry point.
  Status addLine(const std::string &Line, ConstraintSolver &Solver);

  /// Dry-run of addLine(): parses \p Line and performs every validation
  /// addLine() would — name clashes, declaration/creation alignment,
  /// constructor signature agreement with \p Solver — without mutating
  /// the system or the solver. A line that passes checkLine() cannot be
  /// rejected by a subsequent addLine() (the solver itself may still
  /// abort on a resource budget). Lets callers make a line durable (WAL)
  /// only once it is known to be applicable.
  Status checkLine(const std::string &Line,
                   const ConstraintSolver &Solver) const;

  /// Rebuilds this system's declarations from a live solver — variables
  /// from creation order, constructors from the constructor table — so
  /// subsequent addLine() calls can reference everything the solver
  /// already knows. Recorded constraints are cleared (the solver's graph
  /// already contains them). Used after loading a snapshot that has no
  /// accompanying source text. Fails (leaving the system unchanged) when
  /// variable names are not unique or collide with constructor names,
  /// since the textual format keys on names.
  Status adoptDeclarations(const ConstraintSolver &Solver);

  /// Parses \p Line as a constraint (var/cons/blank lines are rejected
  /// with InvalidArgument) and renders it back in canonical text — the
  /// exact tag addLine()/emit() record with the solver, so retraction by
  /// line text is whitespace- and comment-insensitive.
  Status canonicalizeConstraint(const std::string &Line,
                                const ConstraintSolver &Solver,
                                std::string &Canon) const;

  /// Adapter for buildOracle().
  GeneratorFn generator() const;

  /// Renders the system back to the file format (normalized whitespace).
  std::string str() const;

  const std::vector<std::string> &varNames() const { return VarNames; }

  /// The VarId of \p Name in a solver the system was emitted into
  /// (variables are created in declaration order, so ids equal indices —
  /// modulo oracle witness substitution, which callers resolve via the
  /// solver's creation-index API).
  uint32_t varIndex(const std::string &Name) const;

  uint32_t numConstraints() const {
    return static_cast<uint32_t>(Constraints.size());
  }

  static constexpr uint32_t NotFound = ~0U;

private:
  /// A parsed set expression, independent of any TermTable.
  struct FileExpr {
    enum class Kind : uint8_t { Zero, One, Var, Apply };
    Kind K = Kind::Zero;
    uint32_t VarIndex = 0;  ///< Var.
    uint32_t ConsIndex = 0; ///< Apply: index into ConsDecls.
    std::vector<FileExpr> Args;
  };

  struct ConsDecl {
    std::string Name;
    std::vector<Variance> ArgVariance;
  };

  /// One line of the file format in parsed-but-unapplied form, shared by
  /// parse() and addLine() (parse + validate + apply), checkLine() (parse
  /// + validate only) and canonicalizeConstraint().
  struct ParsedLine {
    enum class Kind : uint8_t { Blank, Vars, Cons, Constraint };
    Kind K = Kind::Blank;
    std::vector<std::string> Names; ///< Vars: the declared names.
    ConsDecl Decl;                  ///< Cons.
    FileExpr Lhs, Rhs;              ///< Constraint.
  };

  /// Parses one line and checks it against this system's declarations
  /// and, unless \p Solver is null (parse(), which has no solver yet),
  /// the solver's state, without mutating either. On success \p Out holds
  /// everything needed to apply the line.
  Status parseLine(const std::string &Line, const ConstraintSolver *Solver,
                   ParsedLine &Out) const;

  ExprId build(const FileExpr &E, ConstraintSolver &Solver,
               const std::vector<VarId> &Vars) const;
  std::string exprToText(const FileExpr &E) const;

  /// Recursive-descent expression parser over \p Line starting at
  /// \p Pos (advanced past the expression on success).
  bool parseExprAt(const std::string &Line, size_t &Pos, FileExpr &Out,
                   std::string &Error) const;

  /// Declaration index of variable \p Name, or NotFound.
  uint32_t varIndexOf(std::string_view Name) const;
  /// Declaration index of constructor \p Name, or NotFound.
  uint32_t consIndexOf(std::string_view Name) const;
  /// True if \p Name is a declared variable or constructor, or a
  /// constant.
  bool nameInUse(std::string_view Name) const;
  /// Appends a declaration; its name must not be declared yet.
  void declareVar(std::string_view Name);
  void declareCons(ConsDecl Decl);

  std::vector<std::string> VarNames;
  IdIndex VarIndexOf; ///< Over VarNames.
  std::vector<ConsDecl> ConsDecls;
  IdIndex ConsIndexOf; ///< Over ConsDecls' names.
  std::vector<std::pair<FileExpr, FileExpr>> Constraints;
};

} // namespace poce

#endif // POCE_SETCON_CONSTRAINTFILE_H
