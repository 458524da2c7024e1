//===- serve/ReadView.h - The published view of solution rows ---*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one read path of the serve layer. Every `ls`, `pts` and `alias`
/// reply — on stdin, on the socket event loop, under `verify`, and through
/// QueryEngine's ls/pts/alias — is answered by a ReadView: an immutable
/// picture of the solver's least solutions, built by the writer after the
/// graph settles and never touched again. A view holds
///
///   - a name table (variable name -> VarId), shared with the previous
///     view until a `var` line adds names;
///   - a variable -> representative array;
///   - each term's rendered text and location tag, shared with the
///     previous view and extended only when new terms appear;
///   - one immutable row per live representative: its solution bitmap and
///     its sorted, deduplicated location tags.
///
/// A new view reuses the previous view's row for every representative
/// whose solution bitmap is unchanged, so publishing after a write costs
/// one bitmap compare per representative plus a rebuild of the rows whose
/// solution changed. Bitmap equality is the whole invalidation rule: it
/// cannot be fooled by a retraction that shrinks a solution and an add
/// that regrows it to the same size with different members.
///
/// A view owns no solver and shares nothing the writer mutates, so any
/// number of reader threads may query one while the writer builds the
/// next; the socket server hands views to its event-loop thread through
/// net::ViewPublisher (net/ReadView.h).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_READVIEW_H
#define POCE_SERVE_READVIEW_H

#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/SparseBitVector.h"
#include "support/Status.h"

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace poce {
namespace serve {

/// Pure rendering helpers over a settled solver: the view renders each
/// term through them once, and tools that compute an answer without a
/// view (oracles in benchmarks) render the same text.
namespace render {

/// The location tag of one constructed term: a nullary constructor's
/// name, the name of a nullary first argument (the ref(l, get, set)
/// shape Andersen's analysis uses), or the full rendering otherwise.
std::string locationTag(const ConstraintSolver &Solver, ExprId Term);

/// ls items: each term of \p Terms rendered as its term string.
std::vector<std::string> lsItems(const ConstraintSolver &Solver,
                                 const std::vector<ExprId> &Terms);

/// pts items: \p Terms projected to location tags, sorted and
/// deduplicated so responses are canonical.
std::vector<std::string> ptsItems(const ConstraintSolver &Solver,
                                  const std::vector<ExprId> &Terms);

/// "{ a, b }" set formatting, the body of every ls/pts reply.
std::string renderSet(const std::vector<std::string> &Items);

} // namespace render

/// One parsed request line: a verb, up to two whitespace-split arguments,
/// and the raw remainder after the verb (which preserves the spacing of
/// `add` constraint payloads).
struct Request {
  std::string Verb, Arg1, Arg2, Rest;
};

/// Splits \p Line into a Request (the wire format of both the stdin and
/// the socket protocol).
Request parseRequest(const std::string &Line);

/// True for the verbs a ReadView answers: ls, pts and alias.
bool isReadVerb(const std::string &Verb);

/// One immutable view of the solved state. Every method is const and
/// touches only data no writer mutates (see file comment).
class ReadView {
public:
  static constexpr uint32_t NotFound = ~0U;

  /// The list-valued reads.
  enum class ItemKind : uint8_t { Ls, Pts };

  /// Builds the view of \p Solver's settled state (call finalize() first),
  /// resolving names through \p Names. Rows, the term text and the name
  /// table are shared with \p Prev where they are unchanged; \p Prev must
  /// be null or a view of the same solver lineage (term ids agree), so a
  /// caller that replaced its solver passes null. \p Epoch is the
  /// caller's sequence number for this view.
  static std::shared_ptr<const ReadView>
  build(const ConstraintSolver &Solver, const ConstraintSystemFile &Names,
        const ReadView *Prev, uint64_t Epoch);

  /// Builds a view from a snapshot byte image, with no previous view:
  /// finalize, build every row. The bytes' solver is dropped afterwards.
  static Expected<std::shared_ptr<const ReadView>>
  build(const std::vector<uint8_t> &SnapshotBytes, uint64_t Epoch);

  /// Resolves a variable name, or NotFound.
  uint32_t varOf(const std::string &Name) const;

  /// The one ls/pts/alias reply: "ok { ... }", "ok true" / "ok false", or
  /// "err not_found unknown variable '...'" when a name does not resolve.
  /// \p Req must carry a read verb (isReadVerb).
  std::string answer(const Request &Req) const;

  /// answer() on resolved variables.
  std::string ls(uint32_t Var) const;
  std::string pts(uint32_t Var) const;
  std::string alias(uint32_t X, uint32_t Y) const;

  /// The items an ls/pts reply on \p Var lists, in reply order.
  std::vector<std::string> items(ItemKind Kind, uint32_t Var) const;

  /// True if \p X and \p Y may alias: the same representative after
  /// collapses, or intersecting least solutions.
  bool mayAlias(uint32_t X, uint32_t Y) const;

  /// Variables the view covers (VarIds 0..numVars()-1).
  uint32_t numVars() const { return static_cast<uint32_t>(RepOf.size()); }

  /// The caller's sequence number (see build()).
  uint64_t epoch() const { return Epoch; }

  /// Rows this view rendered, and rows it took over unchanged from the
  /// previous view.
  uint64_t rowsBuilt() const { return RowsBuilt; }
  uint64_t rowsReused() const { return RowsReused; }

private:
  /// A term's rendered forms: its ls text and its pts location tag.
  struct TermText {
    std::string Text, Tag;
  };

  /// One live representative's answers.
  struct Row {
    SparseBitVector Bits;      ///< Least solution (term ids).
    std::vector<ExprId> Tags;  ///< One term per distinct tag, by tag text.
  };

  ReadView() = default;

  /// Calls \p Visit with each item of the ls/pts reply on \p Var, in
  /// reply order — the one enumeration under answer() and items().
  template <typename Fn>
  void forEachItem(ItemKind Kind, uint32_t Var, Fn &&Visit) const;

  std::string renderItems(ItemKind Kind, uint32_t Var) const;

  std::shared_ptr<const std::unordered_map<std::string, VarId>> Names;
  std::shared_ptr<const std::vector<TermText>> Terms;
  std::vector<VarId> RepOf;
  /// Indexed by VarId; set for live representatives only.
  std::vector<std::shared_ptr<const Row>> Rows;
  uint64_t Epoch = 0;
  uint64_t RowsBuilt = 0;
  uint64_t RowsReused = 0;
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_READVIEW_H
