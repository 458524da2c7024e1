//===- serve/QueryEngine.h - Queries over a warm solver ---------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Query layer over a solved ConstraintSolver (typically loaded from a
/// GraphSnapshot): `ls(x)` renders the least solution, `pts(x)` projects
/// it to points-to location tags, `alias(x,y)` intersects solution
/// bitmaps, and `addConstraint(line)` feeds new text constraints through
/// the solver's fully online closure — cycle elimination keeps running on
/// the warm graph, exactly as it would have during the original solve.
///
/// Every mutation — add or retract, live, replayed from the WAL, or
/// replayed from the rollback journal — is one WalRecord (serve/Wal.h)
/// through one step: mutate the graph, close it. The engine owns its
/// SolverBundle so it can make each record transactional against
/// resource budgets: at construction (and at every checkpointBase()) it
/// captures a serialized base snapshot, and every accepted record is
/// journaled. When a record trips a budget (deadline, edge, or memory —
/// see SolverOptions) the closure aborts mid-flight and leaves the graph
/// half-propagated; the engine then rolls back by rebuilding the bundle
/// from the base snapshot and replaying the journal with budgets
/// disabled, which restores a state bit-identical to the one before the
/// offending record. The caller sees a clean BudgetExceeded error and can
/// keep querying.
///
/// Rendered views are kept in a bounded LRU cache keyed by (query kind,
/// representative). A cached view is valid iff the representative's
/// solver-side mutation epoch still matches the one sampled when the
/// view was built: the solver bumps a variable's epoch whenever its
/// least solution may have changed — on growth from additions AND on
/// shrinkage from retractions. (The scheme this replaced keyed validity
/// on the solution bitmap's population count, which is sound only under
/// monotone growth: a retraction followed by additions can return a
/// solution to a previous size with different members, and the stale
/// view would have been served. The epoch never repeats, so that trap
/// is closed.) Views whose solutions were untouched keep serving from
/// cache; stale ones are detected (and rebuilt) lazily on their next
/// hit. Collapses are handled by keying on the current representative:
/// a variable swallowed by a cycle simply resolves to its witness's
/// view. Rollback replaces the solver wholesale, so it clears the
/// cache.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SERVE_QUERYENGINE_H
#define POCE_SERVE_QUERYENGINE_H

#include "serve/GraphSnapshot.h"
#include "serve/Wal.h"
#include "setcon/ConstraintFile.h"
#include "setcon/ConstraintSolver.h"
#include "support/LruCache.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace poce {
namespace serve {

/// Pure rendering helpers shared by every query surface — the cached
/// QueryEngine views below, the network layer's immutable ReadViews
/// (net/ReadView.h), and the drivers' reply formatting. All of them are
/// const over the solver so they are safe on concurrently shared,
/// settled solvers.
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

/// "{ a, b }" set formatting shared by the stdin and socket reply paths.
std::string renderSet(const std::vector<std::string> &Items);

} // namespace render

class QueryEngine {
public:
  /// Query-layer counters (the solver's own stats stay separate and are
  /// exposed through solver().stats()).
  struct Counters {
    uint64_t CacheHits = 0;     ///< Served from a still-valid cached view.
    uint64_t CacheMisses = 0;   ///< View built fresh (first touch).
    uint64_t StaleRebuilds = 0; ///< Cached view outgrown by additions.
    uint64_t Additions = 0;     ///< Add records accepted.
    uint64_t Retractions = 0;   ///< Retract records accepted.
    uint64_t BudgetAborts = 0;  ///< Mutations rejected by a budget breach.
    uint64_t Rollbacks = 0;     ///< Successful pre-batch state restores.
  };

  /// Takes ownership of \p Bundle, adopting its declarations so textual
  /// queries and constraints can reference every existing variable and
  /// constructor, and captures the rollback base snapshot. Check valid()
  /// (adoption fails on duplicate variable names). Base capture can fail
  /// without invalidating the engine (e.g. Oracle-eliminated solvers are
  /// not serializable); the engine then runs with rollback disarmed and
  /// budget breaches become unrecoverable for the batch.
  explicit QueryEngine(SolverBundle Bundle, size_t CacheCapacity = 256);

  bool valid() const { return Valid; }
  const std::string &initError() const { return InitError; }

  /// True when a budget abort can be rolled back (base snapshot captured).
  bool rollbackArmed() const { return RollbackArmed; }

  /// Resolves a variable name to its VarId, or NotFound.
  uint32_t varOf(const std::string &Name) const;
  static constexpr uint32_t NotFound = ~0U;

  /// The least solution of \p Var rendered as term strings (cached).
  const std::vector<std::string> &ls(VarId Var);

  /// The points-to projection of \p Var's least solution (cached): each
  /// term contributes its location tag — a nullary constructor's name, or
  /// the name of a nullary first argument (the ref(l, get, set) shape
  /// Andersen's analysis uses), or the full rendering otherwise.
  const std::vector<std::string> &pts(VarId Var);

  /// True if \p X and \p Y may alias: same representative after
  /// collapses, or intersecting least solutions.
  bool alias(VarId X, VarId Y);

  /// Applies one mutation: an add feeds one line of the constraint-file
  /// format (declaration or constraint) through the online closure; a
  /// retraction deletes the constraint added earlier whose canonical text
  /// matches \p Rec's line (whitespace and comments need not match) and
  /// incrementally recomputes the affected cone, splitting collapsed
  /// cycle classes whose witness cycle lost an edge (see
  /// ConstraintSolver::retract). Cached views invalidate through the
  /// mutation-epoch check on their next access. On a parse failure, or a
  /// retraction that matches no live constraint (NotFound; a
  /// non-constraint line is InvalidArgument), the graph is untouched; on
  /// a budget breach the engine rolls back to the pre-record state and
  /// returns BudgetExceeded (or Internal, if rollback itself is
  /// impossible — see rollbackArmed()).
  Status apply(WalRecord Rec);

  /// Dry-run of apply(): parses and validates \p Rec against the live
  /// system without mutating anything; a retraction must also match a
  /// live constraint, and its line is rewritten to the canonical text —
  /// the exact payload its WAL record must carry. A record that passes
  /// can only be rejected by apply() through a resource-budget breach,
  /// which lets the server WAL-append only records known to replay
  /// cleanly.
  Status check(WalRecord &Rec) const;

  /// apply() of an add record.
  Status addConstraint(const std::string &Line) {
    return apply(WalRecord::add(Line));
  }
  /// apply() of a retract record.
  Status retractConstraint(const std::string &Line) {
    return apply(WalRecord::retract(Line));
  }
  /// check() of an add record.
  Status checkConstraint(const std::string &Line) const;
  /// check() of a retract record; on success \p Canon (if given)
  /// receives the canonical text.
  Status checkRetract(const std::string &Line,
                      std::string *Canon = nullptr) const;

  /// Re-captures the rollback base from the current graph and clears the
  /// journal. Call after persisting a snapshot so the journal stays in
  /// lockstep with the on-disk WAL. Fails for non-serializable solvers
  /// (rollback stays armed on the previous base in that case).
  Status checkpointBase();

  /// checkpointBase() adopting \p Bytes, a serialization of the current
  /// graph the caller already made (a checkpoint's snapshot), so the
  /// graph is not serialized a second time.
  void checkpointBase(std::vector<uint8_t> Bytes);

  /// Replaces the engine's entire state with the graph deserialized from
  /// \p Data — cache and journal cleared, rollback re-armed on the new
  /// base. The snapshot's recorded solver options are adopted wholesale
  /// (no live re-arm): a replication follower re-bootstrapping from its
  /// primary must end up bit-identical to it, down to the serialized
  /// option and counter words. The closure schedule, which snapshots do
  /// not record, stays the live solver's. Leaves the engine untouched on
  /// failure.
  Status resetFromSnapshot(const uint8_t *Data, size_t Size);

  /// Records accepted since the last checkpointBase(), as WAL payloads
  /// (WalRecord::encode()).
  const std::vector<std::string> &journal() const { return AcceptedLines; }

  const Counters &counters() const { return Stats; }
  uint64_t cacheEvictions() const { return Cache.evictions(); }
  size_t cacheSize() const { return Cache.size(); }

  ConstraintSolver &solver() { return *Bundle.Solver; }
  const ConstraintSolver &solver() const { return *Bundle.Solver; }
  const ConstraintSystemFile &system() const { return System; }

private:
  enum class ViewKind : uint8_t { Ls, Pts };

  struct View {
    /// The representative's mutation epoch at build time; any change to
    /// its least solution since (growth or shrinkage) bumps the live
    /// epoch and invalidates the view.
    uint64_t Epoch;
    std::vector<std::string> Items;
  };

  const std::vector<std::string> &view(ViewKind Kind, VarId Var);

  /// The one mutation step under apply() and rollback(): applies \p Rec
  /// to \p Solver through \p System and closes the graph, so a budget
  /// breach surfaces at the record that caused it whatever the schedule.
  /// A retraction's line is rewritten to its canonical text.
  static Status mutate(ConstraintSystemFile &System, ConstraintSolver &Solver,
                       WalRecord &Rec);

  /// Rebuilds the bundle from BaseBytes and replays AcceptedLines on the
  /// live closure schedule with budgets disabled (they were each within
  /// budget when first accepted; re-aborting mid-restore would lose the
  /// graph), closing each record as it was closed when accepted; only
  /// then re-arms the live budgets. Leaves the engine untouched on
  /// failure.
  Status rollback();

  SolverBundle Bundle;
  ConstraintSystemFile System;
  LruCache<uint64_t, View> Cache;
  Counters Stats;
  bool Valid = false;
  bool RollbackArmed = false;
  std::string InitError;
  std::vector<uint8_t> BaseBytes;          ///< Rollback base snapshot.
  std::vector<std::string> AcceptedLines;  ///< Journal since the base.
};

} // namespace serve
} // namespace poce

#endif // POCE_SERVE_QUERYENGINE_H
