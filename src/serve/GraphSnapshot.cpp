//===- serve/GraphSnapshot.cpp - Solved-graph persistence -----------------===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
//
// Wire layout (all integers little-endian; see docs/INTERNALS.md for the
// field table):
//
//   header   magic "POCESNAP" | u32 version | u64 fnv1a64(payload)
//            | u64 payload length
//   payload  options | counts | constructors | terms | variables
//            | forwarding | creations | seen-source/sink bitmaps
//            | recorded var-var pairs (all, initial) | inconsistencies
//            | periodic watermark | RNG state | stats
//            | finalized flag [+ LS bitmaps in inductive form, one per
//              variable: its effective solution, shared or not]
//
// Terms are serialized by replaying the interner: ids are assigned in
// first-construction order, and a constructed term's arguments always
// have smaller ids, so writing entries in id order and re-interning them
// on load reproduces every id exactly (each replayed id is checked
// against its expected value, which also catches corrupted streams that
// alias two entries). Bitmaps are written element-by-element in the
// SparseBitVector's physical layout, making the round trip bit-identical
// rather than merely semantically equal.
//
//===----------------------------------------------------------------------===//

#include "serve/GraphSnapshot.h"

#include "support/ByteStream.h"
#include "support/FailPoint.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <cstring>
#include <numeric>

using namespace poce;
using namespace poce::serve;

namespace {

/// Snapshot work is graph-sized (far past histogram-record cost), so the
/// records are unconditional, like the WAL's.
Histogram &serializeHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_snapshot_serialize_us",
      "Microseconds to serialize a solver graph (checkpoint capture)");
  return H;
}

Histogram &loadHistogram() {
  static Histogram &H = MetricsRegistry::global().histogram(
      "poce_snapshot_load_us",
      "Microseconds to read, verify, and rebuild a snapshot from disk");
  return H;
}

void writeBitmap(ByteWriter &W, const SparseBitVector &Bits) {
  W.u32(static_cast<uint32_t>(Bits.numElements()));
  Bits.forEachElement([&](uint32_t Index, const uint64_t Words[2]) {
    W.u32(Index);
    W.u64(Words[0]);
    W.u64(Words[1]);
  });
}

/// Reads one bitmap, enforcing the container invariants (strictly
/// ascending non-empty elements) plus \p MaxBitBound on the highest id.
bool readBitmap(ByteReader &R, SparseBitVector &Bits, uint32_t MaxBitBound,
                const char *What) {
  uint32_t NumElements;
  if (!R.u32(NumElements))
    return false;
  if (NumElements > R.remaining() / 20) {
    R.fail(std::string("implausible element count in ") + What);
    return false;
  }
  Bits.clear();
  for (uint32_t I = 0; I != NumElements; ++I) {
    uint32_t Index;
    uint64_t Words[2];
    if (!R.u32(Index) || !R.u64(Words[0]) || !R.u64(Words[1]))
      return false;
    uint32_t Top = Words[1] ? 64 + (63 - __builtin_clzll(Words[1]))
                   : Words[0] ? 63 - __builtin_clzll(Words[0])
                              : 0;
    uint64_t MaxId = static_cast<uint64_t>(Index) *
                         SparseBitVector::ElementBits +
                     Top;
    if ((Words[0] | Words[1]) && MaxId >= MaxBitBound) {
      R.fail(std::string("bit ") + std::to_string(MaxId) +
             " out of range in " + What);
      return false;
    }
    if (!Bits.appendElement(Index, Words)) {
      R.fail(std::string("malformed bitmap element in ") + What);
      return false;
    }
  }
  return true;
}

constexpr uint8_t MaxAbortReason =
    static_cast<uint8_t>(SolverStats::AbortReason::Injected);

void writeStats(ByteWriter &W, const SolverStats &S) {
  W.u64(S.VarsCreated);
  W.u64(S.OracleSubstitutions);
  W.u64(S.InitialEdges);
  W.u64(S.DistinctSources);
  W.u64(S.DistinctSinks);
  W.u64(S.Work);
  W.u64(S.RedundantAdds);
  W.u64(S.SelfEdges);
  W.u64(S.VarsEliminated);
  W.u64(S.CyclesCollapsed);
  W.u64(S.CycleSearchSteps);
  W.u64(S.CycleSearches);
  W.u64(S.PeriodicPasses);
  W.u64(S.Mismatches);
  W.u64(S.ConstraintsProcessed);
  W.u64(S.LSUnionWords);
  W.u64(S.DeltaPropagations);
  W.u64(S.PropagationsPruned);
  W.u64(S.Retractions);
  W.u64(S.ConeVarsRecomputed);
  W.u64(S.CollapsesSplit);
  W.u8(S.Aborted ? 1 : 0);
  W.u8(static_cast<uint8_t>(S.Abort));
}

bool readStats(ByteReader &R, SolverStats &S) {
  uint8_t Aborted = 0, Abort = 0;
  bool Ok = R.u64(S.VarsCreated) && R.u64(S.OracleSubstitutions) &&
            R.u64(S.InitialEdges) && R.u64(S.DistinctSources) &&
            R.u64(S.DistinctSinks) && R.u64(S.Work) &&
            R.u64(S.RedundantAdds) && R.u64(S.SelfEdges) &&
            R.u64(S.VarsEliminated) && R.u64(S.CyclesCollapsed) &&
            R.u64(S.CycleSearchSteps) && R.u64(S.CycleSearches) &&
            R.u64(S.PeriodicPasses) && R.u64(S.Mismatches) &&
            R.u64(S.ConstraintsProcessed) && R.u64(S.LSUnionWords) &&
            R.u64(S.DeltaPropagations) && R.u64(S.PropagationsPruned) &&
            R.u64(S.Retractions) && R.u64(S.ConeVarsRecomputed) &&
            R.u64(S.CollapsesSplit) && R.u8(Aborted) && R.u8(Abort);
  if (Ok && Abort > MaxAbortReason) {
    R.fail("abort reason out of range");
    return false;
  }
  S.Aborted = Aborted != 0;
  S.Abort = static_cast<SolverStats::AbortReason>(Abort);
  return Ok;
}

Status fail(ErrorCode Code, const std::string &Message) {
  return Status::error(Code, Message);
}

} // namespace

Status GraphSnapshot::serialize(ConstraintSolver &Solver,
                                std::vector<uint8_t> &Out) {
  if (Solver.Options.Elim == CycleElim::Oracle)
    return fail(ErrorCode::FailedPrecondition,
                "oracle-eliminated solvers cannot be snapshotted "
                "(the Oracle instance is external state)");
  Solver.ensureClosed();
  if (Solver.Stats.Aborted)
    return fail(ErrorCode::FailedPrecondition,
                "aborted solves cannot be snapshotted (" +
                    std::string(SolverStats::abortReasonName(
                        Solver.Stats.Abort)) +
                    " budget exceeded)");

  const uint64_t StartUs = trace::nowMicros();
  ByteWriter W;
  W.bytes(Magic, sizeof(Magic));
  W.u32(Version);
  size_t ChecksumAt = W.size();
  W.u64(0); // Checksum, patched below.
  size_t LengthAt = W.size();
  W.u64(0); // Payload length, patched below.

  const SolverOptions &O = Solver.Options;
  W.u8(static_cast<uint8_t>(O.Form));
  W.u8(static_cast<uint8_t>(O.Elim));
  W.u8(static_cast<uint8_t>(O.SFChains));
  W.u8(static_cast<uint8_t>(O.Order));
  W.u8(static_cast<uint8_t>(O.Mismatch));
  W.u64(O.Seed);
  W.u64(O.MaxWork);
  W.u64(O.PeriodicInterval);
  W.u8(O.RecordVarVar ? 1 : 0);
  W.u8(O.DiffProp ? 1 : 0);
  W.u32(O.Threads);
  W.u64(O.DeadlineMs);
  W.u64(O.MaxEdgeBudget);
  W.u64(O.MaxMemBytes);

  const TermTable &Terms = Solver.Terms;
  const ConstructorTable &Cons = Terms.constructors();
  uint32_t NumVars = Solver.numVars();
  W.u32(Cons.size());
  W.u32(Terms.size());
  W.u32(NumVars);
  W.u32(Solver.numCreations());

  for (ConsId Id = 0; Id != Cons.size(); ++Id) {
    const ConstructorSignature &Sig = Cons.signature(Id);
    W.str(Sig.Name);
    W.u32(Sig.arity());
    for (Variance V : Sig.ArgVariance)
      W.u8(static_cast<uint8_t>(V));
  }

  // Ids 0 and 1 are always the constants; replay starts at 2.
  for (ExprId Id = 2; Id != Terms.size(); ++Id) {
    ExprKind K = Terms.kind(Id);
    W.u8(static_cast<uint8_t>(K));
    if (K == ExprKind::Var) {
      W.u32(Terms.varOf(Id));
    } else {
      W.u32(Terms.consOf(Id));
      const ExprId *Args = Terms.argsOf(Id);
      for (unsigned I = 0; I != Terms.numArgs(Id); ++I)
        W.u32(Args[I]);
    }
  }

  for (VarId Var = 0; Var != NumVars; ++Var) {
    const ConstraintSolver::VarNode &Node = Solver.Vars[Var];
    W.str(Node.Name);
    W.u64(Node.Order);
    W.u32(Node.CreationIndex);
    W.u32(static_cast<uint32_t>(Node.Preds.size()));
    for (uint32_t Entry : Node.Preds)
      W.u32(Entry);
    W.u32(static_cast<uint32_t>(Node.Succs.size()));
    for (uint32_t Entry : Node.Succs)
      W.u32(Entry);
    writeBitmap(W, Node.PredTerms);
    writeBitmap(W, Node.SuccTerms);
    writeBitmap(W, Node.SrcDelta);
  }

  for (VarId Var = 0; Var != NumVars; ++Var)
    W.u32(Solver.Forwarding.findConst(Var));
  for (VarId Var : Solver.VarOfCreation)
    W.u32(Var);

  writeBitmap(W, Solver.SeenSources);
  writeBitmap(W, Solver.SeenSinks);

  auto WritePairs =
      [&](const std::vector<std::pair<uint32_t, uint32_t>> &Pairs) {
        W.u32(static_cast<uint32_t>(Pairs.size()));
        for (const auto &[Lhs, Rhs] : Pairs) {
          W.u32(Lhs);
          W.u32(Rhs);
        }
      };
  WritePairs(Solver.RecordedVarVar);
  WritePairs(Solver.RecordedInitialVarVar);

  W.u32(static_cast<uint32_t>(Solver.Inconsistencies.size()));
  for (const std::string &Message : Solver.Inconsistencies)
    W.str(Message);

  // Base-root provenance: one record per accepted constraint, in
  // acceptance order, so a reloaded solver can still retract by tag.
  W.u32(static_cast<uint32_t>(Solver.BaseRoots.size()));
  for (const ConstraintSolver::BaseRoot &Root : Solver.BaseRoots) {
    W.u32(Root.L);
    W.u32(Root.R);
    W.str(Root.Tag);
  }

  W.u64(Solver.NextPeriodicWork);
  uint64_t RngState[4];
  Solver.OrderRng.getState(RngState);
  for (uint64_t Word : RngState)
    W.u64(Word);
  writeStats(W, Solver.Stats);

  W.u8(Solver.Finalized ? 1 : 0);
  if (Solver.Finalized && O.Form == GraphForm::Inductive)
    for (VarId Var = 0; Var != NumVars; ++Var)
      writeBitmap(W, Solver.LSBits[Solver.LSOwner[Var]]);

  size_t PayloadLen = W.size() - HeaderSize;
  W.patchU64(LengthAt, PayloadLen);
  W.patchU64(ChecksumAt,
             fnv1a64(W.buffer().data() + HeaderSize, PayloadLen));
  Out = W.take();
  serializeHistogram().record(trace::nowMicros() - StartUs);
  trace::complete("snapshot.serialize", StartUs);
  return Status();
}

Status GraphSnapshot::save(ConstraintSolver &Solver,
                           const std::string &Path) {
  if (FailPoint::hit("snapshot.save") == FailPoint::Mode::Error)
    return FailPoint::injectedError("snapshot.save");
  std::vector<uint8_t> Buffer;
  Status St = serialize(Solver, Buffer);
  if (!St.ok())
    return St;
  return writeFileAtomic(Path, Buffer);
}

Status GraphSnapshot::deserialize(const uint8_t *Data, size_t Size,
                                  SolverBundle &Bundle) {
  Bundle = SolverBundle();
  if (Size < HeaderSize)
    return fail(ErrorCode::Corruption,
                "truncated snapshot: " + std::to_string(Size) +
                    " byte(s), header alone needs " +
                    std::to_string(HeaderSize));
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return fail(ErrorCode::Corruption,
                "not a poce snapshot (bad magic); expected a file "
                "written by GraphSnapshot::save");

  ByteReader Header(Data + sizeof(Magic), HeaderSize - sizeof(Magic));
  uint32_t FileVersion = 0;
  uint64_t Checksum = 0, PayloadLen = 0;
  Header.u32(FileVersion);
  Header.u64(Checksum);
  Header.u64(PayloadLen);
  if (FileVersion != Version)
    return fail(ErrorCode::VersionSkew,
                "snapshot version " + std::to_string(FileVersion) +
                    " not supported by this build (expected " +
                    std::to_string(Version) +
                    "); re-save the snapshot with this build");
  if (PayloadLen != Size - HeaderSize)
    return fail(ErrorCode::Corruption,
                "truncated or padded snapshot: header declares " +
                    std::to_string(PayloadLen) + " payload byte(s) but " +
                    std::to_string(Size - HeaderSize) + " present");
  if (fnv1a64(Data + HeaderSize, PayloadLen) != Checksum)
    return fail(ErrorCode::Corruption,
                "snapshot checksum mismatch: the file is "
                "corrupted (or was edited); re-save it");

  ByteReader R(Data + HeaderSize, PayloadLen);
  auto Bail = [&](const std::string &Context) {
    Bundle = SolverBundle();
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (" + Context + "): " +
                    (R.failed() ? R.error() : "validation failed"));
  };

  SolverOptions O;
  uint8_t Form, Elim, SFChains, Order, Mismatch, RecordVarVar, DiffProp;
  uint32_t Threads = 1;
  if (!R.u8(Form) || !R.u8(Elim) || !R.u8(SFChains) || !R.u8(Order) ||
      !R.u8(Mismatch) || !R.u64(O.Seed) || !R.u64(O.MaxWork) ||
      !R.u64(O.PeriodicInterval) || !R.u8(RecordVarVar) ||
      !R.u8(DiffProp) || !R.u32(Threads) || !R.u64(O.DeadlineMs) ||
      !R.u64(O.MaxEdgeBudget) || !R.u64(O.MaxMemBytes))
    return Bail("options");
  if (Form > 1 || Elim > 3 || SFChains > 2 || Order > 2 || Mismatch > 1)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (options): enum value "
                "out of range");
  O.Form = static_cast<GraphForm>(Form);
  O.Elim = static_cast<CycleElim>(Elim);
  O.SFChains = static_cast<SFChainMode>(SFChains);
  O.Order = static_cast<OrderKind>(Order);
  O.Mismatch = static_cast<MismatchPolicy>(Mismatch);
  O.RecordVarVar = RecordVarVar != 0;
  O.DiffProp = DiffProp != 0;
  O.Threads = Threads;
  if (O.Elim == CycleElim::Oracle)
    return fail(ErrorCode::Corruption,
                "snapshot claims an oracle-eliminated solver, "
                "which cannot be serialized");
  if (O.Elim == CycleElim::Periodic && O.PeriodicInterval == 0)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (options): periodic "
                "elimination with zero interval");

  uint32_t NumCons, NumTerms, NumVars, NumCreations;
  if (!R.u32(NumCons) || !R.u32(NumTerms) || !R.u32(NumVars) ||
      !R.u32(NumCreations))
    return Bail("counts");
  // Every record costs at least one payload byte, so any count larger
  // than the remaining payload is corrupt — reject before allocating.
  if (NumCons > R.remaining() || NumTerms > R.remaining() + 2 ||
      NumVars > R.remaining() || NumCreations > R.remaining() / 4)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (counts): implausibly large");
  if (NumTerms < 2)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (counts): term table "
                "must hold the constants 0 and 1");
  if (NumCreations < NumVars)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (counts): fewer "
                "creations than variables");

  Bundle.Constructors = std::make_unique<ConstructorTable>();
  Bundle.Terms = std::make_unique<TermTable>(*Bundle.Constructors);
  TermTable &Terms = *Bundle.Terms;

  for (ConsId Id = 0; Id != NumCons; ++Id) {
    std::string Name;
    uint32_t Arity;
    if (!R.str(Name) || !R.u32(Arity))
      return Bail("constructor table");
    if (Name.empty() || Arity > R.remaining())
      return Bail("constructor table");
    SmallVector<Variance, 4> Variances;
    for (uint32_t I = 0; I != Arity; ++I) {
      uint8_t V;
      if (!R.u8(V))
        return Bail("constructor table");
      if (V > 1) {
        R.fail("variance marker out of range");
        return Bail("constructor table");
      }
      Variances.push_back(static_cast<Variance>(V));
    }
    if (Bundle.Constructors->lookup(Name) != ConstructorTable::NotFound) {
      R.fail("duplicate constructor name '" + Name + "'");
      return Bail("constructor table");
    }
    ConsId Got = Bundle.Constructors->getOrCreate(Name, Variances);
    if (Got != Id) {
      R.fail("constructor replay id mismatch");
      return Bail("constructor table");
    }
  }

  for (ExprId Id = 2; Id != NumTerms; ++Id) {
    uint8_t Kind;
    if (!R.u8(Kind))
      return Bail("term table");
    ExprId Got;
    if (Kind == static_cast<uint8_t>(ExprKind::Var)) {
      uint32_t Var;
      if (!R.u32(Var))
        return Bail("term table");
      if (Var >= NumVars) {
        R.fail("variable id " + std::to_string(Var) + " out of range");
        return Bail("term table");
      }
      Got = Terms.var(Var);
    } else if (Kind == static_cast<uint8_t>(ExprKind::Cons)) {
      uint32_t Cons;
      if (!R.u32(Cons))
        return Bail("term table");
      if (Cons >= NumCons) {
        R.fail("constructor id " + std::to_string(Cons) + " out of range");
        return Bail("term table");
      }
      unsigned Arity = Bundle.Constructors->signature(Cons).arity();
      SmallVector<ExprId, 4> Args;
      for (unsigned I = 0; I != Arity; ++I) {
        uint32_t Arg;
        if (!R.u32(Arg))
          return Bail("term table");
        // Hash-consing interns arguments before the terms that use them.
        if (Arg >= Id) {
          R.fail("argument id " + std::to_string(Arg) +
                 " not smaller than its term");
          return Bail("term table");
        }
        Args.push_back(Arg);
      }
      Got = Terms.cons(Cons, Args);
    } else {
      R.fail("unknown term kind " + std::to_string(Kind));
      return Bail("term table");
    }
    if (Got != Id) {
      R.fail("term replay id mismatch (duplicate entry?)");
      return Bail("term table");
    }
  }

  Bundle.Solver = std::make_unique<ConstraintSolver>(Terms, O);
  ConstraintSolver &S = *Bundle.Solver;

  S.Vars.resize(NumVars);
  for (VarId Var = 0; Var != NumVars; ++Var) {
    ConstraintSolver::VarNode &Node = S.Vars[Var];
    uint32_t NumPreds, NumSuccs;
    if (!R.str(Node.Name) || !R.u64(Node.Order) ||
        !R.u32(Node.CreationIndex) || !R.u32(NumPreds))
      return Bail("variable records");
    if (Node.CreationIndex >= NumCreations) {
      R.fail("creation index out of range");
      return Bail("variable records");
    }
    auto ReadEntries = [&](std::vector<uint32_t> &List, DenseU64Set &VarSet,
                           uint32_t Count) {
      if (Count > R.remaining() / 4) {
        R.fail("implausible adjacency count");
        return false;
      }
      List.reserve(Count);
      for (uint32_t I = 0; I != Count; ++I) {
        uint32_t Entry;
        if (!R.u32(Entry))
          return false;
        uint32_t Payload = Entry & ~ConstraintSolver::TermTag;
        if (Entry & ConstraintSolver::TermTag) {
          if (Payload >= NumTerms || !Terms.isConstructed(Payload)) {
            R.fail("adjacency term ref out of range");
            return false;
          }
        } else {
          if (Payload >= NumVars) {
            R.fail("adjacency variable ref out of range");
            return false;
          }
          if (!VarSet.insert(Entry)) {
            R.fail("duplicate adjacency entry");
            return false;
          }
        }
        List.push_back(Entry);
      }
      return true;
    };
    if (!ReadEntries(Node.Preds, Node.PredVarSet, NumPreds))
      return Bail("variable records");
    if (!R.u32(NumSuccs))
      return Bail("variable records");
    if (!ReadEntries(Node.Succs, Node.SuccVarSet, NumSuccs))
      return Bail("variable records");
    if (!readBitmap(R, Node.PredTerms, NumTerms, "pred term set") ||
        !readBitmap(R, Node.SuccTerms, NumTerms, "succ term set") ||
        !readBitmap(R, Node.SrcDelta, NumTerms, "source delta set"))
      return Bail("variable records");
  }

  std::vector<uint32_t> RepOf(NumVars);
  for (VarId Var = 0; Var != NumVars; ++Var) {
    if (!R.u32(RepOf[Var]))
      return Bail("forwarding table");
    if (RepOf[Var] >= NumVars) {
      R.fail("representative out of range");
      return Bail("forwarding table");
    }
  }
  S.Forwarding.growTo(NumVars);
  for (VarId Var = 0; Var != NumVars; ++Var) {
    uint32_t Rep = RepOf[Var];
    if (Rep == Var)
      continue;
    // Representatives are self-mapped and, as collapse witnesses, carry
    // the lowest order index of their class.
    if (RepOf[Rep] != Rep || S.Vars[Rep].Order > S.Vars[Var].Order) {
      R.fail("forwarding table is not a compressed forest onto "
             "lowest-ordered witnesses");
      return Bail("forwarding table");
    }
    S.Forwarding.unite(Var, Rep);
  }

  S.VarOfCreation.resize(NumCreations);
  for (uint32_t C = 0; C != NumCreations; ++C) {
    if (!R.u32(S.VarOfCreation[C]))
      return Bail("creation table");
    if (S.VarOfCreation[C] >= NumVars) {
      R.fail("creation maps to missing variable");
      return Bail("creation table");
    }
  }
  for (VarId Var = 0; Var != NumVars; ++Var) {
    if (S.VarOfCreation[S.Vars[Var].CreationIndex] != Var) {
      R.fail("variable/creation tables disagree");
      return Bail("creation table");
    }
  }

  if (!readBitmap(R, S.SeenSources, NumTerms, "seen-source set") ||
      !readBitmap(R, S.SeenSinks, NumTerms, "seen-sink set"))
    return Bail("seen-term sets");

  auto ReadPairs = [&](std::vector<std::pair<uint32_t, uint32_t>> &Pairs,
                       DenseU64Set &Set, const char *What) {
    uint32_t Count;
    if (!R.u32(Count))
      return false;
    if (Count > R.remaining() / 8) {
      R.fail(std::string("implausible pair count in ") + What);
      return false;
    }
    Pairs.reserve(Count);
    for (uint32_t I = 0; I != Count; ++I) {
      uint32_t Lhs, Rhs;
      if (!R.u32(Lhs) || !R.u32(Rhs))
        return false;
      if (Lhs >= NumCreations || Rhs >= NumCreations) {
        R.fail(std::string("creation index out of range in ") + What);
        return false;
      }
      uint64_t Key = (static_cast<uint64_t>(Lhs) << 32) | Rhs;
      if (!Set.insert(Key)) {
        R.fail(std::string("duplicate pair in ") + What);
        return false;
      }
      Pairs.push_back({Lhs, Rhs});
    }
    return true;
  };
  if (!ReadPairs(S.RecordedVarVar, S.RecordedSet, "recorded constraints") ||
      !ReadPairs(S.RecordedInitialVarVar, S.RecordedInitialSet,
                 "recorded initial constraints"))
    return Bail("recorded constraints");

  uint32_t NumInconsistencies;
  if (!R.u32(NumInconsistencies))
    return Bail("inconsistency log");
  if (NumInconsistencies > R.remaining())
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (inconsistency log): "
                "implausibly large");
  S.Inconsistencies.resize(NumInconsistencies);
  for (std::string &Message : S.Inconsistencies)
    if (!R.str(Message))
      return Bail("inconsistency log");

  uint32_t NumRoots;
  if (!R.u32(NumRoots))
    return Bail("base roots");
  // 12 = the two expression ids plus a tag's length prefix: the floor
  // on a record's encoded size, making huge counts implausible.
  if (NumRoots > R.remaining() / 12)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (base roots): "
                "implausibly large");
  S.BaseRoots.reserve(NumRoots);
  for (uint32_t I = 0; I != NumRoots; ++I) {
    ConstraintSolver::BaseRoot Root;
    if (!R.u32(Root.L) || !R.u32(Root.R) || !R.str(Root.Tag))
      return Bail("base roots");
    if (Root.L >= NumTerms || Root.R >= NumTerms) {
      R.fail("base-root expression id out of range");
      return Bail("base roots");
    }
    S.BaseRoots.push_back(std::move(Root));
  }

  uint64_t RngState[4];
  if (!R.u64(S.NextPeriodicWork) || !R.u64(RngState[0]) ||
      !R.u64(RngState[1]) || !R.u64(RngState[2]) || !R.u64(RngState[3]))
    return Bail("RNG state");
  S.OrderRng.setState(RngState);
  if (!readStats(R, S.Stats))
    return Bail("stats");
  if (S.Stats.Aborted)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload (stats): snapshot of "
                "an aborted solve");

  uint8_t Finalized;
  if (!R.u8(Finalized))
    return Bail("finalized flag");
  S.Finalized = Finalized != 0;
  if (S.Finalized && O.Form == GraphForm::Inductive) {
    // Each variable's effective solution was written out whole, so every
    // variable owns its own bitmap here.
    S.LSBits.resize(NumVars);
    S.LSOwner.resize(NumVars);
    std::iota(S.LSOwner.begin(), S.LSOwner.end(), 0);
    for (VarId Var = 0; Var != NumVars; ++Var)
      if (!readBitmap(R, S.LSBits[Var], NumTerms, "least-solution set"))
        return Bail("least solutions");
  }

  if (R.remaining() != 0)
    return fail(ErrorCode::Corruption,
                "invalid snapshot payload: " +
                    std::to_string(R.remaining()) +
                    " unconsumed byte(s) after the last field");
  if (R.failed())
    return Bail("payload");

  if (!S.verifyGraphInvariants()) {
    Bundle = SolverBundle();
    return fail(ErrorCode::Corruption,
                "snapshot violates the solver's graph "
                "invariants; refusing to serve from it");
  }
  return Status();
}

uint64_t GraphSnapshot::payloadChecksum(const uint8_t *Data, size_t Size) {
  if (Size < HeaderSize)
    return 0;
  const uint8_t *P = Data + sizeof(Magic) + 4;
  uint64_t Value = 0;
  for (int Shift = 0; Shift != 64; Shift += 8)
    Value |= static_cast<uint64_t>(*P++) << Shift;
  return Value;
}

Status GraphSnapshot::load(const std::string &Path, SolverBundle &Bundle,
                           uint64_t *ChecksumOut) {
  if (FailPoint::hit("snapshot.load") == FailPoint::Mode::Error)
    return FailPoint::injectedError("snapshot.load");
  const uint64_t StartUs = trace::nowMicros();
  std::vector<uint8_t> Buffer;
  std::string Error;
  if (!readFileBytes(Path, Buffer, &Error))
    return Status::error(ErrorCode::IoError, Error);
  Status St = deserialize(Buffer.data(), Buffer.size(), Bundle)
                  .withContext("loading '" + Path + "'");
  if (St.ok() && ChecksumOut)
    *ChecksumOut = payloadChecksum(Buffer.data(), Buffer.size());
  if (St.ok()) {
    loadHistogram().record(trace::nowMicros() - StartUs);
    trace::complete("snapshot.load", StartUs);
  }
  return St;
}
