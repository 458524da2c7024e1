//===- support/SparseBitVector.h - Sparse bitmap over uint32 ids -*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A sparse bitvector over dense 32-bit ids, in the style of LLVM's
/// SparseBitVector: the id space is chopped into 128-bit elements and only
/// non-empty elements are stored, sorted by element index, with a cached
/// cursor so that clustered access patterns (the common case for the
/// solver's term ids) hit without a binary search. Unlike the LLVM linked
/// list, elements live in one contiguous vector, which makes the word-level
/// merge loops of unionWith() cache-friendly.
///
/// The constraint solver uses this as the representation of source/sink
/// term sets and least solutions: membership is a word probe, set union is
/// a word-level merge that reports whether anything changed (the signal
/// difference propagation is built on), and iteration yields ids in
/// ascending order — which for hash-consed ExprIds is exactly the sorted
/// order the least-solution API promises, so callers range-for over a
/// least solution's bitmap directly.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_SPARSEBITVECTOR_H
#define POCE_SUPPORT_SPARSEBITVECTOR_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

namespace poce {

/// Sparse set of uint32 ids stored as 128-bit bitmap elements.
class SparseBitVector {
public:
  static constexpr uint32_t WordBits = 64;
  static constexpr uint32_t ElementWords = 2;
  static constexpr uint32_t ElementBits = WordBits * ElementWords;

private:
  /// One 128-bit chunk of the id space: ids
  /// [Index * ElementBits, (Index + 1) * ElementBits).
  struct Element {
    uint32_t Index;
    uint64_t Words[ElementWords];

    explicit Element(uint32_t Index) : Index(Index), Words{0, 0} {}
    bool emptyElement() const { return !(Words[0] | Words[1]); }
  };

  std::vector<Element> Elems;     ///< Sorted by Element::Index.
  size_t NumBits = 0;             ///< Total set bits (maintained eagerly).
  mutable size_t Cursor = 0;      ///< Last accessed position (hint).

  static uint32_t elementIndex(uint32_t Id) { return Id / ElementBits; }
  static uint32_t wordIndex(uint32_t Id) { return (Id % ElementBits) / WordBits; }
  static uint64_t bitMask(uint32_t Id) { return 1ULL << (Id % WordBits); }

  static unsigned popcount(uint64_t Word) {
    return static_cast<unsigned>(__builtin_popcountll(Word));
  }

  /// Position of the element with index \p EltIdx, or the position where it
  /// would be inserted. Checks the cursor neighborhood before searching.
  size_t lowerBound(uint32_t EltIdx) const {
    size_t N = Elems.size();
    if (Cursor < N) {
      uint32_t AtCursor = Elems[Cursor].Index;
      if (AtCursor == EltIdx)
        return Cursor;
      if (AtCursor < EltIdx) {
        if (Cursor + 1 == N || Elems[Cursor + 1].Index >= EltIdx)
          return Cursor + 1;
      } else if (Cursor == 0 || Elems[Cursor - 1].Index < EltIdx) {
        return Cursor;
      }
    }
    // Binary search over the sorted element vector.
    size_t Lo = 0, Hi = N;
    while (Lo != Hi) {
      size_t Mid = Lo + (Hi - Lo) / 2;
      if (Elems[Mid].Index < EltIdx)
        Lo = Mid + 1;
      else
        Hi = Mid;
    }
    return Lo;
  }

  template <typename Fn>
  static void forEachBitInWord(uint64_t Word, uint32_t Base, Fn &&F) {
    while (Word) {
      uint32_t Bit = static_cast<uint32_t>(__builtin_ctzll(Word));
      F(Base + Bit);
      Word &= Word - 1;
    }
  }

public:
  SparseBitVector() = default;

  size_t count() const { return NumBits; }
  bool empty() const { return NumBits == 0; }

  void clear() {
    Elems.clear();
    NumBits = 0;
    Cursor = 0;
  }

  bool test(uint32_t Id) const {
    size_t Pos = lowerBound(elementIndex(Id));
    if (Pos == Elems.size() || Elems[Pos].Index != elementIndex(Id))
      return false;
    Cursor = Pos;
    return (Elems[Pos].Words[wordIndex(Id)] & bitMask(Id)) != 0;
  }

  /// Sets \p Id; returns true if the bit was newly set.
  bool testAndSet(uint32_t Id) {
    uint32_t EltIdx = elementIndex(Id);
    size_t Pos = lowerBound(EltIdx);
    if (Pos == Elems.size() || Elems[Pos].Index != EltIdx)
      Elems.insert(Elems.begin() + Pos, Element(EltIdx));
    Cursor = Pos;
    uint64_t &Word = Elems[Pos].Words[wordIndex(Id)];
    uint64_t Mask = bitMask(Id);
    if (Word & Mask)
      return false;
    Word |= Mask;
    ++NumBits;
    return true;
  }

  void set(uint32_t Id) { (void)testAndSet(Id); }

  /// Clears \p Id; returns true if the bit was previously set. Empty
  /// elements are erased so that equality stays structural.
  bool reset(uint32_t Id) {
    uint32_t EltIdx = elementIndex(Id);
    size_t Pos = lowerBound(EltIdx);
    if (Pos == Elems.size() || Elems[Pos].Index != EltIdx)
      return false;
    uint64_t &Word = Elems[Pos].Words[wordIndex(Id)];
    uint64_t Mask = bitMask(Id);
    if (!(Word & Mask))
      return false;
    Word &= ~Mask;
    --NumBits;
    if (Elems[Pos].emptyElement())
      Elems.erase(Elems.begin() + Pos);
    Cursor = 0;
    return true;
  }

  /// Unions \p RHS into this set with word-level ORs. Returns true if any
  /// bit was added. When \p WordsVisited is non-null it is incremented by
  /// the number of 64-bit words the merge touched (the solver's
  /// LSUnionWords counter).
  bool unionWith(const SparseBitVector &RHS,
                 uint64_t *WordsVisited = nullptr) {
    return unionWithVisitor(RHS, [](uint32_t) {}, WordsVisited,
                            /*VisitNewBits=*/false) != 0;
  }

  /// Unions \p RHS into this set, invoking \p OnNewBit(id) for every bit
  /// that was not previously present, in ascending id order. Returns the
  /// number of newly added bits.
  template <typename Fn>
  size_t unionWithVisitor(const SparseBitVector &RHS, Fn &&OnNewBit,
                          uint64_t *WordsVisited = nullptr,
                          bool VisitNewBits = true) {
    if (RHS.Elems.empty() || this == &RHS)
      return 0;
    size_t Added = 0;
    uint64_t Words = 0;

    // First pass: detect whether RHS contains element indices missing here;
    // if so, rebuild into a merged vector (one allocation), else OR in
    // place.
    bool NeedsMerge = false;
    {
      size_t I = 0;
      for (const Element &R : RHS.Elems) {
        while (I != Elems.size() && Elems[I].Index < R.Index)
          ++I;
        if (I == Elems.size() || Elems[I].Index != R.Index) {
          NeedsMerge = true;
          break;
        }
      }
    }

    auto orInto = [&](Element &L, const Element &R) {
      for (uint32_t W = 0; W != ElementWords; ++W) {
        uint64_t New = R.Words[W] & ~L.Words[W];
        Words += 1;
        if (!New)
          continue;
        L.Words[W] |= New;
        Added += popcount(New);
        if (VisitNewBits)
          forEachBitInWord(New, R.Index * ElementBits + W * WordBits,
                           OnNewBit);
      }
    };

    if (!NeedsMerge) {
      // Every RHS element has a counterpart here (checked above). The hot
      // shape is long runs of consecutive elements on both sides (clustered
      // term ids), so OR two elements — four 64-bit words — per iteration
      // whenever the next pair is already aligned, skipping the per-element
      // catch-up scan.
      size_t I = 0, J = 0;
      const size_t NumR = RHS.Elems.size();
      while (J + 1 < NumR) {
        const Element &R0 = RHS.Elems[J];
        while (Elems[I].Index < R0.Index)
          ++I;
        const Element &R1 = RHS.Elems[J + 1];
        if (I + 1 != Elems.size() && Elems[I + 1].Index == R1.Index) {
          orInto(Elems[I], R0);
          orInto(Elems[I + 1], R1);
          I += 2;
          J += 2;
        } else {
          orInto(Elems[I], R0);
          ++I;
          ++J;
        }
      }
      if (J != NumR) {
        const Element &R = RHS.Elems[J];
        while (Elems[I].Index < R.Index)
          ++I;
        orInto(Elems[I], R);
      }
    } else {
      std::vector<Element> Merged;
      Merged.reserve(Elems.size() + RHS.Elems.size());
      size_t I = 0, J = 0;
      while (I != Elems.size() || J != RHS.Elems.size()) {
        if (J == RHS.Elems.size() ||
            (I != Elems.size() && Elems[I].Index < RHS.Elems[J].Index)) {
          Merged.push_back(Elems[I++]);
        } else if (I == Elems.size() ||
                   Elems[I].Index > RHS.Elems[J].Index) {
          const Element &R = RHS.Elems[J++];
          Merged.push_back(Element(R.Index));
          orInto(Merged.back(), R);
        } else {
          Merged.push_back(Elems[I++]);
          orInto(Merged.back(), RHS.Elems[J++]);
        }
      }
      Elems = std::move(Merged);
    }
    NumBits += Added;
    Cursor = 0;
    if (WordsVisited)
      *WordsVisited += Words;
    return Added;
  }

  /// Replaces this set with \p A minus \p B using word-level operations.
  /// \p A and \p B must be distinct objects from \p *this.
  void assignDifference(const SparseBitVector &A, const SparseBitVector &B) {
    assert(this != &A && this != &B && "aliasing assignDifference");
    Elems.clear();
    NumBits = 0;
    Cursor = 0;
    Elems.reserve(A.Elems.size());
    size_t J = 0;
    for (const Element &L : A.Elems) {
      while (J != B.Elems.size() && B.Elems[J].Index < L.Index)
        ++J;
      const Element *E =
          (J != B.Elems.size() && B.Elems[J].Index == L.Index) ? &B.Elems[J]
                                                               : nullptr;
      Element Out(L.Index);
      size_t Bits = 0;
      for (uint32_t W = 0; W != ElementWords; ++W) {
        Out.Words[W] = L.Words[W] & (E ? ~E->Words[W] : ~0ULL);
        Bits += popcount(Out.Words[W]);
      }
      if (Bits) {
        Elems.push_back(Out);
        NumBits += Bits;
      }
    }
  }

  /// True if every bit of this set is also in \p RHS.
  bool isSubsetOf(const SparseBitVector &RHS) const {
    size_t J = 0;
    for (const Element &L : Elems) {
      while (J != RHS.Elems.size() && RHS.Elems[J].Index < L.Index)
        ++J;
      if (J == RHS.Elems.size() || RHS.Elems[J].Index != L.Index)
        return (L.Words[0] | L.Words[1]) == 0;
      for (uint32_t W = 0; W != ElementWords; ++W)
        if (L.Words[W] & ~RHS.Elems[J].Words[W])
          return false;
    }
    return true;
  }

  /// Visits ids in \p *this that are not in \p Exclude, ascending.
  template <typename Fn>
  void forEachDifference(const SparseBitVector &Exclude, Fn &&F) const {
    size_t J = 0;
    for (const Element &L : Elems) {
      while (J != Exclude.Elems.size() && Exclude.Elems[J].Index < L.Index)
        ++J;
      const Element *E = (J != Exclude.Elems.size() &&
                          Exclude.Elems[J].Index == L.Index)
                             ? &Exclude.Elems[J]
                             : nullptr;
      for (uint32_t W = 0; W != ElementWords; ++W) {
        uint64_t Word = L.Words[W] & (E ? ~E->Words[W] : ~0ULL);
        forEachBitInWord(Word, L.Index * ElementBits + W * WordBits, F);
      }
    }
  }

  /// Forward iterator over the set ids in ascending order, so a set reads
  /// like a sorted container: `for (uint32_t Id : Set)`. A non-end
  /// position holds the unvisited bits of one nonzero word; the end
  /// position holds none.
  class const_iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = uint32_t;
    using difference_type = std::ptrdiff_t;
    using pointer = const uint32_t *;
    using reference = uint32_t;

    const_iterator() = default;

    uint32_t operator*() const {
      return Base + static_cast<uint32_t>(__builtin_ctzll(Bits));
    }
    const_iterator &operator++() {
      Bits &= Bits - 1;
      if (!Bits)
        nextWord();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator Old = *this;
      ++*this;
      return Old;
    }
    bool operator==(const const_iterator &RHS) const {
      return Elt == RHS.Elt && Word == RHS.Word && Bits == RHS.Bits;
    }
    bool operator!=(const const_iterator &RHS) const {
      return !(*this == RHS);
    }

  private:
    friend class SparseBitVector;

    const_iterator(const Element *Elt, const Element *End)
        : Elt(Elt), End(End) {
      if (Elt == End)
        return;
      Bits = Elt->Words[0];
      Base = Elt->Index * ElementBits;
      if (!Bits)
        nextWord();
    }

    /// Moves to the next nonzero word, or to the end position.
    void nextWord() {
      while (true) {
        if (++Word == ElementWords) {
          Word = 0;
          if (++Elt == End)
            return;
        }
        Bits = Elt->Words[Word];
        if (Bits) {
          Base = Elt->Index * ElementBits + Word * WordBits;
          return;
        }
      }
    }

    const Element *Elt = nullptr;
    const Element *End = nullptr;
    uint32_t Word = 0;
    uint32_t Base = 0;
    uint64_t Bits = 0;
  };
  using iterator = const_iterator;

  const_iterator begin() const {
    return const_iterator(Elems.data(), Elems.data() + Elems.size());
  }
  const_iterator end() const {
    const Element *Past = Elems.data() + Elems.size();
    return const_iterator(Past, Past);
  }

  /// Visits every set id in ascending order.
  template <typename Fn> void forEach(Fn &&F) const {
    for (const Element &L : Elems)
      for (uint32_t W = 0; W != ElementWords; ++W)
        forEachBitInWord(L.Words[W], L.Index * ElementBits + W * WordBits,
                         F);
  }

  bool operator==(const SparseBitVector &RHS) const {
    if (NumBits != RHS.NumBits || Elems.size() != RHS.Elems.size())
      return false;
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (Elems[I].Index != RHS.Elems[I].Index)
        return false;
      for (uint32_t W = 0; W != ElementWords; ++W)
        if (Elems[I].Words[W] != RHS.Elems[I].Words[W])
          return false;
    }
    return true;
  }
  bool operator!=(const SparseBitVector &RHS) const { return !(*this == RHS); }

  /// Materializes the set as a sorted vector of ids.
  template <typename OutT = uint32_t>
  std::vector<OutT> toVector() const {
    std::vector<OutT> Out;
    Out.reserve(NumBits);
    forEach([&](uint32_t Id) { Out.push_back(static_cast<OutT>(Id)); });
    return Out;
  }

  /// Number of 64-bit words currently stored (capacity accounting).
  size_t numWords() const { return Elems.size() * ElementWords; }

  /// Number of stored (non-empty) 128-bit elements.
  size_t numElements() const { return Elems.size(); }

  /// Visits each stored element as (Index, Words[ElementWords]) in
  /// ascending index order. Exposes the physical layout so a snapshot can
  /// serialize the set word-for-word.
  template <typename Fn> void forEachElement(Fn &&F) const {
    for (const Element &L : Elems)
      F(L.Index, L.Words);
  }

  /// Appends one element with the given raw words. Elements must arrive
  /// in strictly ascending index order and must be non-empty (the
  /// invariants a well-formed set maintains); returns false when the
  /// input violates them, leaving the set unchanged. The inverse of
  /// forEachElement(), used to reconstruct a set bit-identically from a
  /// snapshot.
  bool appendElement(uint32_t Index, const uint64_t W[ElementWords]) {
    if (!Elems.empty() && Elems.back().Index >= Index)
      return false;
    uint64_t Any = 0;
    for (uint32_t I = 0; I != ElementWords; ++I)
      Any |= W[I];
    if (!Any)
      return false;
    Element E(Index);
    for (uint32_t I = 0; I != ElementWords; ++I) {
      E.Words[I] = W[I];
      NumBits += popcount(W[I]);
    }
    Elems.push_back(E);
    return true;
  }

  /// True if this set and \p RHS share at least one bit.
  bool intersects(const SparseBitVector &RHS) const {
    size_t J = 0;
    for (const Element &L : Elems) {
      while (J != RHS.Elems.size() && RHS.Elems[J].Index < L.Index)
        ++J;
      if (J == RHS.Elems.size())
        return false;
      if (RHS.Elems[J].Index != L.Index)
        continue;
      for (uint32_t W = 0; W != ElementWords; ++W)
        if (L.Words[W] & RHS.Elems[J].Words[W])
          return true;
    }
    return false;
  }
};

} // namespace poce

#endif // POCE_SUPPORT_SPARSEBITVECTOR_H
