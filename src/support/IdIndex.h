//===- support/IdIndex.h - Flat index from keys to dense ids ----*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An open-addressed index from keys to the dense ids of a table that
/// stores them. Each slot holds a 32-bit hash tag and an id, nothing else:
/// the caller computes the tag and supplies an equality test on ids, so
/// the index never owns, copies or rehashes a key, and growing it only
/// re-slots (tag, id) pairs. The term table's hash-consing and every
/// name table (constructor and variable names, the MiniC location model's
/// identifiers and location names, the .scs parser's declarations) use
/// it, with their keys kept in their own vectors and found by id.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_IDINDEX_H
#define POCE_SUPPORT_IDINDEX_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

namespace poce {

/// Index from keys (held by the caller) to their ids. Linear probing over
/// a power-of-two slot array that is at most half full.
class IdIndex {
public:
  static constexpr uint32_t NotFound = ~0U;

  /// Returns the id whose key has tag \p Tag and satisfies \p Matches(Id),
  /// or NotFound.
  template <typename MatchFn>
  uint32_t find(uint32_t Tag, MatchFn &&Matches) const {
    if (Slots.empty())
      return NotFound;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Tag & Mask;; I = (I + 1) & Mask) {
      const Slot &Entry = Slots[I];
      if (Entry.Id == NotFound)
        return NotFound;
      if (Entry.Tag == Tag && Matches(Entry.Id))
        return Entry.Id;
    }
  }

  /// Like find(), but when no id matches, records \p NewId under \p Tag
  /// and returns it. \p Matches is never asked about \p NewId, so the
  /// caller may store NewId's key after this returns (and must, before
  /// the next lookup).
  template <typename MatchFn>
  uint32_t findOrInsert(uint32_t Tag, uint32_t NewId, MatchFn &&Matches) {
    if (2 * (static_cast<size_t>(Count) + 1) > Slots.size())
      grow();
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Tag & Mask;; I = (I + 1) & Mask) {
      Slot &Entry = Slots[I];
      if (Entry.Id == NotFound) {
        Entry = {Tag, NewId};
        ++Count;
        return NewId;
      }
      if (Entry.Tag == Tag && Matches(Entry.Id))
        return Entry.Id;
    }
  }

private:
  struct Slot {
    uint32_t Tag = 0;
    uint32_t Id = NotFound;
  };

  void grow() {
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(Old.empty() ? 64 : 2 * Old.size(), Slot());
    const size_t Mask = Slots.size() - 1;
    for (const Slot &Entry : Old) {
      if (Entry.Id == NotFound)
        continue;
      size_t I = Entry.Tag & Mask;
      while (Slots[I].Id != NotFound)
        I = (I + 1) & Mask;
      Slots[I] = Entry;
    }
  }

  std::vector<Slot> Slots;
  uint32_t Count = 0;
};

/// The IdIndex tag of a string.
inline uint32_t stringTag(std::string_view Str) {
  const uint64_t Hash = std::hash<std::string_view>{}(Str);
  return static_cast<uint32_t>(Hash ^ (Hash >> 32));
}

} // namespace poce

#endif // POCE_SUPPORT_IDINDEX_H
