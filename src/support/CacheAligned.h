//===- support/CacheAligned.h - Cache-line padded wrappers ------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cache-line layout discipline for per-lane accumulators. When N lanes
/// each own one slot of a contiguous array and update it on every unit of
/// work, two adjacent slots sharing a 64-byte line turn independent writes
/// into coherence-protocol ping-pong (false sharing): the line bounces
/// between cores on every update even though no datum is actually shared.
/// The repair is purely physical — over-align each slot to the line size
/// so no two lanes ever write the same line.
///
/// CacheAligned<T> is that repair as a type: `std::vector<CacheAligned<T>>`
/// (or a plain array) gives every lane a private set of lines. Because the
/// struct's alignment is the line size, the language rounds sizeof up to a
/// multiple of it, so the padding is implicit and survives T growing new
/// fields. The static_asserts below pin both properties; use-sites add a
/// `static_assert(cacheAlignedLayoutOk<T>)` so a future refactor that
/// drops the wrapper (or an exotic T that over-aligns past a line) fails
/// to compile instead of silently re-introducing the ping-pong.
///
/// Used by the parallel least-solution pass (per-lane SolverStats deltas
/// and epoch scratch); tests/support_test.cpp checks the slot layout at
/// run time.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_SUPPORT_CACHEALIGNED_H
#define POCE_SUPPORT_CACHEALIGNED_H

#include <cstddef>

namespace poce {

/// The coherence granule the padding targets. 64 bytes on every x86-64
/// and most AArch64 parts; hardware with a larger granule only loses a
/// little padding efficiency, never correctness.
inline constexpr std::size_t CacheLineBytes = 64;

/// One per-lane slot, padded so adjacent slots never share a cache line.
/// Access the payload through .Value; the wrapper adds no behavior.
template <typename T> struct alignas(CacheLineBytes) CacheAligned {
  T Value{};
};

/// True when CacheAligned<T> really occupies whole cache lines: the
/// compile-time check every per-lane array should assert.
template <typename T>
inline constexpr bool cacheAlignedLayoutOk =
    sizeof(CacheAligned<T>) % CacheLineBytes == 0 &&
    alignof(CacheAligned<T>) >= CacheLineBytes;

static_assert(cacheAlignedLayoutOk<char>,
              "a one-byte payload must still fill a whole line");
static_assert(sizeof(CacheAligned<char>) == CacheLineBytes,
              "small payloads must pad to exactly one line, not more");

} // namespace poce

#endif // POCE_SUPPORT_CACHEALIGNED_H
