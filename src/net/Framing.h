//===- net/Framing.h - Newline framing over byte streams --------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket front end speaks the same newline-delimited verb protocol
/// as scserved's stdin mode, so framing is: bytes arrive in arbitrary
/// read() chunks, requests are complete lines. LineBuffer reassembles
/// them, strips an optional trailing '\r' (telnet-friendly), and
/// enforces the per-request size limit *streamingly* — an oversized line
/// is reported once (in stream order) and then discarded byte-by-byte up
/// to its newline, so one abusive request costs O(limit) memory, not
/// O(request), and the connection resynchronizes at the next line
/// instead of dying. At the end of the stream, finish() closes the last
/// line even when the peer sent no newline after it.
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_FRAMING_H
#define POCE_NET_FRAMING_H

#include <cstddef>
#include <deque>
#include <string>
#include <utility>

namespace poce {
namespace net {

/// Reassembles newline-delimited requests from stream chunks.
class LineBuffer {
public:
  explicit LineBuffer(size_t MaxLine) : MaxLine(MaxLine) {}

  /// What next() extracted.
  enum class Item {
    None,      ///< No complete line buffered yet.
    Line,      ///< One request line (in \p Out).
    Oversized, ///< A line exceeded the limit and was discarded; its byte
               ///< length (without the newline) is in \p Out as decimal
               ///< text. Reported once per line, in stream order.
  };

  /// Appends one read() chunk.
  void append(const char *Data, size_t Len) {
    for (size_t I = 0; I != Len; ++I) {
      char C = Data[I];
      if (Discarding) {
        if (C == '\n') {
          Items.emplace_back(true, std::to_string(DiscardedLen));
          Discarding = false;
          DiscardedLen = 0;
        } else {
          ++DiscardedLen;
        }
        continue;
      }
      if (C == '\n') {
        if (!Cur.empty() && Cur.back() == '\r')
          Cur.pop_back();
        Items.emplace_back(false, std::move(Cur));
        Cur.clear();
        continue;
      }
      if (Cur.size() < MaxLine) {
        Cur.push_back(C);
        continue;
      }
      // Limit hit without a newline: flip to discard mode. The bytes
      // already accumulated are part of the oversized line; count them
      // so the report reflects what the client actually sent.
      Discarding = true;
      DiscardedLen = Cur.size() + 1;
      Cur.clear();
    }
  }

  /// Ends the stream (stdin EOF, a peer's half-close): a pending line
  /// without its newline, or the oversize report of a line being
  /// discarded, becomes an item as if the newline had arrived. Idempotent.
  void finish() {
    if (Discarding || !Cur.empty())
      append("\n", 1);
  }

  /// Extracts the next item; call until it returns None.
  Item next(std::string &Out) {
    if (Items.empty())
      return Item::None;
    bool Oversized = Items.front().first;
    Out = std::move(Items.front().second);
    Items.pop_front();
    return Oversized ? Item::Oversized : Item::Line;
  }

  /// Bytes buffered toward an incomplete line (diagnostics/tests).
  size_t pendingBytes() const { return Cur.size(); }

private:
  std::deque<std::pair<bool, std::string>> Items; ///< (oversized, text).
  std::string Cur;          ///< The line being accumulated.
  size_t MaxLine;
  bool Discarding = false;  ///< Dropping up to the next '\n'.
  size_t DiscardedLen = 0;  ///< Bytes of the line being discarded.
};

} // namespace net
} // namespace poce

#endif // POCE_NET_FRAMING_H
