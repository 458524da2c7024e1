//===- net/ReadView.h - Publishing views to the event loop ------*- C++ -*-===//
//
// Part of the poce project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How the socket server hands the writer's views (serve/ReadView.h) to
/// the event-loop thread that answers reads. Publication is
/// epoch/RCU-style: after each accepted write batch the single writer
/// lane publishes the engine's current view; the loop thread acquire()s a
/// shared_ptr once per dispatch and keeps querying that view even while
/// the next one is being built. Reads therefore never block on writers
/// (the only shared state is one pointer swap), and the writer never
/// waits for readers (old views are reclaimed by the last shared_ptr
/// release).
///
//===----------------------------------------------------------------------===//

#ifndef POCE_NET_READVIEW_H
#define POCE_NET_READVIEW_H

#include "serve/ReadView.h"

#include <memory>
#include <mutex>

namespace poce {
namespace net {

/// The view type under its network-layer name, which the benchmark
/// (perfbench) still spells; the server itself uses serve::ReadView.
using ReadView = serve::ReadView;

/// The one mutable cell of the read path: a mutex-guarded shared_ptr
/// swap. The mutex is held only for the pointer copy (never while
/// building or querying a view), so acquire() is wait-free for all
/// practical purposes and TSan-clean without requiring
/// std::atomic<std::shared_ptr>.
class ViewPublisher {
public:
  void publish(std::shared_ptr<const serve::ReadView> View) {
    std::lock_guard<std::mutex> Lock(Mutex);
    Current = std::move(View);
  }

  std::shared_ptr<const serve::ReadView> acquire() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Current;
  }

private:
  mutable std::mutex Mutex;
  std::shared_ptr<const serve::ReadView> Current;
};

} // namespace net
} // namespace poce

#endif // POCE_NET_READVIEW_H
