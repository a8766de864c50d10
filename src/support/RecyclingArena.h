//===- RecyclingArena.h - Thread-local object recycling pools ---*- C++ -*-===//
//
// Part of the SpecAI project: a reproduction of "Abstract Interpretation
// under Speculative Execution" (Wu & Wang, PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A per-analysis allocation arena for hot-path payload objects — the
/// piece that retires the remaining steady-state allocations of the packed
/// cache-state representation (docs/PERFORMANCE.md, "Arena lifetime").
///
/// Design constraints, in order:
///
///  1. Objects may *outlive* the arena. Analysis results (MustHitReport's
///     per-node state vectors) carry payloads out of runMustHitAnalysis,
///     past the scope that owned the arena. So the arena is a *recycler*,
///     not an owner of live objects: every object is an ordinary heap
///     allocation (`new T`), individually deletable, and the arena merely
///     keeps a freelist of retired ones to hand back instead of malloc.
///  2. Recycled objects keep their internal buffers. The freelist returns
///     objects as-is (no reset); the allocation site overwrites the fields
///     it needs, so `std::vector` members retain their heap capacity and a
///     fixpoint's clone-transfer-join steady state stops allocating
///     entirely once the high-water mark is reached.
///  3. Thread safety by thread locality. The active arena is a
///     thread_local pointer; each analysis scope activates its own on the
///     thread that runs it. Objects released on a thread
///     with no (or a different) active arena fall back to `delete` /
///     recycle-there — always safe, because every object is heap-born.
///
/// Usage:
///   RecyclingArena<Payload>::Scope Arena;        // activate for this thread
///   Payload *P = RecyclingArena<Payload>::allocateFromActive();
///   ...
///   RecyclingArena<Payload>::releaseToActive(P); // recycle or delete
///
//===----------------------------------------------------------------------===//

#ifndef SPECAI_SUPPORT_RECYCLINGARENA_H
#define SPECAI_SUPPORT_RECYCLINGARENA_H

#include <cstddef>
#include <vector>

namespace specai {

template <typename T> class RecyclingArena {
public:
  /// Freelist cap: bounds the memory a long-lived arena can pin. Retired
  /// objects past the cap are deleted instead of recycled.
  static constexpr size_t MaxFree = 1024;

  RecyclingArena() = default;
  RecyclingArena(const RecyclingArena &) = delete;
  RecyclingArena &operator=(const RecyclingArena &) = delete;
  ~RecyclingArena() {
    for (T *P : Free)
      delete P;
  }

  /// A recycled object (contents unspecified — the caller overwrites), or
  /// a fresh default-constructed heap object.
  T *allocate() {
    if (Free.empty())
      return new T();
    T *P = Free.back();
    Free.pop_back();
    return P;
  }

  /// Takes ownership of \p P: onto the freelist, or deleted past the cap.
  void retire(T *P) {
    if (Free.size() >= MaxFree) {
      delete P;
      return;
    }
    Free.push_back(P);
  }

  /// The thread's active arena (null when none).
  static RecyclingArena *&active() {
    thread_local RecyclingArena *Active = nullptr;
    return Active;
  }

  /// Allocates from the thread's active arena, or the heap when none.
  static T *allocateFromActive() {
    RecyclingArena *A = active();
    return A ? A->allocate() : new T();
  }

  /// Retires to the thread's active arena, or deletes when none.
  static void releaseToActive(T *P) {
    if (RecyclingArena *A = active())
      A->retire(P);
    else
      delete P;
  }

  /// RAII activation: installs a fresh arena as the thread's active one,
  /// restoring the previous (usually null) on exit. Nesting is fine; the
  /// inner arena simply shadows the outer for its lifetime.
  class Scope {
  public:
    Scope() : Prev(active()) { active() = &Pool; }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { active() = Prev; }

  private:
    RecyclingArena Pool;
    RecyclingArena *Prev;
  };

private:
  std::vector<T *> Free;
};

} // namespace specai

#endif // SPECAI_SUPPORT_RECYCLINGARENA_H
