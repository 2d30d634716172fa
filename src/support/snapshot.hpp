// CowSnapshot<T>: one value published as immutable copy-on-write
// snapshots — the read-mostly primitive behind the serving maps
// (PlanRegistry's shards, PlanCache, TuningService's retune contexts).
//
// read() returns the current std::shared_ptr<const T>; the snapshot a
// reader holds never changes and lives as long as the reader keeps it.
// Readers never touch the writer mutex, so a read never waits behind a
// write's copy of T.  They are MUTEX-FREE but not lock-free: the pointer
// copy (and a writer's pointer swap) runs under a one-word spin lock
// held for a reference-count increment.  std::atomic<std::shared_ptr>
// is no better on libstdc++ 12 (GCC 12): is_lock_free() is false, as it
// is the same spin lock inside, and its load() unlocks with relaxed
// ordering, which ThreadSanitizer reports as a race with the next store.
//
// Writers serialize on the snapshot's own mutex.  write(fn) hands `fn` a
// Draft over the current snapshot; the first Draft::edit() copies it,
// and a draft that was edited is published when `fn` returns.  A write
// that never calls edit() — the "keep the incumbent" case of a
// better-wins merge — copies and publishes nothing.  If `fn` throws,
// nothing is published.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

namespace barracuda::support {

template <typename T>
class CowSnapshot {
 public:
  /// One write's view of the value: the published snapshot until the
  /// first edit(), the writer's private copy after it.
  class Draft {
   public:
    /// The draft's current contents (edits so far included).
    const T& get() const { return next_ ? *next_ : *base_; }
    /// The writable copy, made on first call.  Marks the write for
    /// publication.
    T& edit() {
      if (!next_) next_ = std::make_shared<T>(*base_);
      return *next_;
    }

   private:
    friend class CowSnapshot;
    explicit Draft(std::shared_ptr<const T> base) : base_(std::move(base)) {}
    std::shared_ptr<const T> base_;
    std::shared_ptr<T> next_;
  };

  explicit CowSnapshot(T initial = T{})
      : current_(std::make_shared<const T>(std::move(initial))) {}

  CowSnapshot(const CowSnapshot&) = delete;
  CowSnapshot& operator=(const CowSnapshot&) = delete;

  /// The current snapshot.  The spin lock's acquire pairs with the
  /// writer's release: the value is fully built before any reader can
  /// see it.
  std::shared_ptr<const T> read() const {
    spin_lock();
    std::shared_ptr<const T> snapshot = current_;
    swapping_.clear(std::memory_order_release);
    return snapshot;
  }

  /// Run `fn(Draft&)` under the writer mutex and publish the draft if it
  /// was edited.  Returns what `fn` returns.
  template <typename Fn>
  decltype(auto) write(Fn&& fn) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    // Only writers change current_, so under the writer mutex it can be
    // read without the spin lock.
    Draft draft(current_);
    if constexpr (std::is_void_v<std::invoke_result_t<Fn&, Draft&>>) {
      fn(draft);
      publish(draft);
    } else {
      auto result = fn(draft);
      publish(draft);
      return result;
    }
  }

  /// Replace the whole value without copying the old one.
  void reset(T value = T{}) {
    std::lock_guard<std::mutex> lock(write_mutex_);
    swap_in(std::make_shared<const T>(std::move(value)));
  }

 private:
  void spin_lock() const {
    while (swapping_.test_and_set(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
  }
  void publish(Draft& draft) {
    if (draft.next_) swap_in(std::move(draft.next_));
  }
  /// Install `next`; the previous snapshot is released after the spin
  /// lock, so freeing it never holds up a reader.
  void swap_in(std::shared_ptr<const T> next) {
    spin_lock();
    current_.swap(next);
    swapping_.clear(std::memory_order_release);
  }

  std::mutex write_mutex_;
  mutable std::atomic_flag swapping_;
  std::shared_ptr<const T> current_;
};

}  // namespace barracuda::support
