// The discrete-event simulation engine.
//
// Single-threaded and deterministic: events are ordered by (time, sequence
// number), so two runs with the same seed produce identical traces. All
// concurrency in the simulated machine is expressed as coroutine processes
// (Task<void>) that suspend on awaitables (delay, Trigger, Channel) and
// are resumed by the engine.
//
// One Engine per host thread; engines are not thread-safe and never need
// to be — determinism plus coroutines gives us hundreds of virtual
// processors with zero data races by construction, and sweeps scale by
// running independent engines on independent threads (util/parallel.hpp).
//
// Hot-path design (see docs/PERF.md for measurements):
//   - pending events are 24-byte PODs in a two-tier bucket queue
//     (core/event_queue.hpp), not heap-sifted fat records;
//   - callbacks are InlineFn<48> stored in a recycled slot pool, so
//     schedule_call never heap-allocates for captures <= 48 bytes;
//   - coroutine frames come from a thread-local size-class arena
//     (core/frame_arena.hpp), not the global allocator.
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/event_queue.hpp"
#include "core/frame_arena.hpp"
#include "core/inline_fn.hpp"
#include "core/task.hpp"
#include "core/time.hpp"
#include "util/assert.hpp"

namespace hpccsim::sim {

class Engine;

/// Callback type for schedule_call: captures up to 48 bytes are stored
/// inline (no allocation); larger ones fall back to one heap box.
using Callback = InlineFn<48>;

/// One-shot latch: processes await it; fire() releases all current and
/// future waiters. Used for process-join and phase barriers.
class Trigger {
 public:
  explicit Trigger(Engine& engine) : engine_(&engine) {}

  // Waiter handles are raw coroutine handles owned by their processes;
  // Trigger must not outlive the engine that owns those processes.
  Trigger(const Trigger&) = delete;
  Trigger& operator=(const Trigger&) = delete;

  void fire();
  bool fired() const { return fired_; }

  /// Register a callback to run at the fire instant (scheduled through
  /// the event queue, like waiter resumes). If already fired, the
  /// callback is scheduled at the current instant. Callbacks on a
  /// trigger that never fires are retained until the trigger dies —
  /// intended for short-lived triggers (abort epochs, request states).
  void on_fire(Callback cb);

  auto wait() {
    struct Awaiter {
      Trigger* t;
      bool await_ready() const noexcept { return t->fired_; }
      void await_suspend(std::coroutine_handle<> h) {
        t->waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Engine* engine_;
  std::vector<std::coroutine_handle<>> waiters_;
  std::vector<Callback> fire_callbacks_;
  bool fired_ = false;
};

/// Identifies a spawned root process within its Engine.
struct ProcessId {
  std::uint32_t index = 0;
};

class Engine {
 public:
  Engine() = default;
  ~Engine();
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  Time now() const { return now_; }

  /// Schedule a coroutine resume at an absolute time (>= now).
  void schedule(Time when, std::coroutine_handle<> h) {
    HPCCSIM_EXPECTS(when >= now_);
    HPCCSIM_EXPECTS(h != nullptr);
    queue_.push({when.picoseconds(), next_seq_++,
                 reinterpret_cast<std::uintptr_t>(h.address())});
    note_queue_depth();
  }

  /// Schedule an arbitrary callback (used by the flit-level network, NX
  /// message delivery, and the batch scheduler).
  void schedule_call(Time when, Callback fn) {
    HPCCSIM_EXPECTS(when >= now_);
    HPCCSIM_EXPECTS(static_cast<bool>(fn));
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
      call_slots_[slot] = std::move(fn);
    } else {
      slot = static_cast<std::uint32_t>(call_slots_.size());
      call_slots_.push_back(std::move(fn));
    }
    queue_.push({when.picoseconds(), next_seq_++,
                 (static_cast<std::uintptr_t>(slot) << 1) | 1});
    ++calls_scheduled_;
    note_queue_depth();
  }

  /// Start a root process; it first runs when the engine reaches now().
  ProcessId spawn(Task<void> task, std::string name = "proc");

  /// True once the given root process has returned.
  bool finished(ProcessId pid) const;
  /// Awaitable that completes when the root process returns.
  auto join(ProcessId pid) {
    HPCCSIM_EXPECTS(pid.index < roots_.size());
    return roots_[pid.index]->done.wait();
  }

  /// Run until no events remain. Throws the first process exception, or
  /// DeadlockError if processes remain blocked with an empty queue.
  /// Returns the number of events processed.
  std::uint64_t run();

  /// Run until simulated time reaches `stop` (events at exactly `stop`
  /// are processed). Does not consider blocked processes an error.
  std::uint64_t run_until(Time stop);

  /// Awaitable: suspend the current process for `dt` of simulated time.
  auto delay(Time dt) {
    struct Awaiter {
      Engine* e;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        e->schedule(e->now_ + dt, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, dt};
  }

  std::uint64_t events_processed() const { return events_processed_; }
  std::size_t live_process_count() const;

  // Engine-level observability (src/obs pulls these into its registry):
  // total schedule_call invocations, the deepest the event queue ever
  // got, and the callback-slot pool's high-water mark. Counting costs
  // one increment/compare per push — in the measurement noise next to
  // the queue operation itself.
  std::uint64_t calls_scheduled() const { return calls_scheduled_; }
  std::uint64_t peak_queue_depth() const { return peak_queue_depth_; }
  std::size_t call_slot_high_water() const { return call_slots_.size(); }

  /// Safety valve against runaway simulations (0 = unlimited).
  void set_max_events(std::uint64_t n) { max_events_ = n; }

 private:
  friend class Trigger;

  struct Root;
  // Fire-and-forget wrapper coroutine that drives a root Task and records
  // completion / errors in its Root record.
  struct RootCoro {
    struct promise_type {
      RootCoro get_return_object() {
        return RootCoro{
            std::coroutine_handle<promise_type>::from_promise(*this)};
      }
      std::suspend_always initial_suspend() noexcept { return {}; }
      std::suspend_always final_suspend() noexcept { return {}; }
      void return_void() {}
      void unhandled_exception();
      static void* operator new(std::size_t n) {
        return detail::FrameArena::allocate(n);
      }
      static void operator delete(void* p) noexcept {
        detail::FrameArena::deallocate(p);
      }
      static void operator delete(void* p, std::size_t) noexcept {
        detail::FrameArena::deallocate(p);
      }
      Root* root = nullptr;
    };
    std::coroutine_handle<promise_type> handle;
  };

  struct Root {
    std::string name;
    Trigger done;
    Engine* engine;  ///< for the pending-error count (unhandled_exception)
    bool finished = false;
    std::exception_ptr error;
    std::coroutine_handle<RootCoro::promise_type> frame;
    explicit Root(Engine& e, std::string n)
        : name(std::move(n)), done(e), engine(&e) {}
  };

  static RootCoro run_root(Root* root, Task<void> task);
  void dispatch(const detail::QEvent& ev);
  /// Called once per dispatched event: O(1) when no process has failed
  /// (the common case — unhandled_exception counts pending errors), so
  /// the per-event cost no longer scales with the number of roots.
  void check_errors() {
    if (pending_errors_ == 0) return;
    rethrow_pending_error();
  }
  void rethrow_pending_error();
  void note_queue_depth() {
    if (queue_.size() > peak_queue_depth_)
      peak_queue_depth_ = queue_.size();
  }

  Time now_ = Time::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t max_events_ = 0;
  std::uint64_t calls_scheduled_ = 0;
  std::uint64_t peak_queue_depth_ = 0;
  std::uint32_t pending_errors_ = 0;
  detail::EventQueue queue_;
  // Callback storage: events reference slots by index so queue records
  // stay POD; freed slots are recycled newest-first (cache-warm).
  std::vector<Callback> call_slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::unique_ptr<Root>> roots_;
};

/// Thrown when all events drain but some process never finished — i.e. a
/// recv with no matching send, a barrier someone never reached, etc.
class DeadlockError : public std::runtime_error {
 public:
  explicit DeadlockError(const std::string& what)
      : std::runtime_error(what) {}
};

namespace detail {
/// Shared settle flag for two-way races (timer vs trigger, trigger vs
/// trigger). Heap-shared so the losing path can observe that the race is
/// over even after the winning path resumed (and possibly destroyed) the
/// waiting coroutine.
struct RaceState {
  bool settled = false;
  bool first_won = false;
};
}  // namespace detail

/// Awaitable: suspend for `dt` of simulated time, unless `abort` fires
/// first. await_resume() returns true when the full delay elapsed, false
/// when the abort won (the waiter resumes at the abort instant). Ties at
/// the same instant go to the timer (it was scheduled first).
inline auto abortable_delay(Engine& e, Time dt, Trigger& abort) {
  struct Awaiter {
    Engine* e;
    Time dt;
    Trigger* abort;
    std::shared_ptr<detail::RaceState> st;

    bool await_ready() const noexcept { return abort->fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      st = std::make_shared<detail::RaceState>();
      e->schedule_call(e->now() + dt, [s = st, h] {
        if (s->settled) return;
        s->settled = true;
        s->first_won = true;
        h.resume();
      });
      abort->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        h.resume();
      });
    }
    bool await_resume() const noexcept { return st ? st->first_won : false; }
  };
  return Awaiter{&e, dt, &abort, nullptr};
}

/// Awaitable: suspend until either trigger fires; returns true if `a`
/// won (or had already fired — `a` wins ready-state ties).
inline auto race_triggers(Trigger& a, Trigger& b) {
  struct Awaiter {
    Trigger* a;
    Trigger* b;
    std::shared_ptr<detail::RaceState> st;

    bool await_ready() const noexcept { return a->fired() || b->fired(); }
    void await_suspend(std::coroutine_handle<> h) {
      st = std::make_shared<detail::RaceState>();
      a->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        s->first_won = true;
        h.resume();
      });
      b->on_fire([s = st, h] {
        if (s->settled) return;
        s->settled = true;
        h.resume();
      });
    }
    bool await_resume() const noexcept {
      return st ? st->first_won : a->fired();
    }
  };
  return Awaiter{&a, &b, nullptr};
}

}  // namespace hpccsim::sim
