// Thread-local payload pool (see nx/message.hpp).
//
// Records are recycled newest-first (cache-warm), and a record freed by
// one machine is reusable by the next machine on the same thread — the
// pool outlives any single simulation. Determinism note: the
// acquire counters depend only on program behaviour and are safe to
// export per machine (delta-since-construction, NxMachine); the
// heap_allocs/live split depends on what ran earlier on the thread and
// stays debug-only.
#include "nx/message.hpp"

namespace hpccsim::nx::detail {

namespace {

struct Pool {
  std::vector<PayloadRec*> free;
  PayloadPoolStats stats;
  ~Pool() {
    for (PayloadRec* r : free) delete r;
  }
};

Pool& pool() {
  static thread_local Pool tl_pool;
  return tl_pool;
}

}  // namespace

PayloadRec* payload_acquire(bool sized) {
  Pool& p = pool();
  if (sized)
    ++p.stats.sized_acquires;
  else
    ++p.stats.acquires;
  ++p.stats.live;
  PayloadRec* rec;
  if (!p.free.empty()) {
    rec = p.free.back();
    p.free.pop_back();
  } else {
    rec = new PayloadRec;
    ++p.stats.heap_allocs;
  }
  rec->refs = 1;
  return rec;
}

void payload_release(PayloadRec* rec) {
  Pool& p = pool();
  // Keep the vector's capacity for the next value-carrying payload;
  // size-only payloads never touch it.
  rec->values.clear();
  rec->has_values = false;
  rec->count = 0;
  p.free.push_back(rec);
  --p.stats.live;
}

const PayloadPoolStats& payload_pool_stats() { return pool().stats; }

}  // namespace hpccsim::nx::detail
