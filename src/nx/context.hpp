// NxContext: the per-node handle a node program uses to talk to the
// simulated machine — the analogue of Intel's NX library on the Delta
// (csend/crecv and friends), expressed as awaitables.
//
// Node programs are SPMD coroutines:
//
//   sim::Task<> program(nx::NxContext& ctx) {
//     if (ctx.rank() == 0) co_await ctx.send(1, /*tag=*/7, 1024);
//     else { auto m = co_await ctx.recv(0, 7); ... }
//     co_await ctx.compute(proc::Kernel::Gemm, 64, 64, 64);
//   }
#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "core/engine.hpp"
#include "core/task.hpp"
#include "mesh/netmodel.hpp"
#include "nx/mailbox.hpp"
#include "nx/message.hpp"
#include "nx/request.hpp"
#include "nx/skeleton.hpp"
#include "proc/machine.hpp"

namespace hpccsim::nx {

class NxMachine;

/// Statistics one node accumulates (aggregated by NxMachine).
struct NodeStats {
  std::uint64_t sends = 0;
  std::uint64_t recvs = 0;
  Bytes bytes_sent = 0;
  Flops flops_charged = 0;
  sim::Time compute_time;
  sim::Time send_wait;
  sim::Time recv_wait;
};

class NxContext {
 public:
  NxContext(NxMachine& machine, int rank);
  NxContext(const NxContext&) = delete;
  NxContext& operator=(const NxContext&) = delete;

  int rank() const { return rank_; }
  int nodes() const;
  sim::Time now() const { return engine_->now(); }
  sim::Engine& engine() { return *engine_; }
  /// The owning machine (collectives use it for counters and tracing).
  NxMachine& machine() { return *machine_; }

  /// Blocking send (NX csend): returns once the message is handed to the
  /// network; the payload is buffered, so the receiver may consume it
  /// later. Charges the sender the messaging-software overhead.
  sim::Task<> send(int dst, int tag, Bytes bytes, Payload payload = {});

  /// Convenience: send a vector of doubles (size derives the byte count).
  sim::Task<> send_values(int dst, int tag, std::vector<double> values);

  /// Blocking receive (NX crecv): waits for a matching message, then
  /// charges the receive software overhead.
  sim::Task<Message> recv(int src, int tag);

  /// Blocking receive that can be interrupted: resolves to the message,
  /// or to nullopt as soon as `abort` fires. Receive overhead is only
  /// charged on success. Used by the fault-tolerance layer so a crash
  /// elsewhere can unblock a node waiting on a peer that will never
  /// answer.
  sim::Task<std::optional<Message>> recv_abortable(int src, int tag,
                                                   sim::Trigger& abort);

  /// Non-blocking probe (NX iprobe).
  bool probe(int src, int tag);

  /// Non-blocking send (NX isend): returns immediately; the message
  /// departs after the node's message co-processor drains earlier
  /// posted isends plus one send overhead. The request completes at
  /// departure (local buffering semantics).
  Request isend(int dst, int tag, Bytes bytes, Payload payload = {});

  /// Non-blocking receive (NX irecv): posts the receive immediately
  /// (preserving posting order for matching); the request completes
  /// when a matching message has arrived and the receive overhead has
  /// elapsed. The node CPU is not blocked.
  Request irecv(int src, int tag);

  /// Await completion of every request, in order.
  sim::Task<> waitall(std::vector<Request> requests);

  /// Charge compute time for a kernel invocation (and count its flops).
  sim::Task<> compute(proc::Kernel k, std::int64_t m, std::int64_t n = 0,
                      std::int64_t p = 0);

  /// Charge an arbitrary busy interval.
  sim::Task<> busy(sim::Time t);

  const proc::MachineConfig& config() const;
  const NodeStats& stats() const { return stats_; }

  /// Per-(tag-space) collective sequence numbers; see collectives.hpp.
  int next_collective_seq(int tag_space) {
    return collective_seq_[tag_space]++;
  }

  Mailbox& mailbox() { return mailbox_; }

  /// Attach (or detach, with nullptr) a skeleton recorder: every
  /// subsequent send/recv/compute/busy appends one SkelOp. Recording is
  /// observation-only — it never changes engine-visible behaviour —
  /// and ops the replayer cannot model (isend/irecv/probe/waitall/
  /// recv_abortable) invalidate the recording instead of lying.
  void set_skeleton_recorder(SkeletonRecorder* rec) { recorder_ = rec; }
  SkeletonRecorder* skeleton_recorder() const { return recorder_; }
  /// Record a named instant (replayed as "read the clock here").
  void skeleton_mark(std::uint8_t id) {
    if (recorder_)
      recorder_->ops.push_back(SkelOp{SkelOp::MarkTime, id, 0, 0, 0});
  }

 private:
  /// The actual network handoff shared by send/isend: reserves the
  /// route from `depart` and schedules delivery at the destination.
  void launch_message(int dst, int tag, Bytes bytes, Payload payload,
                      sim::Time depart);

  // Cold-path recording helpers (context.cpp).
  void record_send(int dst, int tag, Bytes bytes, const Payload& payload);
  void record_recv(int src, int tag);
  void record_compute(proc::Kernel k, std::int64_t m, std::int64_t n,
                      std::int64_t p);

  NxMachine* machine_;
  int rank_;
  /// The machine's engine, cached so now() stays inline.
  sim::Engine* engine_;
  Mailbox mailbox_;
  NodeStats stats_;
  std::map<int, int> collective_seq_;
  SkeletonRecorder* recorder_ = nullptr;
  /// Message co-processor horizon: when the next isend can start.
  sim::Time send_coproc_free_;
};

}  // namespace hpccsim::nx
