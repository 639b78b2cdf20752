#include "sched/batch.hpp"

#include <algorithm>
#include <cmath>

namespace hpccsim::sched {

const char* policy_name(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::FCFS: return "fcfs";
    case SchedulePolicy::EasyBackfill: return "easy-backfill";
  }
  return "?";
}

BatchSimulator::BatchSimulator(mesh::Mesh2D mesh, SchedulePolicy policy)
    : mesh_(mesh), policy_(policy), alloc_(mesh) {}

void BatchSimulator::submit(Job job) {
  HPCCSIM_EXPECTS(job.nodes >= 1 && job.nodes <= mesh_.node_count());
  HPCCSIM_EXPECTS(job.runtime > sim::Time::zero());
  // The request must have at least one factorization that fits the
  // empty mesh, or it could never start (e.g. 517 = 11 x 47 nodes can
  // never be a rectangle on a 33 x 16 machine).
  bool schedulable = false;
  for (const auto& [w, h] : candidate_shapes(job.nodes))
    schedulable = schedulable || (w <= mesh_.width() && h <= mesh_.height()) ||
                  (h <= mesh_.width() && w <= mesh_.height());
  HPCCSIM_EXPECTS(schedulable);
  if (job.estimate < job.runtime) job.estimate = job.runtime;
  jobs_.push_back(std::move(job));
}

bool BatchSimulator::try_start(sim::Engine& engine, std::size_t job_index) {
  Job& job = jobs_[job_index];
  const auto pid = alloc_.allocate_nodes(job.nodes);
  if (!pid) return false;
  job.started = true;
  job.start = engine.now();
  job.finish = job.start + job.runtime;
  job.pid = *pid;
  busy_node_seconds_ += static_cast<double>(job.nodes) *
                        job.runtime.as_sec();
  // The incarnation guard makes the finish event a no-op if a node
  // failure kills this run of the job before it completes.
  engine.schedule_call(
      job.finish,
      [this, &engine, job_index, inc = job.incarnation, p = *pid] {
        Job& j = jobs_[job_index];
        if (j.incarnation != inc) return;  // stale: job was killed
        j.done = true;
        alloc_.release(p);
        schedule_pass(engine);
      });
  return true;
}

void BatchSimulator::inject_failures(std::vector<NodeFailure> failures) {
  for (const NodeFailure& f : failures)
    HPCCSIM_EXPECTS(f.node >= 0 && f.node < mesh_.node_count());
  failures_ = std::move(failures);
}

void BatchSimulator::on_failure(sim::Engine& engine, std::int32_t node) {
  const std::int32_t x = node % mesh_.width();
  const std::int32_t y = node / mesh_.width();
  // Rectangles never overlap, so at most one running job holds the node.
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& j = jobs_[i];
    if (!j.started || j.done) continue;
    const Rect& r = alloc_.rect_of(j.pid);
    if (x < r.x || x >= r.x + r.w || y < r.y || y >= r.y + r.h) continue;

    // Without checkpointing, a single dead node discards the whole
    // partition's progress; the job restarts from scratch.
    const double done_sec = (engine.now() - j.start).as_sec();
    const double left_sec = j.runtime.as_sec() - done_sec;
    busy_node_seconds_ -= static_cast<double>(j.nodes) * left_sec;
    lost_node_seconds_ += static_cast<double>(j.nodes) * done_sec;
    alloc_.release(j.pid);
    ++j.incarnation;  // invalidates the pending finish event
    j.started = false;
    j.pid = -1;
    ++requeued_;
    queue_.jobs.push_front(i);
    schedule_pass(engine);
    return;
  }
}

void BatchSimulator::schedule_pass(sim::Engine& engine) {
  const auto view = [this](std::size_t i) {
    const Job& j = jobs_[i];
    return PassJob{j.started && !j.done, j.start, j.estimate, j.nodes};
  };
  const auto start = [this, &engine](std::size_t i) {
    return try_start(engine, i);
  };
  queue_.schedule_pass(policy_, engine.now(), alloc_, jobs_.size(), view,
                       start);
}

BatchResult BatchSimulator::run() {
  sim::Engine engine;
  // Enqueue arrivals in submit order (stable for equal times).
  std::vector<std::size_t> order(jobs_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](std::size_t a, std::size_t b) {
    return jobs_[a].submit < jobs_[b].submit;
  });
  for (const std::size_t i : order) {
    engine.schedule_call(jobs_[i].submit, [this, &engine, i] {
      queue_.jobs.push_back(i);
      schedule_pass(engine);
    });
  }
  for (const NodeFailure& f : failures_) {
    engine.schedule_call(f.when, [this, &engine, node = f.node] {
      on_failure(engine, node);
    });
  }
  engine.run();

  BatchResult res;
  res.backfilled = queue_.backfilled;
  res.requeued = requeued_;
  res.lost_node_seconds = lost_node_seconds_;
  res.frag_samples = queue_.frag;
  sim::Time makespan = sim::Time::zero();
  for (const Job& j : jobs_) {
    HPCCSIM_ENSURES(j.done);
    makespan = std::max(makespan, j.finish);
    res.wait_minutes.add((j.start - j.submit).as_sec() / 60.0);
  }
  res.makespan = makespan;
  res.utilization =
      makespan == sim::Time::zero()
          ? 0.0
          : busy_node_seconds_ /
                (static_cast<double>(mesh_.node_count()) * makespan.as_sec());
  return res;
}

void export_counters(const BatchResult& result, obs::Registry& registry) {
  registry.counter("sched.backfilled").set(result.backfilled);
  registry.counter("sched.requeued").set(result.requeued);
  registry.counter("sched.jobs")
      .set(static_cast<std::int64_t>(result.wait_minutes.count()));
  registry.counter("sched.makespan.ns")
      .set(static_cast<std::int64_t>(result.makespan.as_ns()));
  registry.set_gauge("sched.utilization", result.utilization);
  registry.set_gauge("sched.wait_minutes.mean", result.wait_minutes.mean());
  registry.set_gauge("sched.lost_node_seconds", result.lost_node_seconds);
}

std::vector<Job> consortium_workload(std::int32_t total_jobs,
                                     std::int32_t machine_nodes,
                                     std::uint64_t seed) {
  HPCCSIM_EXPECTS(total_jobs > 0 && machine_nodes >= 16);
  Rng rng(seed);
  std::vector<Job> jobs;
  jobs.reserve(static_cast<std::size_t>(total_jobs));
  double t_min = 0.0;  // arrivals spread over the day
  for (std::int32_t i = 0; i < total_jobs; ++i) {
    t_min += rng.exponential(1.0 / 6.0);  // one submit every ~6 minutes
    Job j;
    j.submit = sim::Time::sec(t_min * 60.0);
    const double cls = rng.uniform();
    // Jobs request rectangles directly (as Delta users did), so every
    // request is schedulable on an empty machine. The mesh aspect used
    // for shaping is the Delta's (width ~ 2x height).
    const auto mesh_h = static_cast<std::int32_t>(
        std::sqrt(machine_nodes / 2.0));
    const std::int32_t mesh_w = machine_nodes / mesh_h;
    if (cls < 0.10) {
      // Hero run: a half-to-full-height slab, hours long.
      j.name = "hero" + std::to_string(i);
      const auto w = static_cast<std::int32_t>(
          rng.range(mesh_w / 2, mesh_w));
      j.nodes = w * mesh_h;
      j.runtime = sim::Time::sec(rng.uniform(1.0, 3.0) * 3600.0);
    } else if (cls < 0.50) {
      // Production sweep: mid-size rectangle.
      j.name = "prod" + std::to_string(i);
      const auto w = static_cast<std::int32_t>(rng.range(4, 16));
      const auto h = static_cast<std::int32_t>(
          rng.range(4, std::min(8, mesh_h)));
      j.nodes = w * h;
      j.runtime = sim::Time::sec(rng.uniform(20.0, 120.0) * 60.0);
    } else {
      // Debug / development job.
      j.name = "debug" + std::to_string(i);
      j.nodes = static_cast<std::int32_t>(rng.range(1, 4)) *
                static_cast<std::int32_t>(rng.range(1, 4));
      j.runtime = sim::Time::sec(rng.uniform(1.0, 10.0) * 60.0);
    }
    // Users overestimate (classic logs: 2-3x).
    j.estimate = sim::Time::sec(j.runtime.as_sec() * rng.uniform(1.0, 3.0));
    jobs.push_back(std::move(j));
  }
  return jobs;
}

}  // namespace hpccsim::sched
