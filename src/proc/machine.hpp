// Machine configurations: the DARPA Touchstone series the paper cites.
//
// A MachineConfig bundles a mesh shape, a node compute model, network
// parameters, and messaging-software overheads. The numbers for the
// Touchstone Delta preset are calibrated so the machine reproduces the
// figures quoted in the paper:
//   - "PEAK SPEED OF 32 GFLOPS USING THE 528 NUMERIC PROCESSORS"
//   - "13 GFLOPS SPEED OBTAINED ON A LINPAC BENCHMARK CODE OF ORDER
//      25,000 BY 25,000"
#pragma once

#include <string>

#include "core/time.hpp"
#include "mesh/analytical.hpp"
#include "mesh/topology.hpp"
#include "proc/kernel_model.hpp"
#include "util/units.hpp"

namespace hpccsim::proc {

struct MachineConfig {
  std::string name;
  std::int32_t mesh_width = 1;
  std::int32_t mesh_height = 1;
  NodeModel node;
  mesh::AnalyticalParams net;
  /// Messaging software overhead per send / per receive (NX library +
  /// kernel trap); dominates small-message latency on real machines.
  sim::Time send_overhead = sim::Time::us(40);
  sim::Time recv_overhead = sim::Time::us(35);

  std::int32_t node_count() const { return mesh_width * mesh_height; }
  FlopsPerSecond machine_peak() const {
    return FlopsPerSecond{node.peak.flops_per_sec() *
                          static_cast<double>(node_count())};
  }
  Bytes machine_memory() const {
    return node.memory * static_cast<Bytes>(node_count());
  }
  mesh::Mesh2D mesh() const { return {mesh_width, mesh_height}; }

  /// Largest LINPACK order whose matrix fits in the machine, leaving
  /// `usable_fraction` of memory for the application (OS, buffers, and
  /// the solver's panels take the rest). The Delta's published order
  /// 25,000 is exactly this bound: 25000^2 x 8 B = 5 GB against
  /// 528 x 16 MiB = 8.25 GiB at ~56% usable.
  std::int64_t max_lu_order(double usable_fraction = 0.60) const;

  /// Does an n x n double matrix (block-cyclic) fit under the fraction?
  bool lu_order_fits(std::int64_t n, double usable_fraction = 0.60) const;

  /// Shrink to the first `nodes` nodes (keeps row width, trims rows; for
  /// scaling studies). Requires nodes to be a multiple of mesh_width or
  /// smaller than one row.
  MachineConfig with_nodes(std::int32_t nodes) const;
};

/// The Intel Touchstone Delta: 528 i860 numeric nodes on a 2-D mesh.
MachineConfig touchstone_delta();

/// The iPSC/860 "Gamma": 128 i860 nodes, earlier Touchstone step, slower
/// interconnect (hypercube approximated here as a mesh).
MachineConfig ipsc860();

/// The Paragon XP/S — the Delta's productized successor ("one of a
/// series of DARPA developed massively parallel computers"): i860 XP
/// nodes at 75 MFLOPS, 32 MiB/node, 175 MB/s mesh channels. Configured
/// here at 1024 nodes.
MachineConfig paragon();

/// A 0.8-Teraflops-class QCD machine of the program's mid-decade
/// roadmap ("Columbia" lineage): 128 x 128 mesh of Paragon-class nodes
/// (16,384 ranks). Reachable as fig1_linpack --machine columbia.
MachineConfig columbia();

/// A single-node i860 workstation (for local-kernel experiments).
MachineConfig i860_node();

MachineConfig machine_by_name(const std::string& name);

}  // namespace hpccsim::proc
