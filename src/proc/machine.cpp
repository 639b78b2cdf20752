#include "proc/machine.hpp"

#include <cmath>
#include <stdexcept>

#include "util/assert.hpp"

namespace hpccsim::proc {

MachineConfig MachineConfig::with_nodes(std::int32_t nodes) const {
  HPCCSIM_EXPECTS(nodes > 0);
  MachineConfig out = *this;
  // Near-square factorization keeps the mesh diameter representative.
  std::int32_t w = static_cast<std::int32_t>(std::sqrt(nodes));
  while (w > 1 && nodes % w != 0) --w;
  out.mesh_width = nodes / w;
  out.mesh_height = w;
  out.name = name + "/" + std::to_string(nodes);
  HPCCSIM_ENSURES(out.node_count() == nodes);
  return out;
}

std::int64_t MachineConfig::max_lu_order(double usable_fraction) const {
  HPCCSIM_EXPECTS(usable_fraction > 0.0 && usable_fraction <= 1.0);
  const double usable =
      static_cast<double>(machine_memory()) * usable_fraction;
  return static_cast<std::int64_t>(std::sqrt(usable / 8.0));
}

bool MachineConfig::lu_order_fits(std::int64_t n,
                                  double usable_fraction) const {
  HPCCSIM_EXPECTS(n >= 0);
  return n <= max_lu_order(usable_fraction);
}

MachineConfig touchstone_delta() {
  MachineConfig m;
  m.name = "touchstone-delta";
  // 528 numeric nodes. The physical Delta was a 16-row mesh; 16 x 33
  // covers exactly the numeric-node count the paper quotes.
  m.mesh_width = 33;
  m.mesh_height = 16;
  // i860 XR @ 40 MHz: 60 MFLOPS double-precision peak (dual-operation
  // pipe). 528 x 60.6 MFLOPS = 32 GFLOPS machine peak, matching the
  // paper's "PEAK SPEED OF 32 GFLOPS".
  m.node.peak = mflops(60.6);
  // Hand-coded dgemm on the i860 sustained ~35 MFLOPS (58% of peak);
  // memory-bound vector kernels far less. These land the modeled
  // LINPACK at the paper's 13 GFLOPS around n = 25,000.
  m.node.gemm_efficiency = 0.58;
  m.node.trsm_efficiency = 0.40;
  m.node.panel_efficiency = 0.18;
  m.node.vector_efficiency = 0.22;
  m.node.memory_bw_bytes_per_sec = 64e6;
  m.node.kernel_startup = sim::Time::us(2);
  // Mesh routing chips: ~25 MB/s channels, sub-microsecond per hop.
  m.net.channel_bw = mb_per_s(25.0);
  m.net.per_hop_latency = sim::Time::ns(50);
  m.net.nic_latency = sim::Time::ns(400);
  // NX software overhead dominated small messages (~75 us round).
  m.send_overhead = sim::Time::us(40);
  m.recv_overhead = sim::Time::us(35);
  return m;
}

MachineConfig ipsc860() {
  MachineConfig m = touchstone_delta();
  m.name = "ipsc860";
  m.mesh_width = 16;
  m.mesh_height = 8;  // 128 nodes
  // Same i860 nodes; slower interconnect generation (~2.8 MB/s links)
  // and heavier messaging software.
  m.net.channel_bw = mb_per_s(2.8);
  m.net.per_hop_latency = sim::Time::ns(500);
  m.send_overhead = sim::Time::us(65);
  m.recv_overhead = sim::Time::us(60);
  return m;
}

MachineConfig paragon() {
  MachineConfig m = touchstone_delta();
  m.name = "paragon-xps";
  // 1024 compute nodes on a 2-D mesh (the product shipped 64-4000).
  m.mesh_width = 32;
  m.mesh_height = 32;
  // i860 XP @ 50 MHz: 75 MFLOPS dp peak, double the Delta's memory.
  m.node.peak = mflops(75.0);
  m.node.memory = 32 * MiB;
  m.node.memory_bw_bytes_per_sec = 90e6;
  // Mesh router channels rated 200 MB/s, ~175 MB/s delivered.
  m.net.channel_bw = mb_per_s(175.0);
  m.net.per_hop_latency = sim::Time::ns(40);
  // Early OSF/1 messaging was notoriously heavy; use the post-tuning
  // NX-compatibility figures.
  m.send_overhead = sim::Time::us(30);
  m.recv_overhead = sim::Time::us(25);
  return m;
}

MachineConfig columbia() {
  MachineConfig m = paragon();
  m.name = "columbia";
  // The HPCC program's mid-decade target class: a 0.8-Teraflops QCD
  // machine ("Columbia" lineage) modeled as a 128 x 128 mesh of
  // Paragon-class nodes — 16,384 ranks, 16,384 x 50 MFLOPS sustained
  // order of magnitude. The large-scale preset for modeled runs
  // (fig1_linpack --machine columbia).
  m.mesh_width = 128;
  m.mesh_height = 128;
  return m;
}

MachineConfig i860_node() {
  MachineConfig m = touchstone_delta();
  m.name = "i860-node";
  m.mesh_width = 1;
  m.mesh_height = 1;
  return m;
}

MachineConfig machine_by_name(const std::string& name) {
  if (name == "touchstone-delta" || name == "delta") return touchstone_delta();
  if (name == "ipsc860" || name == "gamma") return ipsc860();
  if (name == "paragon" || name == "paragon-xps") return paragon();
  if (name == "columbia") return columbia();
  if (name == "i860-node" || name == "i860") return i860_node();
  throw std::invalid_argument("unknown machine: " + name);
}

}  // namespace hpccsim::proc
