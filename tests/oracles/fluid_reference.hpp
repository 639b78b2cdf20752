// Reference fluid model: the original full-recompute max-min loop, kept
// as the slow-but-obviously-correct oracle that tests cross-check
// wan::FlowEngine (and so wan::simulate_flows) against. It is linked
// only by the test binaries.
//
// run_reference() re-rates every active flow at every arrival and
// completion — O(flows × links) per event — so keep scenarios small.
#pragma once

#include <cstddef>
#include <vector>

#include "wan/model.hpp"
#include "wan/wan.hpp"

namespace hpccsim::wan::oracle {

class FluidReference {
 public:
  /// Route every request on its widest path. Throws
  /// std::invalid_argument if a request's endpoints are disconnected,
  /// and ContractError on zero bytes or src == dst.
  FluidReference(const Wan& wan, std::vector<TransferRequest> flows);

  /// Max-min fair rates (bytes/s per flow) for a hypothetical set of
  /// simultaneously active flows (indices into the request list).
  ///
  /// Tie-break contract: when several links offer the same smallest
  /// fair share, the lowest-indexed link (registration order in
  /// Wan::add_link) is frozen first. The max-min *allocation* is
  /// unique regardless, but the pinned order fixes the floating-point
  /// evaluation sequence, so rates are bit-stable across runs and
  /// match FlowEngine's restricted water-fill exactly. If
  /// `bottleneck_order` is non-null it receives the link indices in
  /// the order they were frozen.
  std::vector<double> fair_rates(
      const std::vector<std::size_t>& active,
      std::vector<std::size_t>* bottleneck_order = nullptr) const;

  /// Run every flow to completion; outcomes are positional, like
  /// wan::simulate_flows.
  std::vector<TransferOutcome> run_reference() const;

 private:
  TransferOutcome finished(std::size_t f, sim::Time finish) const;

  const Wan* wan_;
  std::vector<TransferRequest> flows_;
  std::vector<std::vector<std::size_t>> routes_;  // link indices per flow
};

}  // namespace hpccsim::wan::oracle
