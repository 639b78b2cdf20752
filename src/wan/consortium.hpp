// The Concurrent Supercomputer Consortium network, as sketched in the
// paper's "Delta Consortium Partners / CSC Network Connections" figure.
#pragma once

#include "wan/wan.hpp"

namespace hpccsim::wan {

/// Builds the consortium topology: the Delta at Caltech, the CASA
/// HIPPI/SONET gigabit testbed, the NSFnet T3 backbone, ESnet, and the
/// partner tail circuits (regional T1 and 56 kbps) named in the figure.
Wan consortium_network();

/// The same topology with NREN-era service levels: 56k and T1 tails
/// become T3, and the T3 backbone becomes HIPPI/SONET-class.
Wan nren_upgraded_network();

/// Site names used by consortium_network(), in a stable order. The first
/// entry ("Caltech-Delta") hosts the Touchstone Delta.
const std::vector<std::string>& consortium_sites();

}  // namespace hpccsim::wan
