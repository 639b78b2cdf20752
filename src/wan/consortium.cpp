#include "wan/consortium.hpp"

namespace hpccsim::wan {

const std::vector<std::string>& consortium_sites() {
  // The paper's figure names the network services (NSFnet T1/T3, ESnet
  // T1, CASA HIPPI/SONET, regional T1 and 56 kbps tails) and the anchor
  // organisations (Caltech lead, JPL, DARPA, NASA, NSF, CRPC at Rice);
  // the remaining partners are the consortium's national labs and
  // agencies ("over 14 government, industry and academia organizations").
  static const std::vector<std::string> kSites = {
      "Caltech-Delta",   // 0: the machine room
      "JPL",             // 1: CASA partner
      "Los-Alamos",      // 2: CASA partner
      "SDSC",            // 3: CASA partner
      "NSFnet-West",     // 4: backbone node
      "NSFnet-Central",  // 5: backbone node
      "NSFnet-East",     // 6: backbone node
      "CRPC-Rice",       // 7: Center for Research on Parallel Computation
      "Argonne",         // 8: DOE lab (ESnet)
      "ESnet-Hub",       // 9: DOE network hub
      "DARPA",           // 10
      "NASA-Ames",       // 11
      "NSF",             // 12
      "Purdue",          // 13: university partner, regional T1
      "Delaware",        // 14: university partner, 56 kbps tail
      "Michigan",        // 15: university partner, regional T1
  };
  return kSites;
}

Wan consortium_network() {
  Wan w;
  for (const auto& name : consortium_sites()) w.add_site(name);
  const auto id = [&](const char* n) { return w.site_by_name(n); };

  // CASA gigabit testbed: HIPPI/SONET (800 Mbit/s) channels out of the
  // Delta machine room. Short-haul, low propagation.
  w.add_link(id("Caltech-Delta"), id("JPL"), LinkType::HippiSonet,
             sim::Time::ms(1));
  w.add_link(id("Caltech-Delta"), id("Los-Alamos"), LinkType::HippiSonet,
             sim::Time::ms(6));
  w.add_link(id("Caltech-Delta"), id("SDSC"), LinkType::HippiSonet,
             sim::Time::ms(2));

  // NSFnet T3 backbone (45 Mbit/s), west-central-east.
  w.add_link(id("Caltech-Delta"), id("NSFnet-West"), LinkType::T3,
             sim::Time::ms(3));
  w.add_link(id("NSFnet-West"), id("NSFnet-Central"), LinkType::T3,
             sim::Time::ms(12));
  w.add_link(id("NSFnet-Central"), id("NSFnet-East"), LinkType::T3,
             sim::Time::ms(10));

  // NSFnet T1 attachments (1.5 Mbit/s).
  w.add_link(id("CRPC-Rice"), id("NSFnet-Central"), LinkType::T1,
             sim::Time::ms(6));
  w.add_link(id("NSF"), id("NSFnet-East"), LinkType::T1, sim::Time::ms(4));
  w.add_link(id("DARPA"), id("NSFnet-East"), LinkType::T1, sim::Time::ms(4));

  // ESnet: DOE labs reach the Delta over an ESnet T1.
  w.add_link(id("ESnet-Hub"), id("NSFnet-West"), LinkType::T1,
             sim::Time::ms(5));
  w.add_link(id("Argonne"), id("ESnet-Hub"), LinkType::T1, sim::Time::ms(9));
  w.add_link(id("Los-Alamos"), id("ESnet-Hub"), LinkType::T1,
             sim::Time::ms(7));

  // NASA centres.
  w.add_link(id("NASA-Ames"), id("NSFnet-West"), LinkType::T1,
             sim::Time::ms(3));
  w.add_link(id("NASA-Ames"), id("JPL"), LinkType::T1, sim::Time::ms(3));

  // Regional university tails.
  w.add_link(id("Purdue"), id("NSFnet-Central"), LinkType::T1,
             sim::Time::ms(5));
  w.add_link(id("Michigan"), id("NSFnet-Central"), LinkType::T1,
             sim::Time::ms(5));
  w.add_link(id("Delaware"), id("NSFnet-East"), LinkType::Regional56k,
             sim::Time::ms(6));

  return w;
}

Wan nren_upgraded_network() {
  const Wan base = consortium_network();
  Wan up;
  for (const auto& name : consortium_sites()) up.add_site(name);
  for (const auto& l : base.links()) {
    LinkType t = l.type;
    if (t == LinkType::Regional56k || t == LinkType::T1) t = LinkType::T3;
    else if (t == LinkType::T3) t = LinkType::HippiSonet;
    up.add_link(l.a, l.b, t, l.propagation);
  }
  return up;
}

}  // namespace hpccsim::wan
