#pragma once

#include <cstdint>
#include <vector>

#include "net/network.hpp"

namespace sharq::topo {

/// Parameters of the hypothetical national distribution hierarchy of
/// Figures 7/8: a 4-level tree of zones with dedicated caching receivers
/// (static ZCRs) at every bifurcation point except the suburb level.
struct NationalParams {
  int regions = 10;
  int cities_per_region = 20;
  int suburbs_per_city = 100;
  int subscribers_per_suburb = 500;
  /// Loss on subscriber access links. Link rates and delays per level are
  /// fixed in national.cpp.
  double access_loss = 0.02;
};

/// A built national hierarchy (only feasible at reduced scale; the
/// analytic helpers below cover the paper's full 10M-receiver numbers).
struct National {
  net::NodeId source = net::kNoNode;
  std::vector<net::NodeId> region_caches;             ///< regional ZCRs
  std::vector<net::NodeId> city_caches;               ///< city ZCRs
  std::vector<net::NodeId> suburb_hubs;               ///< suburb routers
  std::vector<net::NodeId> subscribers;               ///< leaf receivers
  net::ZoneId z_national = net::kNoZone;
  std::vector<net::ZoneId> z_regions;
  std::vector<net::ZoneId> z_cities;
  std::vector<net::ZoneId> z_suburbs;
  NationalParams params;
};

/// Build the hierarchy into `net`. Keep the parameters small when actually
/// simulating (e.g. 2 regions x 3 cities x 4 suburbs x 5 subscribers).
National make_national(net::Network& net, const NationalParams& p);

/// Analytic per-level session figures for Figure 8's table, computed from
/// the scoped session rules (each participant exchanges RTT state with the
/// other participants of every zone it observes).
struct NationalAnalytics {
  struct Level {
    const char* name;
    std::int64_t receivers_per_zone;
    std::int64_t zone_count;
    std::int64_t receivers_total;
    std::int64_t rtts_per_receiver;    ///< scoped state per receiver
    double scoped_traffic;             ///< sum over observable zones of n^2
    double nonscoped_traffic;          ///< (total members)^2
    double scoped_state_ratio;         ///< rtts / nonscoped state
  };
  std::vector<Level> levels;
  std::int64_t total_receivers = 0;
};

NationalAnalytics analyze_national(const NationalParams& p);

}  // namespace sharq::topo
