#include "topo/national.hpp"

#include <cassert>

namespace sharq::topo {

namespace {

// Link parameters per level, top to bottom.
constexpr double kBackboneBps = 155e6;  ///< source -> region
constexpr double kMetroBps = 45e6;      ///< region -> city
constexpr double kAccessBps = 10e6;     ///< city -> suburb -> subscriber
constexpr sim::Time kRegionDelay = 0.025;
constexpr sim::Time kCityDelay = 0.010;
constexpr sim::Time kSuburbDelay = 0.005;
constexpr sim::Time kSubscriberDelay = 0.002;

}  // namespace

National make_national(net::Network& net, const NationalParams& p) {
  assert(net.node_count() == 0 && "national builder needs a fresh network");
  National n;
  n.params = p;
  net::ZoneHierarchy& zones = net.zones();

  n.source = net.add_node();
  n.z_national = zones.add_root();
  zones.assign(n.source, n.z_national);

  for (int r = 0; r < p.regions; ++r) {
    const net::NodeId region = net.add_node();
    n.region_caches.push_back(region);
    net::LinkConfig cfg;
    cfg.bandwidth_bps = kBackboneBps;
    cfg.delay = kRegionDelay;
    net.add_duplex_link(n.source, region, cfg);
    const net::ZoneId zr = zones.add_zone(n.z_national);
    n.z_regions.push_back(zr);
    zones.assign(region, zr);

    for (int c = 0; c < p.cities_per_region; ++c) {
      const net::NodeId city = net.add_node();
      n.city_caches.push_back(city);
      net::LinkConfig ccfg;
      ccfg.bandwidth_bps = kMetroBps;
      ccfg.delay = kCityDelay;
      net.add_duplex_link(region, city, ccfg);
      const net::ZoneId zc = zones.add_zone(zr);
      n.z_cities.push_back(zc);
      zones.assign(city, zc);

      for (int s = 0; s < p.suburbs_per_city; ++s) {
        const net::NodeId hub = net.add_node();
        n.suburb_hubs.push_back(hub);
        net::LinkConfig scfg;
        scfg.bandwidth_bps = kAccessBps;
        scfg.delay = kSuburbDelay;
        net.add_duplex_link(city, hub, scfg);
        const net::ZoneId zs = zones.add_zone(zc);
        n.z_suburbs.push_back(zs);
        zones.assign(hub, zs);

        for (int u = 0; u < p.subscribers_per_suburb; ++u) {
          const net::NodeId sub = net.add_node();
          n.subscribers.push_back(sub);
          net::LinkConfig ucfg;
          ucfg.bandwidth_bps = kAccessBps;
          ucfg.delay = kSubscriberDelay;
          ucfg.loss_rate = p.access_loss;
          net.add_duplex_link(hub, sub, ucfg);
          zones.assign(sub, zs);
        }
      }
    }
  }
  return n;
}

NationalAnalytics analyze_national(const NationalParams& p) {
  NationalAnalytics a;
  const std::int64_t regions = p.regions;
  const std::int64_t cities = regions * p.cities_per_region;
  const std::int64_t suburbs = cities * p.suburbs_per_city;
  const std::int64_t subs = suburbs * p.subscribers_per_suburb;
  // Receivers: one cache per region and per city, plus the subscribers
  // (one of the 500 per suburb doubles as the suburb ZCR) -- the paper's
  // 10 + 200 + 10,000,000 = 10,000,210 receivers.
  a.total_receivers = regions + cities + subs;
  const double n_all = static_cast<double>(a.total_receivers) + 1.0;  // +src

  // Participants per zone at each level: the zone's own direct receivers
  // plus the ZCRs of its child zones (plus the sender at national level).
  const std::int64_t part_national = regions;        // 10 region ZCRs
  const std::int64_t part_region = p.cities_per_region;   // 20 city ZCRs
  const std::int64_t part_city = p.suburbs_per_city;      // 100 suburb ZCRs
  const std::int64_t part_suburb = p.subscribers_per_suburb;

  auto level = [&](const char* name, std::int64_t recv_per_zone,
                   std::int64_t zone_count, std::int64_t recv_total,
                   std::initializer_list<std::int64_t> observable) {
    NationalAnalytics::Level l;
    l.name = name;
    l.receivers_per_zone = recv_per_zone;
    l.zone_count = zone_count;
    l.receivers_total = recv_total;
    std::int64_t rtts = 0;
    double traffic = 0.0;
    for (std::int64_t nz : observable) {
      rtts += nz;
      // sharq-lint: float-accum-ok (iteration order fixed: zone-indexed vector of a static topology)
      traffic += static_cast<double>(nz) * static_cast<double>(nz);
    }
    l.rtts_per_receiver = rtts;
    l.scoped_traffic = traffic;
    l.nonscoped_traffic = n_all * n_all;
    l.scoped_state_ratio = static_cast<double>(rtts) / n_all;
    a.levels.push_back(l);
  };

  // A receiver at a given level observes its own zone plus every ancestor
  // zone's participant set (the paper's "RTTs maintained/receiver" row:
  // 10 / 30 / 130 / 630 for the default parameters).
  level("National", 0, 1, regions, {part_national});
  level("Regional", 1, regions, regions, {part_national, part_region});
  level("City", 1, cities, cities, {part_national, part_region, part_city});
  level("Suburb", p.subscribers_per_suburb, suburbs, subs,
        {part_national, part_region, part_city, part_suburb});
  return a;
}

}  // namespace sharq::topo
