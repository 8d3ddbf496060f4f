// Per-member session peer state: the one-block arena every level's RTT and
// bridge entries live in, checked against a reference model, and the
// entry counts a member settles on, checked against the paper's §5 state
// analysis (Figure 8) on the national hierarchy and on a regular deep tree.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <vector>

#include "sharqfec/peer_arena.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/profiler.hpp"
#include "topo/national.hpp"
#include "topo/shapes.hpp"

namespace sharq::sfq {
namespace {

// --- PeerArena against two std::maps per level ------------------------------

struct RttPart {
  double rtt, last_ts, heard_at;
};
/// The layout PeerArena replaces: an ordered RTT table and an ordered
/// bridge table per level.
struct RefLevel {
  std::map<net::NodeId, RttPart> rtt;
  std::map<net::NodeId, double> bridge;
};

void expect_same(const PeerArena& a, const PeerRun& run, const RefLevel& ref) {
  std::vector<std::pair<net::NodeId, RttPart>> rtt;
  std::vector<std::pair<net::NodeId, double>> bridge;
  net::NodeId prev = -1;
  for (std::size_t i = run.off; i < run.off + run.len; ++i) {
    ASSERT_LT(prev, a.id(i)) << "run not sorted by id";
    prev = a.id(i);
    const bool has_rtt = PeerArena::present(a.at(PeerArena::kRtt, i));
    const bool has_bridge = PeerArena::present(a.at(PeerArena::kBridge, i));
    ASSERT_TRUE(has_rtt || has_bridge) << "entry " << a.id(i) << " is empty";
    ASSERT_EQ(has_rtt, PeerArena::present(a.at(PeerArena::kHeardAt, i)));
    if (has_rtt) {
      rtt.push_back({a.id(i),
                     {a.at(PeerArena::kRtt, i), a.at(PeerArena::kLastTs, i),
                      a.at(PeerArena::kHeardAt, i)}});
    }
    if (has_bridge) bridge.push_back({a.id(i), a.at(PeerArena::kBridge, i)});
  }
  // In-order iteration of each part walks exactly the reference's keys.
  ASSERT_EQ(rtt.size(), ref.rtt.size());
  auto it = ref.rtt.begin();
  for (const auto& [id, p] : rtt) {
    EXPECT_EQ(id, it->first);
    EXPECT_EQ(p.rtt, it->second.rtt);
    EXPECT_EQ(p.last_ts, it->second.last_ts);
    EXPECT_EQ(p.heard_at, it->second.heard_at);
    ++it;
  }
  ASSERT_EQ(bridge,
            (std::vector<std::pair<net::NodeId, double>>(ref.bridge.begin(),
                                                         ref.bridge.end())));
  EXPECT_EQ(a.count(run, PeerArena::kRtt), ref.rtt.size());
  EXPECT_EQ(a.count(run, PeerArena::kBridge), ref.bridge.size());
}

TEST(PeerArena, MatchesTwoOrderedMapsPerLevel) {
  constexpr int kLevels = 4;
  constexpr double kMaxAge = 5.0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sim::Rng rng(seed);
    PeerArena arena;
    std::vector<PeerRun> runs;
    std::vector<RefLevel> ref(kLevels);
    // Small first-use capacities, so every level outgrows its run.
    const std::size_t first[kLevels] = {1, 2, 3, 4};
    arena.reserve(1 + 2 + 3 + 4);
    for (std::size_t c : first) runs.push_back(arena.add_run(c));
    double now = 0.0;
    for (int step = 0; step < 3000; ++step) {
      const int l = static_cast<int>(rng.uniform_int(0, kLevels - 1));
      PeerRun& run = runs[static_cast<std::size_t>(l)];
      RefLevel& r = ref[static_cast<std::size_t>(l)];
      const auto peer = static_cast<net::NodeId>(rng.uniform_int(0, 40));
      const std::int64_t op = rng.uniform_int(0, 9);
      now += rng.uniform(0.0, 0.05);
      if (op < 4) {  // a session message heard from `peer`
        const std::size_t i = arena.insert(run, peer);
        if (!PeerArena::present(arena.at(PeerArena::kRtt, i))) {
          arena.at(PeerArena::kRtt, i) = -1.0;
          r.rtt[peer].rtt = -1.0;
        }
        arena.at(PeerArena::kLastTs, i) = now - 0.01;
        arena.at(PeerArena::kHeardAt, i) = now;
        r.rtt[peer].last_ts = now - 0.01;
        r.rtt[peer].heard_at = now;
        if (rng.bernoulli(0.5)) {
          const double rtt = rng.uniform(0.001, 0.2);
          arena.at(PeerArena::kRtt, i) = rtt;
          r.rtt[peer].rtt = rtt;
        }
      } else if (op < 8) {  // the bridge ZCR announces its RTT to `peer`
        const double rtt = rng.uniform(0.0, 0.2);
        arena.at(PeerArena::kBridge, arena.insert(run, peer)) = rtt;
        r.bridge[peer] = rtt;
      } else if (op < 9) {  // expiry: both parts go, bridge-only keys stay
        std::size_t want = 0;
        for (auto it = r.rtt.begin(); it != r.rtt.end();) {
          if (now - it->second.heard_at > kMaxAge) {
            r.bridge.erase(it->first);
            it = r.rtt.erase(it);
            ++want;
          } else {
            ++it;
          }
        }
        EXPECT_EQ(arena.expire(run, now, kMaxAge), want);
      } else {  // lookups
        const auto rit = r.rtt.find(peer);
        EXPECT_EQ(arena.value(run, peer, PeerArena::kRtt),
                  rit == r.rtt.end() ? -1.0 : rit->second.rtt);
        const auto bit = r.bridge.find(peer);
        EXPECT_EQ(arena.value(run, peer, PeerArena::kBridge),
                  bit == r.bridge.end() ? -1.0 : bit->second);
        EXPECT_EQ(arena.find(run, peer) == PeerArena::kNone,
                  rit == r.rtt.end() && bit == r.bridge.end());
      }
      // Every level, not only the touched one: a growing run must leave
      // the others where they were.
      for (int k = 0; k < kLevels; ++k) {
        expect_same(arena, runs[static_cast<std::size_t>(k)],
                    ref[static_cast<std::size_t>(k)]);
        if (HasFatalFailure()) return;
      }
    }
    for (int k = 0; k < kLevels; ++k) {
      EXPECT_GT(runs[static_cast<std::size_t>(k)].cap,
                first[static_cast<std::size_t>(k)])
          << "seed " << seed << ": level " << k << " never grew";
    }
  }
}

TEST(PeerArena, ExpiryErasesBothPartsAndKeepsBridgeOnlyKeys) {
  PeerArena arena;
  PeerRun run = arena.add_run(4);
  EXPECT_EQ(arena.block_bytes(), 4 * PeerArena::kEntryBytes);
  for (net::NodeId p : {7, 3, 5}) {
    const std::size_t i = arena.insert(run, p);
    arena.at(PeerArena::kRtt, i) = 0.01 * p;
    arena.at(PeerArena::kLastTs, i) = 0.0;
    arena.at(PeerArena::kHeardAt, i) = p == 5 ? 9.0 : 1.0;
  }
  arena.at(PeerArena::kBridge, arena.insert(run, 3)) = 0.5;  // both parts
  arena.at(PeerArena::kBridge, arena.insert(run, 4)) = 0.6;  // bridge only
  EXPECT_EQ(run.len, 4u);
  EXPECT_EQ(arena.expire(run, 10.0, 5.0), 2u);  // 3 and 7: silent
  ASSERT_EQ(run.len, 2u);
  EXPECT_EQ(arena.id(run.off), 4);
  EXPECT_EQ(arena.id(run.off + 1), 5);
  EXPECT_EQ(arena.value(run, 3, PeerArena::kBridge), -1.0);
  EXPECT_EQ(arena.value(run, 4, PeerArena::kBridge), 0.6);
  EXPECT_EQ(arena.value(run, 4, PeerArena::kRtt), -1.0);
  // A fifth distinct key overflows the run: it moves to the end of the
  // block with twice the room.
  for (net::NodeId p : {1, 2, 6}) {
    arena.at(PeerArena::kBridge, arena.insert(run, p)) = 0.1;
  }
  EXPECT_EQ(run.len, 5u);
  EXPECT_EQ(run.off, 4u);
  EXPECT_EQ(run.cap, 8u);
  EXPECT_EQ(arena.block_bytes(), 12 * PeerArena::kEntryBytes);
}

// A run's length and capacity are 16-bit: past kMaxRun entries the arena
// refuses rather than wrap.
TEST(PeerArena, RunsStopAtTheirSixteenBitLimit) {
  PeerArena arena;
  EXPECT_THROW(arena.add_run(PeerArena::kMaxRun + 1), std::length_error);
  PeerRun run = arena.add_run(40000);
  for (std::size_t p = 0; p < PeerArena::kMaxRun; ++p) {
    arena.at(PeerArena::kBridge,
             arena.insert(run, static_cast<net::NodeId>(p))) = 0.0;
  }
  EXPECT_EQ(run.len, PeerArena::kMaxRun);
  EXPECT_EQ(run.cap, PeerArena::kMaxRun);  // grown from 40,000, capped
  EXPECT_EQ(arena.find(run, 0), run.off);
  EXPECT_THROW(arena.insert(run, -1), std::length_error);
  EXPECT_EQ(run.len, PeerArena::kMaxRun);
}

// --- Entry counts against the §5 state analysis -----------------------------

/// Static ZCRs everywhere; for each member and each level of its chain,
/// the entries it must hold once every participant has been heard and
/// every bridge RTT measured. `participants(z)` is zone z's session
/// participant count: its own members plus one ZCR per child zone. A
/// member hears every participant but itself; the bridge of a level
/// reports its RTT to every participant but itself, the member included.
template <class Participants>
void expect_entry_counts(Session& s, const std::vector<net::NodeId>& members,
                         const std::map<net::ZoneId, net::NodeId>& heads,
                         Participants participants) {
  std::uint64_t block_bytes = 0;
  for (net::NodeId m : members) {
    const SessionManager& sm = s.agent_for(m).session();
    const auto chain = sm.chain();
    std::size_t entries = 0;
    for (std::size_t l = 0; l < chain.size(); ++l) {
      const std::size_t n = participants(chain[l]);
      const net::NodeId own = heads.at(chain[l]);
      const net::NodeId below = l == 0 ? own : heads.at(chain[l - 1]);
      const bool takes_part = l == 0 || below == m || own == m;
      const net::NodeId bridge = below;
      SCOPED_TRACE(testing::Message() << "member " << m << " level " << l);
      EXPECT_EQ(sm.peer_entries(static_cast<int>(l), PeerArena::kRtt),
                n - (takes_part ? 1 : 0));
      EXPECT_EQ(sm.peer_entries(static_cast<int>(l), PeerArena::kBridge),
                bridge == m ? 0 : n - 1);
      entries += n;
    }
    // One block per member, one entry per participant of every level.
    block_bytes += stats::heap_block_bytes(entries * PeerArena::kEntryBytes);
  }
  stats::MemCensus census;
  s.memory_census(census);
  EXPECT_EQ(census.categories["peer_tables"].peak_bytes, block_bytes);
}

// Figure 8's hierarchy at the scale fig08_state_reduction simulates. The
// analysis counts a zone's participants without its head (the source or
// the zone's cache), which the simulated zone also holds.
TEST(PeerState, NationalEntryCountsMatchFigure8Analysis) {
  topo::NationalParams p;
  p.regions = 2;
  p.cities_per_region = 3;
  p.suburbs_per_city = 2;
  p.subscribers_per_suburb = 4;
  const topo::NationalAnalytics a = topo::analyze_national(p);
  ASSERT_EQ(a.levels.size(), 4u);
  sim::Simulator simu(7);
  net::Network net(simu);
  const topo::National n = topo::make_national(net, p);
  std::vector<net::NodeId> receivers;
  for (auto v : {&n.region_caches, &n.city_caches, &n.suburb_hubs,
                 &n.subscribers}) {
    receivers.insert(receivers.end(), v->begin(), v->end());
  }
  std::map<net::ZoneId, net::NodeId> heads{{n.z_national, n.source}};
  Config cfg;
  auto head = [&](const std::vector<net::ZoneId>& zones,
                  const std::vector<net::NodeId>& nodes) {
    for (std::size_t i = 0; i < zones.size(); ++i) {
      heads[zones[i]] = nodes[i];
      cfg.static_zcrs[zones[i]] = nodes[i];
    }
  };
  head(n.z_regions, n.region_caches);
  head(n.z_cities, n.city_caches);
  head(n.z_suburbs, n.suburb_hubs);
  Session s(net, n.source, receivers, cfg);
  s.start();
  simu.run_until(30.0);

  auto participants = [&](net::ZoneId z) {
    // Per-level analysis figures are cumulative down the hierarchy.
    const auto d = static_cast<std::size_t>(net.zones().level(z));
    const std::int64_t own = a.levels[d].rtts_per_receiver -
                             (d > 0 ? a.levels[d - 1].rtts_per_receiver : 0);
    return static_cast<std::size_t>(own) + 1;  // + the zone's head
  };
  std::vector<net::NodeId> members = receivers;
  members.push_back(n.source);
  expect_entry_counts(s, members, heads, participants);
}

// A d2_f4 tree with static ZCRs: a hub's zone holds the hub and its
// children (fanout hubs, or leaves_per_hub leaves at the deepest level);
// the root holds the source and the top hubs.
TEST(PeerState, DeepTreeEntryCountsMatchZoneSizes) {
  topo::DeepTreeParams p;
  p.zone_depth = 2;
  p.fanout = 4;
  p.leaves_per_hub = 8;
  sim::Simulator simu(3);
  net::Network net(simu);
  const topo::DeepTree t = topo::make_deep_tree(net, p);
  Config cfg;
  std::map<net::ZoneId, net::NodeId> heads{{t.root_zone, t.source}};
  for (const auto& [zone, hub] : t.zone_hubs) {
    cfg.static_zcrs[zone] = hub;
    heads[zone] = hub;
  }
  Session s(net, t.source, t.receivers, cfg);
  s.start();
  simu.run_until(30.0);

  auto participants = [&](net::ZoneId z) {
    const int d = net.zones().level(z);
    return static_cast<std::size_t>(1 + (d < p.zone_depth ? p.fanout
                                                          : p.leaves_per_hub));
  };
  std::vector<net::NodeId> members = t.receivers;
  members.push_back(t.source);
  expect_entry_counts(s, members, heads, participants);
}

}  // namespace
}  // namespace sharq::sfq
