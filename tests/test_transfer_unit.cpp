#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <set>

#include "rm/delivery_log.hpp"
#include "sharqfec/ewma.hpp"
#include "sharqfec/protocol.hpp"
#include "sim/simulator.hpp"
#include "topo/figure10.hpp"
#include "topo/shapes.hpp"

#include "lane_store_check.hpp"

namespace sharq::sfq {
namespace {

// --- shared EWMA helper (regression: the arrival-gap slot used to be read
// with `> 0.0` while the update path seeded on `< 0.0`, so a slot seeded
// with a legitimate 0.0 sample read back as "unset") --------------------------

TEST(Ewma, UnsetSentinelReadsAsUnseeded) {
  double slot = kEwmaUnset;
  EXPECT_FALSE(ewma_seeded(slot));
}

TEST(Ewma, FirstSampleSeedsVerbatim) {
  // The first sample must not be blended with the -1.0 sentinel.
  double slot = kEwmaUnset;
  ewma_update(slot, 0.5, 0.1);
  EXPECT_DOUBLE_EQ(slot, 0.5);
  EXPECT_TRUE(ewma_seeded(slot));
}

TEST(Ewma, ZeroSampleCountsAsSeeded) {
  double slot = kEwmaUnset;
  ewma_update(slot, 0.0, 0.1);
  EXPECT_DOUBLE_EQ(slot, 0.0);
  EXPECT_TRUE(ewma_seeded(slot));
}

TEST(Ewma, NegativeSampleIgnored) {
  double slot = kEwmaUnset;
  ewma_update(slot, -3.0, 0.1);
  EXPECT_FALSE(ewma_seeded(slot));
  ewma_update(slot, 1.0, 0.1);
  ewma_update(slot, -3.0, 0.1);
  EXPECT_DOUBLE_EQ(slot, 1.0);
}

TEST(Ewma, LaterSamplesBlendWithGain) {
  double slot = kEwmaUnset;
  ewma_update(slot, 1.0, 0.25);
  ewma_update(slot, 2.0, 0.25);
  EXPECT_DOUBLE_EQ(slot, 0.75 * 1.0 + 0.25 * 2.0);
}

/// A two-zone fixture small enough to reason about exactly:
/// source -- relay -- {a, b}; zone = {relay, a, b}.
struct TwoZone {
  sim::Simulator simu{11};
  net::Network net{simu};
  net::NodeId source, relay, a, b;
  net::ZoneId root, zone;

  explicit TwoZone(double upstream_loss = 0.0, double leaf_loss = 0.0) {
    source = net.add_node();
    relay = net.add_node();
    a = net.add_node();
    b = net.add_node();
    net::LinkConfig up;
    up.delay = 0.020;
    up.loss_rate = upstream_loss;
    net.add_duplex_link(source, relay, up);
    net::LinkConfig down;
    down.delay = 0.010;
    down.loss_rate = leaf_loss;
    net.add_duplex_link(relay, a, down);
    net.add_duplex_link(relay, b, down);
    root = net.zones().add_root();
    zone = net.zones().add_zone(root);
    net.zones().assign(source, root);
    net.zones().assign(relay, zone);
    net.zones().assign(a, zone);
    net.zones().assign(b, zone);
  }
};

TEST(TransferUnit, LosslessStreamNeverNacksOrRepairs) {
  TwoZone f;
  rm::DeliveryLog log;
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg, &log);
  s.start();
  s.send_stream(6, 6.0);
  f.simu.run_until(25.0);
  for (auto& agent : s.agents()) {
    EXPECT_EQ(agent->transfer().nacks_sent(), 0u);
    EXPECT_EQ(agent->transfer().repairs_sent(), 0u);
  }
  EXPECT_TRUE(s.all_complete(6));
}

TEST(TransferUnit, ArrivalEwmaSeedsToFirstGapExactly) {
  // Lossless fixed-delay links deliver the paced stream with a constant
  // inter-arrival gap equal to the packet serialization interval, so the
  // EWMA — seeded verbatim on the first gap, then fed identical samples —
  // must sit exactly on that interval, not on a sentinel-contaminated
  // blend.
  TwoZone f;
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(3, 6.0);
  f.simu.run_until(25.0);
  const double interval =
      static_cast<double>(cfg.shard_size_bytes) * 8.0 / cfg.data_rate_bps;
  for (net::NodeId n : {f.relay, f.a, f.b}) {
    EXPECT_TRUE(ewma_seeded(s.agent_for(n).transfer().arrival_ewma()));
    EXPECT_NEAR(s.agent_for(n).transfer().arrival_ewma(), interval, 1e-9);
  }
  // The source never receives data, so its slot stays unseeded.
  EXPECT_FALSE(ewma_seeded(s.source_agent().transfer().arrival_ewma()));
}

TEST(TransferUnit, GroupsCompletedCount) {
  TwoZone f;
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(5, 6.0);
  f.simu.run_until(25.0);
  EXPECT_EQ(s.agent_for(f.a).transfer().groups_completed(), 5u);
  EXPECT_EQ(s.agent_for(f.a).transfer().max_group_seen(), 4u);
  EXPECT_TRUE(s.agent_for(f.a).transfer().seen_any_data());
}

// A data message may announce the stream length, but a forged total must
// not widen the window of acceptable group ids: one message claiming
// 2^32 - 1 groups, then a NACK naming group 2^31, would otherwise make the
// engine size its per-group arrays for 2^31 groups. The announced total is
// trusted only up to the jump bound past the stream head, so the NACK is
// rejected as malformed and per-group state stays at the stream's size.
TEST(TransferUnit, ForgedGroupTotalCannotWidenGroupIdWindow) {
  TwoZone f;
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  constexpr std::uint32_t kGroups = 4;
  s.send_stream(kGroups, 6.0);
  f.simu.run_until(25.0);
  ASSERT_TRUE(s.all_complete(kGroups));
  TransferEngine& e = s.agent_for(f.a).transfer();
  auto groups_census = [&e] {
    stats::MemCensus census;
    e.memory_census(census);
    return census.categories["transfer_groups"].live_bytes;
  };
  const std::uint64_t census_before = groups_census();
  const std::uint64_t rejects_before = e.malformed_rejects();
  std::uint64_t uid = 1ull << 60;  // far from any uid the network issued
  auto deliver = [&](net::TrafficClass cls,
                     std::shared_ptr<const net::MessageBase> msg) {
    net::Packet p;
    p.uid = uid++;
    p.origin = f.source;
    p.cls = cls;
    p.msg = std::move(msg);
    EXPECT_TRUE(e.handle(p));
  };

  // Well-formed in every field but the announced total: a copy of group
  // 0's first shard, which the receiver already holds.
  auto data = std::make_shared<DataMsg>();
  data->group = 0;
  data->index = 0;
  data->k = cfg.group_size;
  data->initial_shards = cfg.group_size;
  data->groups_total = 0xffffffffu;
  deliver(net::TrafficClass::kData, data);
  EXPECT_EQ(e.malformed_rejects(), rejects_before);

  auto nack = std::make_shared<NackMsg>();
  nack->group = 1u << 31;
  nack->zone = f.zone;
  nack->llc = 1;
  nack->needed = 1;
  nack->sender = f.b;
  deliver(net::TrafficClass::kNack, nack);
  EXPECT_EQ(e.malformed_rejects(), rejects_before + 1);
  EXPECT_EQ(e.tracked_group_count(), kGroups);
  EXPECT_EQ(groups_census(), census_before);
}

// A shard's bytes are held once per lane under (group, index), and the
// first buffer held for a key is the one the whole lane decodes and
// repairs from. So a real-payload engine rejects data and repair messages
// whose bytes are missing or not a whole shard before they reach a
// decoder, and a size-only engine rejects bytes it would never store: a
// decoder holds every shard's bytes or none. Forged copies of shards the
// receiver has not yet heard are rejected, and the stream that follows
// still decodes to the source's bytes.
TEST(TransferUnit, ShardBytesThatAreNotAWholeShardAreRejected) {
  constexpr std::uint32_t kGroups = 2;
  auto forge = [](TransferEngine& e, net::NodeId origin, const Config& cfg,
                  const fec::ShardBuffer& bytes) {
    std::uint64_t uid = 1ull << 60;  // far from any uid the network issued
    auto deliver = [&](net::TrafficClass cls,
                       std::shared_ptr<const net::MessageBase> msg) {
      net::Packet p;
      p.uid = uid++;
      p.origin = origin;
      p.cls = cls;
      p.msg = std::move(msg);
      EXPECT_TRUE(e.handle(p));
    };
    const std::uint64_t rejects_before = e.malformed_rejects();
    auto data = std::make_shared<DataMsg>();
    data->index = 0;
    data->k = cfg.group_size;
    data->initial_shards = cfg.group_size;
    data->bytes = bytes;
    deliver(net::TrafficClass::kData, data);
    auto repair = std::make_shared<RepairMsg>();
    repair->index = cfg.group_size;
    repair->k = cfg.group_size;
    repair->new_max_id = cfg.group_size;
    repair->bytes = bytes;
    deliver(net::TrafficClass::kRepair, repair);
    EXPECT_EQ(e.malformed_rejects(), rejects_before + 2);
    EXPECT_EQ(e.tracked_group_count(), 0u) << "a forged shard was tracked";
  };

  Config cfg;
  cfg.real_payload = true;
  const std::size_t shard = static_cast<std::size_t>(cfg.shard_size_bytes);
  std::vector<std::uint8_t> payload(kGroups * cfg.group_size * shard);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 11 + (i >> 8));
  }
  TwoZone f;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(kGroups, 6.0, payload);
  f.simu.run_until(1.0);
  TransferEngine& a = s.agent_for(f.a).transfer();
  forge(a, f.source, cfg,
        std::make_shared<const std::vector<std::uint8_t>>(shard - 1, 0xee));
  forge(a, f.source, cfg,
        std::make_shared<const std::vector<std::uint8_t>>(shard + 1, 0xee));
  forge(a, f.source, cfg, nullptr);
  // The lane holds the source's originals, sent at 6 s, and nothing else.
  EXPECT_EQ(s.stores().front().size(), std::size_t{kGroups} * cfg.group_size)
      << "a forged buffer was stored";
  const fec::ShardBuffer* first = s.stores().front().find(0, 0);
  ASSERT_NE(first, nullptr);
  EXPECT_TRUE(std::equal((*first)->begin(), (*first)->end(), payload.begin()));
  f.simu.run_until(25.0);
  ASSERT_TRUE(s.all_complete(kGroups));
  for (std::uint32_t g = 0; g < kGroups; ++g) {
    const auto bytes = a.reconstructed(g);
    const std::size_t group_bytes = cfg.group_size * shard;
    EXPECT_TRUE(bytes.size() == group_bytes &&
                std::equal(bytes.begin(), bytes.end(),
                           payload.begin() + g * group_bytes))
        << "group " << g;
  }

  // Size-only: a shard that carries bytes is rejected.
  TwoZone sized;
  Config size_only;
  Session t(sized.net, sized.source, {sized.relay, sized.a, sized.b},
            size_only);
  t.start();
  forge(t.agent_for(sized.a).transfer(), sized.source, size_only,
        std::make_shared<const std::vector<std::uint8_t>>(shard, 0xee));
}

TEST(TransferUnit, ZlcPredictorLearnsSteadyLoss) {
  // 20% upstream loss shared by the whole zone: the source's root-level
  // ZLC prediction must converge to roughly 20% of a group.
  TwoZone f(0.20, 0.0);
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(40, 6.0);
  f.simu.run_until(90.0);
  const double pred =
      s.source_agent().transfer().predicted_zlc(f.root);
  // ~0.2 * (16 + h): expect somewhere in [1.5, 7].
  EXPECT_GT(pred, 1.0);
  EXPECT_LT(pred, 8.0);
  EXPECT_TRUE(s.all_complete(40));
}

TEST(TransferUnit, PreemptiveShardsAppearOnceLearned) {
  TwoZone f(0.20, 0.0);
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(40, 6.0);
  f.simu.run_until(90.0);
  EXPECT_GT(s.source_agent().transfer().preemptive_repairs_sent(), 10u);
}

TEST(TransferUnit, InjectionDisabledSendsNoPreemptive) {
  TwoZone f(0.20, 0.0);
  Config cfg;
  cfg.injection = false;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(20, 6.0);
  f.simu.run_until(60.0);
  for (auto& agent : s.agents()) {
    EXPECT_EQ(agent->transfer().preemptive_repairs_sent(), 0u);
  }
  EXPECT_TRUE(s.all_complete(20));
}

TEST(TransferUnit, SenderOnlyMeansNoPeerRepairs) {
  TwoZone f(0.0, 0.15);
  Config cfg;
  cfg.sender_only = true;
  cfg.injection = false;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(20, 6.0);
  f.simu.run_until(60.0);
  for (std::size_t i = 1; i < s.agents().size(); ++i) {
    EXPECT_EQ(s.agents()[i]->transfer().repairs_sent(), 0u)
        << "receiver " << s.agents()[i]->node();
  }
  EXPECT_GT(s.source_agent().transfer().repairs_sent(), 0u);
  EXPECT_TRUE(s.all_complete(20));
}

TEST(TransferUnit, ZoneLocalLossRepairedInZone) {
  // Loss only on the relay->a link: repairs should come from the zone
  // (relay or b), never the source.
  TwoZone f(0.0, 0.0);
  // Make only the relay->a direction lossy.
  const net::LinkId la = f.net.find_link(f.relay, f.a);
  f.net.conditioner(la).set_loss(net::LossModel::bernoulli(0.2));
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(20, 6.0);
  f.simu.run_until(60.0);
  const std::uint64_t src_repairs = s.source_agent().transfer().repairs_sent();
  const std::uint64_t zone_repairs =
      s.agent_for(f.relay).transfer().repairs_sent() +
      s.agent_for(f.b).transfer().repairs_sent();
  EXPECT_GT(zone_repairs, 0u);
  // Stall probes may occasionally escalate to the root, but the zone must
  // serve the overwhelming majority of repairs for purely local loss.
  EXPECT_LT(src_repairs, zone_repairs / 2 + 1);
  EXPECT_TRUE(s.all_complete(20));
}

TEST(TransferUnit, WholeTrancheLossRecovered) {
  // Brutal: 60% upstream loss for a short stream — whole-group losses and
  // tail losses are likely; session-message progress advertisements and
  // LDP timers must still recover everything.
  TwoZone f(0.60, 0.0);
  Config cfg;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(6, 6.0);
  f.simu.run_until(120.0);
  EXPECT_TRUE(s.all_complete(6));
}

TEST(TransferUnit, EscalationReachesSourceWhenZoneCannotRepair) {
  // All upstream loss: no zone member ever has shards its peers miss, so
  // recovery must escalate to the root and be served by the source.
  TwoZone f(0.25, 0.0);
  Config cfg;
  cfg.injection = false;  // force the ARQ path
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(12, 6.0);
  f.simu.run_until(90.0);
  EXPECT_GT(s.source_agent().transfer().repairs_sent(), 0u);
  EXPECT_TRUE(s.all_complete(12));
}

TEST(TransferUnit, NacksAreCountsNotPacketIds) {
  // Two receivers lose different shards of the same group; a single
  // FEC repair can serve both, so total repairs should be well under
  // one-per-lost-packet. Statistical, but with margin.
  TwoZone f(0.0, 0.10);
  Config cfg;
  cfg.injection = false;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  s.send_stream(30, 6.0);
  f.simu.run_until(90.0);
  std::uint64_t repairs = 0;
  for (auto& agent : s.agents()) repairs += agent->transfer().repairs_sent();
  // ~30 groups * 19 shards * 10% * 2 receivers ~= 100+ individual losses,
  // but per-group max deficit is what must be repaired (~2/group).
  EXPECT_LT(repairs, 100u);
  EXPECT_TRUE(s.all_complete(30));
}

TEST(TransferUnit, RealPayloadSurvivesHeavyLoss) {
  TwoZone f(0.15, 0.15);
  Config cfg;
  cfg.real_payload = true;
  cfg.group_size = 8;
  cfg.shard_size_bytes = 128;
  Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
  s.start();
  std::vector<std::uint8_t> payload(4 * 8 * 128);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i ^ (i >> 7));
  }
  s.send_stream(4, 6.0, payload);
  f.simu.run_until(90.0);
  for (net::NodeId r : {f.relay, f.a, f.b}) {
    std::vector<std::uint8_t> got;
    for (std::uint32_t g = 0; g < 4; ++g) {
      auto part = s.agent_for(r).transfer().reconstructed(g);
      got.insert(got.end(), part.begin(), part.end());
    }
    EXPECT_EQ(got, payload) << "receiver " << r;
  }
}

// A lossy real-payload Figure-10 stream: receivers that lost originals
// decode from parity at completion, and once their groups have settled
// every receiver's decoder holds the k originals, each resolved to the very
// buffer the source sent, not a copy; the run's one lane store keeps one
// buffer per (group, index) and nothing no holder refers to, which is then
// exactly the payload's shards.
TEST(TransferUnit, RealPayloadReceiversHoldTheSourcesBuffers) {
  sim::Simulator simu{29};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Config cfg;
  cfg.real_payload = true;
  Session s(net, t.source, t.receivers, cfg);
  s.start();
  constexpr std::uint32_t kGroups = 4;
  const std::size_t group_bytes =
      static_cast<std::size_t>(cfg.group_size) * cfg.shard_size_bytes;
  std::vector<std::uint8_t> payload(kGroups * group_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 13 + (i >> 8));
  }
  // Parity held at completion is what the completion decode used.
  int parity = 0;
  for (net::NodeId r : t.receivers) {
    TransferEngine& rx = s.agent_for(r).transfer();
    rx.set_completion_callback([&, r, rx = &rx](std::uint32_t g) {
      for (const fec::IndexedShard& h : rx->decoder(g)->held_shards()) {
        parity += h.index >= cfg.group_size ? 1 : 0;
      }
      const auto bytes = rx->reconstructed(g);
      EXPECT_TRUE(bytes.size() == group_bytes &&
                  std::equal(bytes.begin(), bytes.end(),
                             payload.begin() + g * group_bytes))
          << "receiver " << r << " group " << g << " at completion";
    });
  }
  s.send_stream(kGroups, 6.0, payload);
  simu.run_until(60.0);
  ASSERT_TRUE(s.all_complete(kGroups));
  EXPECT_GT(parity, 0) << "no receiver decoded from parity";

  ASSERT_EQ(s.stores().size(), 1u) << "a serial run has one lane";
  const TransferEngine& source = s.source_agent().transfer();
  std::size_t shared = 0;
  for (net::NodeId r : t.receivers) {
    const TransferEngine& rx = s.agent_for(r).transfer();
    EXPECT_EQ(&rx.store(), &s.stores().front()) << "receiver " << r;
    EXPECT_EQ(rx.live_group_count(), 0u) << "receiver " << r;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      const auto dec = rx.decoder(g);
      ASSERT_TRUE(dec.has_value()) << "receiver " << r << " group " << g;
      for (const fec::IndexedShard& h : dec->held_shards()) {
        ASSERT_LT(h.index, cfg.group_size)
            << "receiver " << r << " group " << g << " holds parity";
        ASSERT_NE(h.bytes, nullptr) << "receiver " << r << " group " << g;
        EXPECT_EQ(h.bytes, source.decoder(g)->held(h.index))
            << "receiver " << r << " group " << g << " shard " << h.index;
        ++shared;
      }
      const auto bytes = rx.reconstructed(g);
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(),
                             payload.begin() + g * group_bytes) &&
                  bytes.size() == group_bytes)
          << "receiver " << r << " group " << g;
    }
  }
  EXPECT_EQ(shared, t.receivers.size() * kGroups * cfg.group_size);
  testing::LaneStoreCheck lane_stores(kGroups, payload, cfg);
  EXPECT_EQ(lane_stores(s), kGroups * static_cast<std::size_t>(cfg.group_size));
}

// A delivered group settles onto its k originals. On a lossy real-payload
// Figure-10 stream, once every group is idle each receiver's decoder holds
// exactly indices 0..k-1, each the very buffer the source sent, and still
// reconstructs the payload. What was received is unchanged, so a late
// original finds no parity to displace and leaves the decoder's state as
// displacing one would: through the engine, and byte for byte against a
// decoder that never settled.
TEST(TransferUnit, SettledDecoderHoldsTheOriginals) {
  sim::Simulator simu{43};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Config cfg;
  cfg.real_payload = true;
  Session s(net, t.source, t.receivers, cfg);
  s.start();
  constexpr std::uint32_t kGroups = 6;
  const int k = cfg.group_size;
  const std::size_t group_bytes =
      static_cast<std::size_t>(k) * cfg.shard_size_bytes;
  std::vector<std::uint8_t> payload(kGroups * group_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 17 + (i >> 10));
  }
  int from_parity = 0;  // completions whose decoder held parity
  for (net::NodeId r : t.receivers) {
    TransferEngine& rx = s.agent_for(r).transfer();
    rx.set_completion_callback([&, rx = &rx](std::uint32_t g) {
      from_parity += rx->decoder(g)->distinct_data() < k ? 1 : 0;
    });
  }
  s.send_stream(kGroups, 6.0, payload);
  simu.run_until(90.0);
  ASSERT_TRUE(s.all_complete(kGroups));
  ASSERT_GT(from_parity, 0) << "no receiver decoded from parity";

  const TransferEngine& source = s.source_agent().transfer();
  TransferEngine* late_rx = nullptr;  // a receiver that never got original
  std::uint32_t late_g = 0;           // `late_d` of group `late_g`
  int late_d = -1;
  for (net::NodeId r : t.receivers) {
    TransferEngine& rx = s.agent_for(r).transfer();
    ASSERT_EQ(rx.live_group_count(), 0u) << "receiver " << r;
    for (std::uint32_t g = 0; g < kGroups; ++g) {
      const auto dec = rx.decoder(g);
      std::vector<fec::IndexedShard> held = dec->held_shards();
      std::sort(held.begin(), held.end(), [](const auto& a, const auto& b) {
        return a.index < b.index;
      });
      ASSERT_EQ(held.size(), static_cast<std::size_t>(k));
      for (int d = 0; d < k; ++d) {
        ASSERT_EQ(held[d].index, d) << "receiver " << r << " group " << g;
        EXPECT_EQ(held[d].bytes, source.decoder(g)->held(d))
            << "receiver " << r << " group " << g << " original " << d;
        if (!late_rx && !dec->has(d)) {
          late_rx = &rx;
          late_g = g;
          late_d = d;
        }
      }
      const auto bytes = rx.reconstructed(g);
      EXPECT_TRUE(bytes.size() == group_bytes &&
                  std::equal(bytes.begin(), bytes.end(),
                             payload.begin() + g * group_bytes))
          << "receiver " << r << " group " << g;
    }
  }
  ASSERT_NE(late_rx, nullptr) << "every receiver got every original";

  // The late original through the engine: received, held nowhere new.
  const auto before = late_rx->decoder(late_g);
  const int distinct = before->distinct();
  const int distinct_data = before->distinct_data();
  const std::size_t stored = late_rx->store().size();
  auto data = std::make_shared<DataMsg>();
  data->group = late_g;
  data->index = late_d;
  data->k = k;
  data->initial_shards = k;
  data->bytes = source.decoder(late_g)->held(late_d);
  net::Packet p;
  p.uid = 1ull << 60;  // far from any uid the network issued
  p.origin = t.source;
  p.cls = net::TrafficClass::kData;
  p.msg = data;
  ASSERT_TRUE(late_rx->handle(p));
  const auto after = late_rx->decoder(late_g);
  EXPECT_TRUE(after->has(late_d));
  EXPECT_EQ(after->distinct(), distinct + 1);
  EXPECT_EQ(after->distinct_data(), distinct_data + 1);
  EXPECT_EQ(after->held_count(), k);
  EXPECT_EQ(after->held(late_d), data->bytes);
  EXPECT_EQ(late_rx->store().size(), stored);
  EXPECT_EQ(late_rx->live_group_count(), 0u);

  // The same late original against a decoder that never settled: both
  // received originals 2..k-1 and parity k, k+1, then k+2.
  const auto codec = std::make_shared<const fec::ReedSolomon>(k, cfg.max_parity);
  std::vector<fec::ShardBuffer> originals;
  for (int d = 0; d < k; ++d) {
    originals.push_back(source.decoder(late_g)->held(d));
  }
  fec::GroupEncoder shards(codec, originals);
  struct Storage {
    fec::DecoderState state;
    std::vector<std::uint8_t> block;
    fec::ShardStore shards;
  };
  Storage settled{{}, std::vector<std::uint8_t>(
                          fec::GroupDecoder::block_bytes(*codec)), {}};
  Storage displacing{{}, settled.block, {}};
  fec::GroupDecoder a(*codec, settled.state, settled.block.data(),
                      settled.shards, late_g);
  fec::GroupDecoder b(*codec, displacing.state, displacing.block.data(),
                      displacing.shards, late_g);
  for (int index = 2; index < k + 3; ++index) {
    a.add(index, shards.shard_shared(index));
    b.add(index, shards.shard_shared(index));
  }
  a.hold_originals();
  EXPECT_FALSE(a.holds_parity());
  EXPECT_TRUE(b.holds_parity());
  EXPECT_EQ(a.reconstruct(), b.reconstruct());
  for (fec::GroupDecoder* dec : {&a, &b}) {
    EXPECT_TRUE(dec->add(0, originals[0]));
  }
  EXPECT_EQ(std::memcmp(&settled.state, &displacing.state,
                        sizeof(fec::DecoderState)),
            0);
  for (int index = 0; index < codec->max_shards(); ++index) {
    EXPECT_EQ(a.has(index), b.has(index)) << "index " << index;
  }
  EXPECT_EQ(a.reconstruct(), b.reconstruct());
}

// The memory census counts a shard buffer once, at the engine that
// allocated it. On a lossless Figure 10 nothing is repaired or decoded, so
// the same history with and without payload bytes differs in
// transfer_groups by the source's buffers alone: the payload once, not
// once per holder.
TEST(TransferUnit, RealPayloadCensusCountsPayloadOnce) {
  constexpr std::uint32_t kGroups = 8;
  Config cfg;
  const std::size_t payload_bytes = static_cast<std::size_t>(kGroups) *
                                    cfg.group_size * cfg.shard_size_bytes;
  auto run = [&](bool real_payload, std::uint64_t& events) {
    sim::Simulator simu{31};
    net::Network net{simu};
    topo::Figure10 t = topo::make_figure10(net);
    for (net::LinkId l = 0; l < net.link_count(); ++l) {
      net.conditioner(l).set_loss(net::LossModel{});
    }
    Config c = cfg;
    c.real_payload = real_payload;
    Session s(net, t.source, t.receivers, c);
    s.start();
    s.send_stream(kGroups, 6.0, std::vector<std::uint8_t>(payload_bytes, 7));
    simu.run_until(30.0);
    EXPECT_TRUE(s.all_complete(kGroups));
    events = simu.events_executed();
    stats::MemCensus census;
    s.memory_census(census);
    return census.categories["transfer_groups"].live_bytes;
  };
  std::uint64_t events_real = 0, events_sized = 0;
  const std::uint64_t real = run(true, events_real);
  const std::uint64_t sized = run(false, events_sized);
  ASSERT_EQ(events_real, events_sized) << "payload bytes changed history";
  ASSERT_GT(real, sized);
  EXPECT_GE(real - sized, payload_bytes);
  EXPECT_LT(real - sized, 2 * payload_bytes);
}

// A repairer builds its encoder from the shards its decoder holds, so the
// census charges it for the parity it encoded and nothing else: on a
// lossy Figure-10 stream, members that lost originals and then repaired
// add no original-buffer bytes, and each parity buffer is counted once,
// however many engines hold it. A parity index is encoded once per lane:
// an engine encodes only an index its lane's store does not hold, so no
// two engines ever hold encoded buffers for one (group, index) at once.
// Encoders live only while their group does, so they are inspected every
// 10 ms of the run. Once every group has settled, decoders hold only
// originals, so the store ends holding the payload's shards and no parity.
TEST(TransferUnit, RepairerCensusCountsOnlyTheParityItEncoded) {
  constexpr std::uint32_t kGroups = 6;
  Config cfg;
  const std::size_t payload_bytes = static_cast<std::size_t>(kGroups) *
                                    cfg.group_size * cfg.shard_size_bytes;
  const std::uint64_t one_buffer = fec::buffer_bytes(
      std::make_shared<const std::vector<std::uint8_t>>(cfg.shard_size_bytes));
  struct Census {
    std::vector<std::uint64_t> engines;  // transfer_groups, per engine
    std::uint64_t session = 0;           // transfer_groups, whole session
    std::uint64_t events = 0;
  };
  // Every parity buffer any engine encoded, with the engine that did and a
  // handle that keeps the address from being reused; a uniqueness check,
  // never iterated.
  // sharq-lint: pointer-key-ok (membership only, order never observed)
  std::map<const void*, std::pair<std::size_t, fec::ShardBuffer>> encoded;
  std::set<std::pair<std::size_t, std::uint32_t>> lost_then_repaired;
  std::size_t checked_keys = 0;
  std::uint64_t live_encoders = 0, store_arrays = 0, stored_keys = 0;
  std::vector<std::uint8_t> payload(payload_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7 + (i >> 9));
  }
  auto run = [&](bool real_payload) {
    Census out;
    sim::Simulator simu{37};
    net::Network net{simu};
    topo::Figure10 t = topo::make_figure10(net);
    Config c = cfg;
    c.real_payload = real_payload;
    Session s(net, t.source, t.receivers, c);
    s.start();
    s.send_stream(kGroups, 6.0, payload);
    std::vector<const TransferEngine*> engines{&s.source_agent().transfer()};
    for (net::NodeId r : t.receivers) {
      engines.push_back(&s.agent_for(r).transfer());
    }
    auto inspect = [&] {
      // (group, index) -> the engine whose encoder holds it as encoded.
      std::map<std::pair<std::uint32_t, int>, std::size_t> encoder_of;
      for (std::size_t i = 0; i < engines.size(); ++i) {
        for (std::uint32_t g = 0; g < kGroups; ++g) {
          const fec::GroupEncoder* enc = engines[i]->encoder(g);
          if (!enc) continue;
          const auto dec = engines[i]->decoder(g);
          if (i > 0) {
            if (dec->distinct_data() < cfg.group_size) {
              lost_then_repaired.insert({i, g});
            }
            // A repairer encodes from the very buffers its decoder holds.
            for (const fec::IndexedShard& b : enc->basis()) {
              EXPECT_EQ(b.bytes, dec->held(b.index))
                  << "engine " << i << " group " << g << " shard "
                  << b.index << " is not a held buffer";
            }
          }
          for (const fec::IndexedShard& p : enc->encoded()) {
            EXPECT_GE(p.index, cfg.group_size) << "an original was rebuilt";
            const auto [it, fresh] =
                encoded.try_emplace(p.bytes.get(), i, p.bytes);
            EXPECT_TRUE(fresh || it->second.first == i)
                << "parity buffer encoded by two engines";
            const auto [owner, first] =
                encoder_of.try_emplace({g, p.index}, i);
            EXPECT_TRUE(first) << "group " << g << " parity " << p.index
                               << " encoded by engines " << owner->second
                               << " and " << i << " in one lane";
          }
        }
      }
    };
    testing::LaneStoreCheck lane_stores(kGroups, payload, c);
    for (int step = 1; step <= 6000; ++step) {
      simu.run_until(step * 0.01);
      if (!real_payload) continue;
      inspect();
      if (step % 50 == 0) {
        checked_keys = std::max(checked_keys, lane_stores(s));
      }
    }
    EXPECT_TRUE(s.all_complete(kGroups));
    out.events = simu.events_executed();
    for (const TransferEngine* e : engines) {
      stats::MemCensus census;
      e->memory_census(census);
      out.engines.push_back(census.categories["transfer_groups"].live_bytes);
    }
    stats::MemCensus census;
    s.memory_census(census);
    out.session = census.categories["transfer_groups"].live_bytes;
    if (!real_payload) return out;
    for (const TransferEngine* e : engines) {
      for (std::uint32_t g = 0; g < kGroups; ++g) {
        live_encoders += e->encoder(g) != nullptr ? 1 : 0;
      }
    }
    for (const fec::ShardStore& store : s.stores()) {
      store.for_each_array([&](const auto& array) {
        store_arrays += stats::vector_block_bytes(array);
      });
      stored_keys += store.size();
    }
    return out;
  };
  const Census real = run(true);
  const Census sized = run(false);
  ASSERT_EQ(real.events, sized.events) << "payload bytes changed history";
  ASSERT_FALSE(lost_then_repaired.empty())
      << "no repairer had lost an original";
  ASSERT_FALSE(encoded.empty());
  ASSERT_GT(checked_keys, 0u);
  // An engine's own census holds no shard buffer: only its encoders' arrays
  // (handles and the k x k inverse), less than one buffer each.
  std::uint64_t engine_extra = 0;
  for (std::size_t i = 0; i < real.engines.size(); ++i) {
    ASSERT_GE(real.engines[i], sized.engines[i]) << "engine " << i;
    engine_extra += real.engines[i] - sized.engines[i];
  }
  EXPECT_LT(engine_extra, (live_encoders + 1) * one_buffer);
  // The session adds the lane store: every buffer it holds once (the
  // payload; no parity is held once the groups have settled), plus its own
  // arrays.
  const std::uint64_t shards = payload_bytes / cfg.shard_size_bytes;
  EXPECT_EQ(stored_keys, shards) << "a settled group still holds parity";
  EXPECT_EQ(real.session - sized.session,
            engine_extra + store_arrays + stored_keys * one_buffer);
}

// A long real-payload stream on a small lossy topology: every group is
// delivered byte-exact, delivered groups settle so the live-state pool
// stops growing once the stream is in steady state, what a receiver keeps
// per tracked group is its record, its decoder block (k held indices and
// the seen bits) and its level strides, and the lane store ends holding
// the originals alone.
TEST(TransferUnit, LongStreamSettlesIntoFlatState) {
  struct Soak {
    std::size_t live_high_water = 0;  // largest pool of any receiver
    std::uint64_t per_group = 0;      // census per tracked group, largest
    std::size_t stored = 0;           // keys in the lane store
  };
  auto run = [](std::uint32_t groups) {
    TwoZone f(0.04, 0.04);
    Config cfg;
    cfg.real_payload = true;
    Session s(f.net, f.source, {f.relay, f.a, f.b}, cfg);
    s.start();
    const std::size_t group_bytes =
        static_cast<std::size_t>(cfg.group_size) * cfg.shard_size_bytes;
    std::vector<std::uint8_t> payload(groups * group_bytes);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i * 31 + (i >> 10));
    }
    s.send_stream(groups, 6.0, payload);
    // 17 packets a group at 10 ms each, then time to settle.
    f.simu.run_until(6.0 + groups * 0.2 + 60.0);
    EXPECT_TRUE(s.all_complete(groups)) << groups << " groups";
    Soak out;
    for (net::NodeId r : {f.relay, f.a, f.b}) {
      const TransferEngine& rx = s.agent_for(r).transfer();
      for (std::uint32_t g = 0; g < groups; ++g) {
        const auto bytes = rx.reconstructed(g);
        EXPECT_TRUE(bytes.size() == group_bytes &&
                    std::equal(bytes.begin(), bytes.end(),
                               payload.begin() + g * group_bytes))
            << "receiver " << r << " group " << g;
      }
      EXPECT_EQ(rx.tracked_group_count(), groups);
      EXPECT_EQ(rx.live_group_count(), 0u) << "receiver " << r;
      out.live_high_water =
          std::max(out.live_high_water, rx.live_group_high_water());
      // The engine's census holds no shard buffer (those live in the lane
      // store, sized by the shard, not by the state kept per group).
      stats::MemCensus census;
      rx.memory_census(census);
      const std::uint64_t kept = census.categories["transfer_groups"].live_bytes;
      out.per_group = std::max<std::uint64_t>(out.per_group, kept / groups);
    }
    out.stored = s.stores().front().size();
    return out;
  };
  const Soak short_run = run(500);
  const Soak long_run = run(2000);
  EXPECT_GT(short_run.live_high_water, 0u);
  EXPECT_LT(short_run.live_high_water, 500u / 50);
  EXPECT_EQ(long_run.live_high_water, short_run.live_high_water);
  // k = 16, 144 shard indices: a 16-B record, a 34-B decoder block (16
  // held 1-B indices and 18 B of seen bits) and two 2-level strides
  // (12 + 8 B) make 70 B; vector capacity rounding (both runs' group
  // counts sit just under a power of two) and the live-state pool add a
  // few bytes per group.
  EXPECT_LE(long_run.per_group, 76u);
  EXPECT_LE(short_run.per_group, 76u);
  const Config cfg;
  EXPECT_EQ(short_run.stored, 500u * cfg.group_size);
  EXPECT_EQ(long_run.stored, 2000u * cfg.group_size);
}

// A NACK for a group that has settled takes a slot again: a ZCR and a
// complete receiver that is not a ZCR both answer with the parity index the
// group's slice cursor gives (one past the highest index of that slice the
// member has seen) and with exactly the source's bytes for that index, from
// an encoder rebuilt on the shards they hold; the group settles again once
// idle.
TEST(TransferUnit, SettledGroupAnswersNackFromHeldShards) {
  sim::Simulator simu{41};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Config cfg;
  cfg.real_payload = true;
  Session s(net, t.source, t.receivers, cfg);
  s.start();
  constexpr std::uint32_t kGroups = 8;
  const std::size_t group_bytes =
      static_cast<std::size_t>(cfg.group_size) * cfg.shard_size_bytes;
  std::vector<std::uint8_t> payload(kGroups * group_bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 11 + (i >> 9));
  }
  s.send_stream(kGroups, 6.0, payload);
  simu.run_until(90.0);
  ASSERT_TRUE(s.all_complete(kGroups));

  auto codec =
      std::make_shared<fec::ReedSolomon>(cfg.group_size, cfg.max_parity);
  const Hierarchy& hier = s.hierarchy();
  const int width = std::max(1, cfg.max_parity / hier.depth());
  std::uint64_t uid = 1ull << 60;  // far from any uid the network issued
  int answered = 0;
  for (bool want_zcr : {true, false}) {
    // A receiver of the wanted kind, a zone it answers for and a group for
    // which it has heard parity in that zone's slice, so the cursor is
    // past the slice start: the group with the highest such index.
    Agent* responder = nullptr;
    net::ZoneId zone = net::kNoZone;
    std::uint32_t g = 0;
    int lo = 0, hi = 0, expected = 0;
    for (net::NodeId r : t.receivers) {
      Agent& a = s.agent_for(r);
      const auto& chain = a.session().chain();
      for (std::size_t l = 0; l + 1 < chain.size(); ++l) {
        if (a.session().is_zcr(chain[l]) != want_zcr) continue;
        const int slice_lo = cfg.group_size + hier.level(chain[l]) * width;
        const int slice_hi = std::min(slice_lo + width, codec->max_shards());
        for (std::uint32_t grp = 0; grp < kGroups; ++grp) {
          const auto dec = a.transfer().decoder(grp);
          for (int j = slice_lo; j < slice_hi; ++j) {
            if (dec->has(j) && j + 1 > expected) {
              responder = &a;
              zone = chain[l];
              g = grp;
              lo = slice_lo;
              hi = slice_hi;
              expected = j + 1;
            }
          }
        }
      }
      if (responder) break;
    }
    ASSERT_NE(responder, nullptr)
        << (want_zcr ? "no ZCR" : "no plain receiver") << " heard parity";
    ASSERT_GT(expected, lo);
    ASSERT_LT(expected, hi) << "slice exhausted";
    TransferEngine& e = responder->transfer();
    ASSERT_EQ(e.live_group_count(), 0u) << "groups still live at the horizon";
    ASSERT_EQ(e.encoder(g), nullptr);

    auto nack = std::make_shared<NackMsg>();
    nack->group = g;
    nack->zone = zone;
    nack->llc = 2;
    nack->needed = 2;
    nack->sender = t.source;
    net::Packet p;
    p.uid = uid++;
    p.origin = t.source;
    p.cls = net::TrafficClass::kNack;
    p.msg = nack;
    const std::uint64_t before = e.repairs_sent();
    ASSERT_TRUE(e.handle(p));
    while (e.repairs_sent() == before) ASSERT_TRUE(simu.step());
    ASSERT_EQ(e.live_group_count(), 1u);
    const fec::GroupEncoder* enc = e.encoder(g);
    ASSERT_NE(enc, nullptr);
    ASSERT_FALSE(enc->encoded().empty());
    const fec::IndexedShard& sent = enc->encoded().back();
    EXPECT_EQ(sent.index, expected) << (want_zcr ? "ZCR" : "plain receiver");
    std::vector<fec::ShardBuffer> originals;
    for (int d = 0; d < cfg.group_size; ++d) {
      const auto at = payload.begin() +
                      static_cast<std::ptrdiff_t>(g * group_bytes +
                                                  d * cfg.shard_size_bytes);
      originals.push_back(std::make_shared<const std::vector<std::uint8_t>>(
          at, at + cfg.shard_size_bytes));
    }
    fec::GroupEncoder source(codec, originals);
    EXPECT_EQ(*sent.bytes, *source.shard_shared(sent.index));
    ++answered;

    simu.run_until(simu.now() + 30.0);
    EXPECT_EQ(e.repairs_sent(), before + 2) << "the second repair";
    EXPECT_EQ(e.live_group_count(), 0u) << "group did not settle again";
    EXPECT_EQ(e.encoder(g), nullptr);
  }
  EXPECT_EQ(answered, 2);
}

// Sibling zones at one level share a parity slice, so a repairer's next
// index is often one its lane already holds: another member encoded it for
// a repair of its own, or decoded with it. Asked for it, the repairer sends
// the lane's buffer and encodes nothing. Settled groups hold no parity, so
// a first repairer is asked first: it encodes the index, and since it still
// owes a second repair its encoder stays live and holds the index while
// the second repairer is asked.
TEST(TransferUnit, RepairerSendsTheBufferItsLaneHolds) {
  sim::Simulator simu{41};
  net::Network net{simu};
  topo::Figure10 t = topo::make_figure10(net);
  Config cfg;
  cfg.real_payload = true;
  Session s(net, t.source, t.receivers, cfg);
  s.start();
  constexpr std::uint32_t kGroups = 8;
  std::vector<std::uint8_t> payload(kGroups * cfg.group_size *
                                    static_cast<std::size_t>(cfg.shard_size_bytes));
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 5 + (i >> 11));
  }
  s.send_stream(kGroups, 6.0, payload);
  simu.run_until(90.0);
  ASSERT_TRUE(s.all_complete(kGroups));

  // Members that answer a NACK at once (the ZCR of the NACK's zone), each
  // with a zone it answers for, by global level; for one group, the next
  // index of that level's slice (one past the highest it has seen there).
  const Hierarchy& hier = s.hierarchy();
  const int width = std::max(1, cfg.max_parity / hier.depth());
  const int max_shards = cfg.group_size + cfg.max_parity;
  struct Repairer {
    Agent* agent;
    net::ZoneId zone;
    int level;
  };
  std::vector<Repairer> repairers;
  for (net::NodeId r : t.receivers) {
    Agent& a = s.agent_for(r);
    for (net::ZoneId z : a.session().chain()) {
      if (a.session().is_zcr(z)) repairers.push_back({&a, z, hier.level(z)});
    }
  }
  auto next_index = [&](const Repairer& m, std::uint32_t g) {
    const int lo = cfg.group_size + m.level * width;
    // Indices past the last slice count toward it (note_parity_seen).
    const int top = m.level + 1 == hier.depth() ? max_shards
                                                : std::min(lo + width, max_shards);
    const auto dec = m.agent->transfer().decoder(g);
    int next = lo;
    for (int j = lo; j < top; ++j) {
      if (dec->has(j)) next = j + 1;
    }
    return next < std::min(lo + width, max_shards) ? next : -1;
  };
  const Repairer* first = nullptr;
  const Repairer* second = nullptr;
  std::uint32_t g = 0;
  int index = -1;
  for (std::size_t i = 0; i < repairers.size() && !second; ++i) {
    for (std::size_t j = 0; j < repairers.size() && !second; ++j) {
      const Repairer& a = repairers[i];
      const Repairer& b = repairers[j];
      if (a.agent == b.agent || a.level != b.level) continue;
      for (std::uint32_t grp = 0; grp < kGroups && !second; ++grp) {
        const int next = next_index(a, grp);
        if (next >= 0 && next == next_index(b, grp)) {
          first = &a;
          second = &b;
          g = grp;
          index = next;
        }
      }
    }
  }
  ASSERT_NE(second, nullptr) << "no two repairers share a next index";
  TransferEngine& ea = first->agent->transfer();
  TransferEngine& eb = second->agent->transfer();
  ASSERT_EQ(ea.live_group_count(), 0u) << "groups still live at the horizon";
  ASSERT_EQ(eb.live_group_count(), 0u) << "groups still live at the horizon";
  ASSERT_EQ(ea.store().find(g, index), nullptr) << "parity held at settle";

  std::uint64_t uid = 1ull << 60;  // far from any uid the network issued
  auto nack_to = [&](TransferEngine& e, net::ZoneId zone, int needed) {
    auto nack = std::make_shared<NackMsg>();
    nack->group = g;
    nack->zone = zone;
    nack->llc = needed;
    nack->needed = needed;
    nack->sender = t.source;
    net::Packet p;
    p.uid = uid++;
    p.origin = t.source;
    p.cls = net::TrafficClass::kNack;
    p.msg = nack;
    const std::uint64_t before = e.repairs_sent();
    ASSERT_TRUE(e.handle(p));
    EXPECT_EQ(e.repairs_sent(), before + 1) << "the ZCR did not answer at once";
  };
  nack_to(ea, first->zone, 2);
  const fec::GroupEncoder* enc = ea.encoder(g);
  ASSERT_NE(enc, nullptr) << "the first repairer's encoder did not stay live";
  ASSERT_FALSE(enc->encoded().empty());
  ASSERT_EQ(enc->encoded().back().index, index);
  ASSERT_NE(ea.store().find(g, index), nullptr);
  const fec::ShardBuffer held = *ea.store().find(g, index);
  ASSERT_EQ(&ea.store(), &eb.store()) << "a serial run has one lane";
  const std::size_t stored = eb.store().size();

  // Only the second repairer acts while the profiler is active, so any FEC
  // work counted is its own: the profiler counts every encode site's codec
  // scope.
  stats::Profiler prof;
  struct Active {
    explicit Active(stats::Profiler& p) { stats::Profiler::set_active(&p); }
    ~Active() { stats::Profiler::set_active(nullptr); }
  };
  {
    const Active active(prof);
    nack_to(eb, second->zone, 1);
  }
  EXPECT_TRUE(eb.decoder(g)->has(index)) << "sent another index";
  EXPECT_EQ(prof.scope_count(stats::ProfSubsys::codec), 0u)
      << "the repairer encoded";
  ASSERT_NE(eb.store().find(g, index), nullptr);
  EXPECT_EQ(*eb.store().find(g, index), held) << "the lane's buffer changed";
  EXPECT_EQ(eb.store().size(), stored);
}

TEST(TransferUnit, Figure10GroupSizeSweep) {
  for (int k : {4, 8, 32}) {
    sim::Simulator simu{17};
    net::Network net{simu};
    topo::Figure10 t = topo::make_figure10(net);
    rm::DeliveryLog log;
    Config cfg;
    cfg.group_size = k;
    Session s(net, t.source, t.receivers, cfg, &log);
    s.start();
    s.send_stream(128 / k, 6.0);  // 128 packets regardless of k
    simu.run_until(90.0);
    int incomplete = 0;
    for (net::NodeId r : t.receivers) {
      if (!log.complete(r, 128 / k)) ++incomplete;
    }
    EXPECT_EQ(incomplete, 0) << "k=" << k;
  }
}

}  // namespace
}  // namespace sharq::sfq
