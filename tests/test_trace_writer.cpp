#include <gtest/gtest.h>

#include <sstream>

#include "stats/trace_writer.hpp"
#include "stats/traffic_recorder.hpp"
#include "sim/simulator.hpp"

namespace sharq::stats {
namespace {

struct Probe final : net::MessageBase {};

struct Fixture {
  sim::Simulator simu{7};
  net::Network net{simu};
  net::NodeId a, b;
  net::ChannelId ch;

  Fixture() {
    a = net.add_node();
    b = net.add_node();
    net.add_duplex_link(a, b, net::LinkConfig{});
    ch = net.create_channel();
    net.subscribe(ch, b);
  }
};

TEST(TraceWriter, EmitsHopAndReceiveLines) {
  Fixture f;
  std::ostringstream os;
  TraceWriter tw(os, &f.net);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kData, 100,
             std::make_shared<Probe>());
  f.simu.run();
  const std::string out = os.str();
  EXPECT_NE(out.find("h 0 0 1 data 100"), std::string::npos) << out;
  EXPECT_NE(out.find("\nr 0.01008 1 - data 100"), std::string::npos) << out;
  EXPECT_EQ(tw.lines_written(), 2u);
}

TEST(TraceWriter, DropLinesOnLoss) {
  Fixture f;
  f.net.conditioner(f.net.find_link(f.a, f.b))
      .set_loss(net::LossModel::bernoulli(1.0));
  std::ostringstream os;
  TraceWriter tw(os, &f.net);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kRepair, 50,
             std::make_shared<Probe>());
  f.simu.run();
  EXPECT_NE(os.str().find("\nd "), std::string::npos) << os.str();
  EXPECT_EQ(os.str().find("\nr "), std::string::npos) << os.str();
}

TEST(TraceWriter, DropLinesCarryTheReason) {
  // Regression: on_drop used to discard its DropReason argument, so a
  // random loss, a queue overflow and a dead link all printed identical
  // 'd' lines. The reason is now the trailing field.
  Fixture f;
  f.net.conditioner(f.net.find_link(f.a, f.b))
      .set_loss(net::LossModel::bernoulli(1.0));
  std::ostringstream os;
  TraceWriter tw(os, &f.net);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kRepair, 50,
             std::make_shared<Probe>());
  f.simu.run();
  const std::string out = os.str();
  ASSERT_NE(out.find("\nd "), std::string::npos) << out;
  EXPECT_NE(out.find(" loss\n"), std::string::npos) << out;
}

TEST(TraceWriter, ClassFilterSuppressesLines) {
  Fixture f;
  std::ostringstream os;
  TraceWriter tw(os, &f.net);
  tw.enable_class(net::TrafficClass::kSession, false);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kSession, 64,
             std::make_shared<Probe>(), /*lossless=*/true);
  f.simu.run();
  EXPECT_EQ(tw.lines_written(), 0u);
}

TEST(TraceWriter, EveryTrafficClassTracedByDefault) {
  // Enumerates the whole enum so a newly added class cannot silently fall
  // outside the filter's range.
  for (int c = 0; c < net::kTrafficClassCount; ++c) {
    Fixture f;
    std::ostringstream os;
    TraceWriter tw(os, &f.net);
    f.net.set_sink(&tw);
    f.net.send(f.a, f.ch, static_cast<net::TrafficClass>(c), 64,
               std::make_shared<Probe>(), /*lossless=*/true);
    f.simu.run();
    EXPECT_EQ(tw.lines_written(), 2u) << "class " << c;
  }
}

TEST(TraceWriter, DisablingOneClassLeavesOthersTraced) {
  for (int off = 0; off < net::kTrafficClassCount; ++off) {
    for (int c = 0; c < net::kTrafficClassCount; ++c) {
      Fixture f;
      std::ostringstream os;
      TraceWriter tw(os, &f.net);
      tw.enable_class(static_cast<net::TrafficClass>(off), false);
      f.net.set_sink(&tw);
      f.net.send(f.a, f.ch, static_cast<net::TrafficClass>(c), 64,
                 std::make_shared<Probe>(), /*lossless=*/true);
      f.simu.run();
      EXPECT_EQ(tw.lines_written(), c == off ? 0u : 2u)
          << "off " << off << " class " << c;
    }
  }
}

TEST(TraceWriter, OutOfRangeClassIsIgnoredNotUb) {
  // Regression: enabled() used to compute `1u << cls` unchecked, which is
  // UB for cls >= 32 (future enum growth or a forged byte off the wire).
  // Both the filter setter and the trace path must treat such a class as
  // never-enabled instead.
  Fixture f;
  std::ostringstream os;
  TraceWriter tw(os, &f.net);
  const auto forged = static_cast<net::TrafficClass>(200);
  tw.enable_class(forged, true);   // must not shift out of range
  tw.enable_class(forged, false);  // must not clear unrelated bits
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, forged, 64, std::make_shared<Probe>(),
             /*lossless=*/true);
  f.simu.run();
  EXPECT_EQ(tw.lines_written(), 0u);
  // Real classes stay enabled after the out-of-range enable_class calls.
  f.net.send(f.a, f.ch, net::TrafficClass::kData, 64,
             std::make_shared<Probe>(), /*lossless=*/true);
  f.simu.run();
  EXPECT_EQ(tw.lines_written(), 2u);
}

TEST(TraceWriter, ChainsToNextSink) {
  Fixture f;
  std::ostringstream os;
  TrafficRecorder rec(f.net.node_count(), 0.1);
  TraceWriter tw(os, &f.net, &rec);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kData, 100,
             std::make_shared<Probe>());
  f.simu.run();
  EXPECT_EQ(tw.lines_written(), 2u);
  EXPECT_DOUBLE_EQ(rec.node_total(f.b, net::TrafficClass::kData), 1.0);
  EXPECT_EQ(rec.link_transmissions(), 1u);
}

TEST(TraceWriter, WithoutNetworkPrintsLinkId) {
  Fixture f;
  std::ostringstream os;
  TraceWriter tw(os, nullptr);
  f.net.set_sink(&tw);
  f.net.send(f.a, f.ch, net::TrafficClass::kData, 100,
             std::make_shared<Probe>());
  f.simu.run();
  EXPECT_NE(os.str().find("h 0 0 - data"), std::string::npos) << os.str();
}

}  // namespace
}  // namespace sharq::stats
