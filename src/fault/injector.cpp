#include "fault/injector.hpp"

#include "net/loss.hpp"

namespace sharq::fault {

void Injector::schedule(const FaultPlan& plan) {
  for (const FaultEvent& e : plan.events) {
    net_.at_global(e.at, [this, e] { apply(e); }, "fault.inject");
  }
}

void Injector::on_link(net::NodeId from, net::NodeId to,
                       const std::function<void(net::LinkId)>& fn) {
  const net::LinkId l = net_.find_link(from, to);
  if (l == net::kNoLink) {
    ++skipped_;
    return;
  }
  fn(l);
  ++applied_;
}

void Injector::apply(const FaultEvent& e) {
  auto valid_node = [this](net::NodeId n) {
    return n >= 0 && n < net_.node_count();
  };
  switch (e.kind) {
    case EventKind::kLinkDown:
      on_link(e.from, e.to, [this](net::LinkId l) { net_.set_link_up(l, false); });
      break;
    case EventKind::kLinkUp:
      on_link(e.from, e.to, [this](net::LinkId l) { net_.set_link_up(l, true); });
      break;
    case EventKind::kLossRate:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.conditioner(l).set_loss(net::LossModel::bernoulli(e.rate));
      });
      break;
    case EventKind::kCorruptRate:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.conditioner(l).set_corrupt_rate(e.rate);
      });
      break;
    case EventKind::kDuplicateRate:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.conditioner(l).set_duplicate(e.rate, e.copies);
      });
      break;
    case EventKind::kReorderRate:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.conditioner(l).set_reorder(e.rate, e.jitter);
      });
      break;
    case EventKind::kNodeKill:
      if (!valid_node(e.from) || !net_.node_up(e.from)) {
        ++skipped_;
        break;
      }
      if (hooks_.kill) hooks_.kill(e.from);
      net_.set_node_up(e.from, false);
      ++applied_;
      break;
    case EventKind::kNodeRestart:
      if (!valid_node(e.from) || net_.node_up(e.from)) {
        ++skipped_;
        break;
      }
      net_.set_node_up(e.from, true);
      if (hooks_.restart) hooks_.restart(e.from);
      ++applied_;
      break;
    case EventKind::kPartition:
      on_link(e.from, e.to, [this](net::LinkId l) { net_.set_link_up(l, false); });
      on_link(e.to, e.from, [this](net::LinkId l) { net_.set_link_up(l, false); });
      break;
    case EventKind::kHeal:
      on_link(e.from, e.to, [this](net::LinkId l) { net_.set_link_up(l, true); });
      on_link(e.to, e.from, [this](net::LinkId l) { net_.set_link_up(l, true); });
      break;
    case EventKind::kNackStorm:
      if (!valid_node(e.from) || !hooks_.nack_storm) {
        ++skipped_;
        break;
      }
      hooks_.nack_storm(e.from, e.copies, e.jitter);
      ++applied_;
      break;
    case EventKind::kFlashCrowd: {
      if (!hooks_.join) {
        ++skipped_;
        break;
      }
      // Absolute times, not `after(now)`: the event fires at e.at, so
      // `e.at + idx*jitter` is the same instant, and absolute scheduling
      // also works at a barrier, whose clock is the window edge rather
      // than the event time.
      int idx = 0;
      for (net::NodeId n = e.from; n <= e.to; ++n, ++idx) {
        if (!valid_node(n)) {
          ++skipped_;
          continue;
        }
        net_.at_global(e.at + static_cast<sim::Time>(idx) * e.jitter,
                       [this, n] { hooks_.join(n); }, "fault.inject");
        ++applied_;
      }
      break;
    }
    case EventKind::kBandwidth:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.set_link_bandwidth(l, e.rate);
      });
      on_link(e.to, e.from, [this, &e](net::LinkId l) {
        net_.set_link_bandwidth(l, e.rate);
      });
      break;
    case EventKind::kQueueLimit:
      on_link(e.from, e.to, [this, &e](net::LinkId l) {
        net_.set_link_queue_limit(l, e.copies);
      });
      on_link(e.to, e.from, [this, &e](net::LinkId l) {
        net_.set_link_queue_limit(l, e.copies);
      });
      break;
  }
}

}  // namespace sharq::fault
