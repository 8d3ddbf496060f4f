#include "sim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "stats/profiler.hpp"

namespace sharq::sim {

EventId Simulator::at(Time when, EventQueue::Callback fn, const char* tag) {
  return queue_.schedule(std::max(when, now_), std::move(fn), tag);
}

EventId Simulator::after(Time delay, EventQueue::Callback fn, const char* tag) {
  return queue_.schedule(now_ + std::max(delay, 0.0), std::move(fn), tag);
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  EventQueue::Fired fired = queue_.pop();
  // pop() returns an inert marker if the queue raced to empty (every
  // remaining entry was cancelled); treat it the same as empty().
  if (!fired.fn && fired.at == kTimeInfinity) return false;
  now_ = std::max(now_, fired.at);
  ++executed_;
  // Sampling gate: counts the dispatch exactly, wall-times one in
  // Profiler::kSamplePeriod of them. Handler time no finer probe claims
  // lands in event_loop's self time.
  stats::ProfGate gate(stats::ProfCounter::events_dispatched,
                       stats::ProfSubsys::event_loop);
  if (fired.fn) fired.fn();
  return true;
}

void Simulator::run_until(Time until) {
  while (!queue_.empty() && queue_.next_time() <= until) {
    step();
  }
  now_ = std::max(now_, until);
}

void Simulator::run_before(Time t) {
  while (!queue_.empty() && queue_.next_time() < t) {
    step();
  }
  now_ = std::max(now_, t);
}

void Simulator::run() {
  while (step()) {
  }
}

void Timer::arm(Time delay, Callback fn, const char* tag) {
  cancel();
  id_ = simu_->after(delay, std::move(fn), tag);
}

void Timer::arm_if_idle(Time delay, Callback fn, const char* tag) {
  if (!pending()) arm(delay, std::move(fn), tag);
}

void Timer::cancel() {
  // A stale handle (the event already fired) cancels nothing; a live one
  // frees its slot, and with it the captured state, right away.
  if (id_.valid()) simu_->cancel(id_);
  id_ = EventId{};
}

}  // namespace sharq::sim
