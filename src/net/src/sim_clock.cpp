#include "mapsec/net/sim_clock.hpp"

#include <stdexcept>
#include <utility>

namespace mapsec::net {

EventId EventQueue::schedule_at(SimTime when, std::function<void()> fn) {
  if (when < now_) when = now_;
  if (when > kTimeCeiling) when = kTimeCeiling;  // keep kNoEvent unreachable
  const EventId id = next_id_++;
  events_.emplace(Key{when, id}, std::move(fn));
  index_.emplace(id, when);
  return id;
}

EventId EventQueue::schedule_in(SimTime delay, std::function<void()> fn) {
  return schedule_at(sat_add_time(now_, delay), std::move(fn));
}

bool EventQueue::cancel(EventId id) {
  const auto it = index_.find(id);
  if (it == index_.end()) return false;
  events_.erase(Key{it->second, id});
  index_.erase(it);
  return true;
}

bool EventQueue::run_one() {
  if (events_.empty()) return false;
  auto it = events_.begin();
  now_ = it->first.when;
  last_event_ = now_;
  index_.erase(it->first.id);
  // Move the handler out before erasing: it may schedule (or cancel)
  // further events, invalidating `it`.
  std::function<void()> fn = std::move(it->second);
  events_.erase(it);
  fn();
  return true;
}

std::size_t EventQueue::run_until(SimTime deadline) {
  std::size_t count = 0;
  while (!events_.empty() && events_.begin()->first.when <= deadline) {
    run_one();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

void EventQueue::clear() {
  events_.clear();
  index_.clear();
}

std::size_t EventQueue::run_all(std::size_t max_events) {
  std::size_t count = 0;
  while (run_one()) {
    if (++count > max_events)
      throw std::runtime_error("EventQueue::run_all: event storm");
  }
  return count;
}

}  // namespace mapsec::net
