// Simulated clock and event queue — the time base of mapsec::net.
//
// The paper's serving-rate analysis (Figure 3) is about what a given MIPS
// budget can sustain *per unit time*; reproducing it under concurrent,
// lossy load needs a clock every component agrees on and that tests can
// drive deterministically. Real sockets and timers would make every run
// depend on host scheduling; instead the whole transport substrate runs on
// one discrete-event queue in simulated microseconds. Two runs with the
// same seeds execute the same events in the same order, bit for bit —
// which is what lets the soak tests assert that scaling the
// PacketPipeline's worker count changes nothing observable.
#pragma once

#include <cstdint>
#include <functional>
#include <map>

namespace mapsec::net {

/// Simulated time in microseconds since the start of the run.
using SimTime = std::uint64_t;

/// Handle for cancelling a scheduled event.
using EventId = std::uint64_t;

/// Largest schedulable instant. One below EventQueue::kNoEvent so a
/// saturated deadline can never collide with the empty-queue sentinel.
inline constexpr SimTime kTimeCeiling = ~SimTime{0} - 1;

/// `at + delay` clamped to kTimeCeiling. Timeout arithmetic must go
/// through this (or through EventQueue::schedule_in, which uses it): a
/// wall-clock Clock can sit at an arbitrarily large monotonic offset, and
/// a plain add would wrap a far-future deadline into the past — an idle
/// timer that fires instantly instead of never.
constexpr SimTime sat_add_time(SimTime at, SimTime delay) {
  if (at >= kTimeCeiling) return kTimeCeiling;
  return delay >= kTimeCeiling - at ? kTimeCeiling : at + delay;
}

/// Discrete-event queue with a monotonic simulated clock. Events at the
/// same instant run in scheduling order (FIFO), so execution is a pure
/// function of the schedule calls — no tie-breaking on addresses or
/// hashes that could vary between runs.
class EventQueue {
 public:
  SimTime now() const { return now_; }

  /// Time of the most recent event run (0 before the first). Unlike
  /// now(), run_until() does not advance it to the deadline, so a
  /// sliced run reports when the world actually went quiet.
  SimTime last_event_time() const { return last_event_; }

  /// Schedule `fn` at absolute time `when` (clamped to `now()` if in the
  /// past and to kTimeCeiling above). Returns an id usable with cancel().
  EventId schedule_at(SimTime when, std::function<void()> fn);

  /// Schedule `fn` at now() + delay, saturating at kTimeCeiling.
  EventId schedule_in(SimTime delay, std::function<void()> fn);

  /// Remove a pending event. Returns false if it already ran or was
  /// cancelled.
  bool cancel(EventId id);

  /// Run the earliest pending event, advancing the clock to its time.
  /// Returns false when the queue is empty.
  bool run_one();

  /// Run every event with time <= deadline; the clock ends at `deadline`
  /// even if fewer events existed. Returns the number of events run.
  std::size_t run_until(SimTime deadline);

  /// Drain the queue (events may schedule more events). `max_events` is a
  /// runaway guard; hitting it throws std::runtime_error.
  std::size_t run_all(std::size_t max_events = 100'000'000);

  std::size_t pending() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

  /// Drop every pending event without running it. The clock is untouched.
  /// Used when a shard's world is hard-killed: its timers, retransmits and
  /// in-flight deliveries die with it, and a later warm rejoin starts from
  /// an empty schedule at the fleet's current barrier time.
  void clear();

  /// Time of the earliest pending event, or `kNoEvent` when the queue is
  /// empty. Lets a slice scheduler (ShardExecutor) bound each slice by
  /// the next instant anything can actually happen, instead of spinning
  /// through empty slices.
  static constexpr SimTime kNoEvent = ~SimTime{0};
  SimTime next_time() const {
    return events_.empty() ? kNoEvent : events_.begin()->first.when;
  }

 private:
  struct Key {
    SimTime when;
    EventId id;  // insertion order breaks ties deterministically
    bool operator<(const Key& o) const {
      return when != o.when ? when < o.when : id < o.id;
    }
  };

  SimTime now_ = 0;
  SimTime last_event_ = 0;
  EventId next_id_ = 1;
  std::map<Key, std::function<void()>> events_;
  std::map<EventId, SimTime> index_;  // id -> scheduled time, for cancel()
};

}  // namespace mapsec::net
