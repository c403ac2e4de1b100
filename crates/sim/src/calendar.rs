//! A keyed event calendar: the scheduling core of the simulator.
//!
//! The calendar is a binary min-heap of `(time, seq, key)` entries with two
//! invariants the engine's determinism contract rests on:
//!
//! * **FIFO under ties** — every schedule operation stamps a monotonically
//!   increasing sequence number, and entries order by `(time, seq)`.  Two
//!   events scheduled for the same cycle therefore pop in the order they
//!   were scheduled, independent of heap internals.
//! * **At most one live event per key** — each key (a node, a channel)
//!   carries a generation counter; scheduling or cancelling bumps the
//!   generation, which lazily invalidates any entry still sitting in the
//!   heap from an earlier schedule.  Stale entries are skipped (and
//!   discarded) when encountered, so cancel/reschedule is `O(log n)`
//!   amortized without a decrease-key primitive.
//!
//! The engine keys its arrival calendar by node id; [`EventCalendar`] itself
//! is agnostic about what a key means.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One heap entry.  Orders by `(time, seq)`; `key`/`generation` only identify
/// the event and never influence ordering because `seq` is unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: u64,
    seq: u64,
    key: u32,
    generation: u64,
}

/// Per-key bookkeeping: the generation of the most recent schedule and the
/// time it is scheduled for (`None` when the key has no live event).
#[derive(Debug, Clone, Copy, Default)]
struct KeyState {
    generation: u64,
    scheduled: Option<u64>,
}

/// A keyed binary-heap event calendar with FIFO tie-breaking and
/// generation-based cancel/reschedule (see the module docs for the
/// invariants).
#[derive(Debug, Clone, Default)]
pub struct EventCalendar {
    heap: BinaryHeap<Reverse<Entry>>,
    keys: Vec<KeyState>,
    seq: u64,
    live: usize,
}

impl EventCalendar {
    /// A calendar for keys `0..keys`.
    #[must_use]
    pub fn new(keys: usize) -> Self {
        Self { heap: BinaryHeap::new(), keys: vec![KeyState::default(); keys], seq: 0, live: 0 }
    }

    /// Number of keys with a live (scheduled, not yet popped) event.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no event is scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The time the given key's live event is scheduled for, if any.
    #[must_use]
    pub fn pending(&self, key: u32) -> Option<u64> {
        self.keys[key as usize].scheduled
    }

    /// Schedules (or reschedules) the key's event for `time`.  Any earlier
    /// schedule for the same key is cancelled: its heap entry becomes stale
    /// and is skipped when encountered.
    pub fn schedule(&mut self, key: u32, time: u64) {
        let state = &mut self.keys[key as usize];
        if state.scheduled.take().is_some() {
            self.live -= 1;
        }
        state.generation += 1;
        state.scheduled = Some(time);
        self.live += 1;
        let entry = Entry { time, seq: self.seq, key, generation: state.generation };
        self.seq += 1;
        self.heap.push(Reverse(entry));
    }

    /// Cancels the key's live event, returning the time it was scheduled for.
    pub fn cancel(&mut self, key: u32) -> Option<u64> {
        let state = &mut self.keys[key as usize];
        let time = state.scheduled.take()?;
        state.generation += 1;
        self.live -= 1;
        Some(time)
    }

    /// The time of the earliest live event, discarding stale entries
    /// encountered on the way.
    pub fn next_time(&mut self) -> Option<u64> {
        while let Some(Reverse(entry)) = self.heap.peek() {
            let state = &self.keys[entry.key as usize];
            if state.generation == entry.generation {
                return Some(entry.time);
            }
            self.heap.pop();
        }
        None
    }

    /// Whether any live event is due at or before `now` — the one-branch
    /// guard the generation stage tests before doing any
    /// work.  Discards stale entries encountered on the way, like
    /// [`Self::next_time`].
    #[must_use]
    pub fn has_due(&mut self, now: u64) -> bool {
        self.next_time().is_some_and(|t| t <= now)
    }

    /// Pops every live event with `time <= now` into `out`, in `(time, seq)`
    /// order (earliest first, FIFO within one time).  Popped keys become
    /// unscheduled.
    pub fn pop_due_into(&mut self, now: u64, out: &mut Vec<u32>) {
        while let Some(Reverse(entry)) = self.heap.peek() {
            let state = &mut self.keys[entry.key as usize];
            if state.generation != entry.generation {
                self.heap.pop();
                continue;
            }
            if entry.time > now {
                break;
            }
            state.scheduled = None;
            self.live -= 1;
            out.push(entry.key);
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_pop_in_schedule_order() {
        // FIFO per timestamp: keys scheduled for the same cycle pop in the
        // order schedule() was called, not in key or heap order.
        let mut cal = EventCalendar::new(8);
        for &key in &[5u32, 1, 7, 3] {
            cal.schedule(key, 10);
        }
        cal.schedule(6, 4); // earlier time pops first regardless of seq
        let mut due = Vec::new();
        cal.pop_due_into(10, &mut due);
        assert_eq!(due, vec![6, 5, 1, 7, 3]);
        assert!(cal.is_empty());
    }

    #[test]
    fn cancel_and_reschedule_invalidate_stale_entries() {
        let mut cal = EventCalendar::new(4);
        cal.schedule(2, 100);
        assert_eq!(cal.pending(2), Some(100));
        // reschedule earlier: the time-100 entry must never fire
        cal.schedule(2, 40);
        assert_eq!(cal.pending(2), Some(40));
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.next_time(), Some(40));
        let mut due = Vec::new();
        cal.pop_due_into(99, &mut due);
        assert_eq!(due, vec![2]);
        due.clear();
        // the stale time-100 entry is skipped, not replayed
        cal.pop_due_into(1_000, &mut due);
        assert!(due.is_empty());
        assert!(cal.is_empty());
        // cancel drops the live event entirely
        cal.schedule(1, 7);
        assert_eq!(cal.cancel(1), Some(7));
        assert_eq!(cal.cancel(1), None);
        assert_eq!(cal.next_time(), None);
        cal.pop_due_into(1_000, &mut due);
        assert!(due.is_empty());
    }

    #[test]
    fn pop_respects_now_and_keeps_future_events() {
        let mut cal = EventCalendar::new(4);
        cal.schedule(0, 5);
        cal.schedule(1, 6);
        cal.schedule(2, 20);
        let mut due = Vec::new();
        cal.pop_due_into(6, &mut due);
        assert_eq!(due, vec![0, 1]);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.next_time(), Some(20));
        assert_eq!(cal.pending(2), Some(20));
    }

    #[test]
    fn repeated_reschedule_stays_consistent() {
        // a key rescheduled many times leaves many stale entries behind;
        // len()/next_time() must stay exact throughout
        let mut cal = EventCalendar::new(2);
        for t in (1..50u64).rev() {
            cal.schedule(0, t);
            assert_eq!(cal.len(), 1);
        }
        assert_eq!(cal.next_time(), Some(1));
        let mut due = Vec::new();
        cal.pop_due_into(u64::MAX, &mut due);
        assert_eq!(due, vec![0]);
        assert!(cal.is_empty());
        assert_eq!(cal.next_time(), None);
    }
}
