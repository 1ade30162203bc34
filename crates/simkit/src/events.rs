//! A generic event calendar.
//!
//! Each device model in this workspace owns one [`EventQueue`] parameterized
//! over its private event enum. Events scheduled at the same instant are
//! delivered in the order they were scheduled (FIFO tie-break via a
//! monotonically increasing sequence number), which keeps the whole
//! simulation deterministic.
//!
//! # Implementation
//!
//! The queue is an *indexed binary heap*: a min-heap of `(time, seq)` keys
//! over a slot arena that stores the payloads. Every slot remembers its
//! current heap position (the index is maintained through sift-up/sift-down
//! swaps), which buys the three properties the simulator's hot loops need:
//!
//! - [`EventQueue::next_time`] is **O(1)** and takes `&self` — device
//!   `next_event_at()` chains can poll the frontier on every advance step
//!   without scanning or compacting anything;
//! - [`EventQueue::cancel`] is a true **O(log n)** in-place removal — no
//!   tombstones are retained and no side table is dragged through
//!   schedule/pop;
//! - [`EventId`]s are **generation-tagged**: a slot's generation is bumped
//!   every time its event fires or is cancelled, so a stale handle (kept
//!   across a slot reuse) is rejected instead of cancelling an unrelated
//!   later event.

use crate::time::SimTime;

/// Opaque handle to a scheduled event, usable for cancellation.
///
/// The handle pairs a slot index with the slot's generation at scheduling
/// time. Once the event fires or is cancelled the generation advances, so a
/// retained handle becomes harmlessly stale: [`EventQueue::cancel`] on it
/// returns `false` and touches nothing, even if the slot has since been
/// reused for a different event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

/// One heap node: the ordering key plus the arena slot holding the payload.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// An arena slot. `pos` is only meaningful while `payload` is `Some`.
#[derive(Debug)]
struct Slot<E> {
    gen: u32,
    pos: u32,
    payload: Option<E>,
}

/// A deterministic min-heap of timestamped events (see the module docs for
/// the indexed-heap layout and its complexity guarantees).
pub struct EventQueue<E> {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot<E>>,
    free: Vec<u32>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty calendar.
    pub fn new() -> Self {
        EventQueue { heap: Vec::new(), slots: Vec::new(), free: Vec::new(), next_seq: 0 }
    }

    /// Schedule `payload` for delivery at `at`. Returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = &mut self.slots[slot as usize];
                debug_assert!(s.payload.is_none(), "free-list slot still occupied");
                s.payload = Some(payload);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot { gen: 0, pos: 0, payload: Some(payload) });
                slot
            }
        };
        let pos = self.heap.len();
        self.heap.push(HeapEntry { at, seq, slot });
        self.slots[slot as usize].pos = pos as u32;
        self.sift_up(pos);
        EventId { slot, gen: self.slots[slot as usize].gen }
    }

    /// Cancel a previously scheduled event, removing it from the heap in
    /// place (O(log n); no tombstone is retained). Returns `true` if the
    /// event was still pending. Cancelling an event that already fired, was
    /// already cancelled, or whose slot has been reused (a stale
    /// generation-tagged [`EventId`]) is a harmless no-op returning `false`.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(s) = self.slots.get(id.slot as usize) else { return false };
        if s.gen != id.gen || s.payload.is_none() {
            return false;
        }
        let pos = s.pos as usize;
        self.remove_at(pos);
        self.release_slot(id.slot);
        true
    }

    /// The delivery time of the next pending event, if any. O(1), `&self`.
    pub fn next_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.at)
    }

    /// Pop the next event regardless of time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.remove_at(0);
        let payload = self.release_slot(entry.slot);
        Some((entry.at, payload))
    }

    /// Pop the next event only if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, E)> {
        match self.next_time() {
            Some(t) if t <= now => self.pop(),
            _ => None,
        }
    }

    /// Every pending event with its delivery time, in heap order (not time
    /// order) — for a question about the queue's content, not its frontier.
    /// O(n).
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.iter().map(|e| {
            let payload = self.slots[e.slot as usize].payload.as_ref();
            (e.at, payload.expect("a heap entry's slot is occupied"))
        })
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Free `slot`, bump its generation (invalidating outstanding handles),
    /// and return its payload.
    fn release_slot(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        s.payload.take().expect("released slot must be occupied")
    }

    /// Remove and return the heap entry at `pos`, restoring the heap
    /// property around the entry swapped into its place.
    fn remove_at(&mut self, pos: usize) -> HeapEntry {
        let last = self.heap.len() - 1;
        self.heap.swap(pos, last);
        let entry = self.heap.pop().expect("heap non-empty");
        if pos < self.heap.len() {
            self.slots[self.heap[pos].slot as usize].pos = pos as u32;
            // The swapped-in tail entry may violate the property in either
            // direction relative to `pos`'s neighbourhood.
            if pos > 0 && self.heap[pos].key() < self.heap[(pos - 1) / 2].key() {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        entry
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.heap[pos].key() >= self.heap[parent].key() {
                break;
            }
            self.swap_entries(pos, parent);
            pos = parent;
        }
    }

    fn sift_down(&mut self, mut pos: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * pos + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let smallest = if right < len && self.heap[right].key() < self.heap[left].key() {
                right
            } else {
                left
            };
            if self.heap[pos].key() <= self.heap[smallest].key() {
                break;
            }
            self.swap_entries(pos, smallest);
            pos = smallest;
        }
    }

    /// Swap two heap entries, keeping the slot->position index coherent.
    fn swap_entries(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.slots[self.heap[a].slot as usize].pos = a as u32;
        self.slots[self.heap[b].slot as usize].pos = b as u32;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("next_time", &self.next_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), "c");
        q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn fifo_tie_break_at_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(t(10), "early");
        q.schedule(t(100), "late");
        assert_eq!(q.pop_due(t(50)), Some((t(10), "early")));
        assert_eq!(q.pop_due(t(50)), None);
        assert_eq!(q.pop_due(t(100)), Some((t(100), "late")));
    }

    #[test]
    fn cancellation_removes_events_in_place() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        q.schedule(t(20), "b");
        assert!(q.cancel(a));
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_time(), Some(t(20)));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn double_cancel_is_harmless() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert!(q.cancel(a));
        assert!(!q.cancel(a));
        q.schedule(t(20), "b");
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn iter_visits_exactly_the_pending_events() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(30), "a");
        q.schedule(t(10), "b");
        q.schedule(t(20), "c");
        assert_eq!(q.pop(), Some((t(10), "b")));
        q.schedule(t(5), "d"); // reuses b's slot
        assert!(q.cancel(a));
        let mut seen: Vec<_> = q.iter().map(|(at, e)| (at, *e)).collect();
        seen.sort();
        assert_eq!(seen, [(t(5), "d"), (t(20), "c")]);
    }

    #[test]
    fn next_time_reflects_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.schedule(t(42), ());
        q.schedule(t(7), ());
        assert_eq!(q.next_time(), Some(t(7)));
    }

    #[test]
    fn stale_id_after_fire_is_rejected_across_slot_reuse() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), "a");
        assert_eq!(q.pop(), Some((t(10), "a")));
        // The slot is reused for a new event; the stale handle must not be
        // able to cancel it.
        let b = q.schedule(t(20), "b");
        assert!(!q.cancel(a));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(b));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_middle_keeps_order() {
        let mut q = EventQueue::new();
        let ids: Vec<_> = (0..64u64).map(|i| q.schedule(t(i * 3 % 40), i)).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
            }
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((at, payload)) = q.pop() {
            assert!((at, payload) > last || n == 0, "pop order regressed at {at} {payload}");
            assert!(payload % 3 != 0, "cancelled event {payload} delivered");
            last = (at, payload);
            n += 1;
        }
        assert_eq!(n, 64 - 22);
    }
}
