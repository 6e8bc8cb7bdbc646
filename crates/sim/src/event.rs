//! The event queue at the heart of the discrete-event engine.
//!
//! [`EventQueue`] is a monotone radix queue (the radix heap of Ahuja,
//! Mehlhorn, Orlin and Tarjan, 1990) over integer-millisecond
//! [`SimTime`]. It relies on the one promise a discrete-event simulation
//! makes about its queue: nothing is ever scheduled before the instant
//! last popped (past schedules are clamped to `now` and counted).
//!
//! # Layout
//!
//! Every pending entry lives in one slab `Vec`. An entry is a packed
//! word — its instant in the high [`TIME_BITS`] bits, the slot of the
//! next entry of its list in the low [`SLOT_BITS`] — plus its sequence
//! number and payload, so an entry costs no more than a plain
//! `(time, seq, event)` triple. The bucket lists and the free list are
//! threaded through those next links; freed slots are reused
//! last-in-first-out, so the slab never grows past the deepest the queue
//! has been.
//!
//! An entry at instant `t` sits in bucket `b = bits(t XOR last)`, the
//! position of the highest bit in which `t` differs from `last` (bucket
//! 0: `t == last`). `last` is the instant of the most recent pop, so
//! every pending entry is at or after it, and bucket `b > 0` holds
//! exactly the instants in `[p + 2^(b-1), p + 2^b)` where `p` is `last`
//! with its low `b` bits cleared: the buckets partition the future into
//! ascending, disjoint ranges. A pop takes the head of bucket 0. When
//! bucket 0 is empty it first *refills*: `last` moves to the minimum of
//! the lowest non-empty bucket (kept per bucket, so no scan is needed to
//! find it) and that bucket's entries are redistributed, each into a
//! strictly lower bucket. An entry therefore moves at most `TIME_BITS`
//! times in its life.
//!
//! # Why the pop order is exactly `(time, seq)`
//!
//! Every bucket list is kept in ascending sequence order. `schedule`
//! appends at a tail with a sequence number larger than any pending one;
//! a refill drains one bucket front to back into buckets that are all
//! empty (it drains the *lowest* non-empty one), so appending keeps each
//! target list in the order of the drained list. Bucket 0 holds a single
//! instant, so its FIFO order is `(time, seq)` order, and every entry in
//! a lower bucket precedes every entry in a higher one. Ties at one
//! instant are thus delivered in scheduling order, and the queue pops
//! the same sequence as any other `(time, seq)` priority queue.

use crate::time::SimTime;

/// Bits of an entry's packed word that hold its instant: instants up to
/// `2^40 - 1` ms (about 34.8 years) can be scheduled.
pub const TIME_BITS: u32 = 40;

/// Bits of an entry's packed word that hold a slot link: up to
/// `2^24 - 1` (about 16.7M) events can be pending at once.
pub const SLOT_BITS: u32 = u64::BITS - TIME_BITS;

/// The link value that ends a list; also one past the highest slot.
const NIL: u32 = (1 << SLOT_BITS) - 1;

/// One bucket per possible highest differing bit, plus bucket 0.
const BUCKETS: usize = TIME_BITS as usize + 1;

/// The bucket of an entry at `at` ms while the pivot is `last` ms.
#[inline]
fn bucket_of(at: u64, last: u64) -> usize {
    (u64::BITS - (at ^ last).leading_zeros()) as usize
}

/// The slot of an entry pushed onto a slab of `len` entries.
///
/// # Panics
///
/// Panics if the slot would not fit in a [`SLOT_BITS`]-bit link.
fn fresh_slot(len: usize) -> u32 {
    assert!(
        len < NIL as usize,
        "more than {NIL} events pending: the queue's {SLOT_BITS}-bit slot range is full"
    );
    len as u32
}

/// A deterministic priority queue of timestamped events.
///
/// Events are delivered in non-decreasing time order; events scheduled for
/// the same instant are delivered in scheduling order (FIFO), which makes
/// simulation runs reproducible regardless of payload type. See the
/// [module documentation](self) for the radix layout and why it pops in
/// exactly `(time, seq)` order.
///
/// # Example
///
/// ```
/// use aria_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(1), 'b');
/// q.schedule(SimTime::from_secs(1), 'c'); // same instant: FIFO
/// q.schedule(SimTime::ZERO, 'a');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['a', 'b', 'c']);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// Every entry, pending or free.
    slab: Vec<Entry<E>>,
    /// First and last slot of each bucket's list (`NIL` when empty).
    heads: [u32; BUCKETS],
    tails: [u32; BUCKETS],
    /// Earliest instant in each non-empty bucket `b > 0` (bucket 0's is
    /// `last`).
    min_at: [u64; BUCKETS],
    /// Bit `b` is set iff bucket `b` is non-empty.
    occupied: u64,
    /// Head of the free-slot list.
    free: u32,
    /// The pivot instant (ms): bucket 0's instant, never after `now`.
    last: u64,
    len: usize,
    next_seq: u64,
    now: SimTime,
    clamped: u64,
    peak: usize,
}

#[derive(Debug, Clone)]
struct Entry<E> {
    /// `at << SLOT_BITS | next`; a free entry holds only its next link.
    word: u64,
    seq: u64,
    /// `None` exactly when the slot is on the free list.
    event: Option<E>,
}

impl<E> Entry<E> {
    #[inline]
    fn at(&self) -> u64 {
        self.word >> SLOT_BITS
    }

    #[inline]
    fn next(&self) -> u32 {
        (self.word & u64::from(NIL)) as u32
    }

    #[inline]
    fn set_next(&mut self, next: u32) {
        self.word = (self.word & !u64::from(NIL)) | u64::from(next);
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            heads: [NIL; BUCKETS],
            tails: [NIL; BUCKETS],
            min_at: [0; BUCKETS],
            occupied: 0,
            free: NIL,
            last: 0,
            len: 0,
            next_seq: 0,
            now: SimTime::ZERO,
            clamped: 0,
            peak: 0,
        }
    }

    /// Appends the entry in `slot` (instant `at` ms) to bucket `b`.
    #[inline]
    fn append(&mut self, b: usize, slot: u32, at: u64) {
        self.slab[slot as usize].word = at << SLOT_BITS | u64::from(NIL);
        let tail = self.tails[b];
        if tail == NIL {
            self.heads[b] = slot;
            self.occupied |= 1 << b;
            self.min_at[b] = at;
        } else {
            self.slab[tail as usize].set_next(slot);
            self.min_at[b] = self.min_at[b].min(at);
        }
        self.tails[b] = slot;
    }

    /// Moves the pivot to the minimum of the lowest non-empty bucket
    /// and redistributes that bucket, in list order, into the (empty)
    /// buckets below it. Requires bucket 0 empty and the queue not.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        self.last = self.min_at[b];
        let mut slot = self.heads[b];
        self.heads[b] = NIL;
        self.tails[b] = NIL;
        self.occupied &= !(1 << b);
        while slot != NIL {
            let entry = &self.slab[slot as usize];
            let (at, next) = (entry.at(), entry.next());
            self.append(bucket_of(at, self.last), slot, at);
            slot = next;
        }
    }

    /// The non-empty buckets, lowest (earliest) first.
    #[inline]
    fn buckets(&self) -> impl Iterator<Item = usize> {
        let mut rest = self.occupied;
        std::iter::from_fn(move || {
            let b = (rest != 0).then(|| rest.trailing_zeros() as usize)?;
            rest &= rest - 1;
            Some(b)
        })
    }

    /// Bucket `b`'s slots and entries, in list (seq) order.
    fn list(&self, b: usize) -> impl Iterator<Item = (u32, &Entry<E>)> + '_ {
        let mut slot = self.heads[b];
        std::iter::from_fn(move || {
            let current = slot;
            (current != NIL).then(|| {
                let entry = &self.slab[current as usize];
                slot = entry.next();
                (current, entry)
            })
        })
    }

    /// The earliest instant in non-empty bucket `b`.
    #[inline]
    fn min_of(&self, b: usize) -> u64 {
        if b == 0 {
            self.last
        } else {
            self.min_at[b]
        }
    }

    /// Puts a drained slot on the free list and returns its payload.
    #[inline]
    fn release(&mut self, slot: u32) -> E {
        let entry = &mut self.slab[slot as usize];
        entry.word = u64::from(self.free);
        self.free = slot;
        self.len -= 1;
        entry.event.take().expect("a pending slot holds its event")
    }

    /// Schedules `event` for delivery at instant `at`.
    ///
    /// Scheduling in the past is a logic error in the simulation layers
    /// above; it is tolerated here (the event fires "now") but flagged in
    /// debug builds and counted in [`EventQueue::clamped_count`] so release
    /// builds can assert the count stayed zero instead of silently
    /// reordering causality.
    ///
    /// # Panics
    ///
    /// Panics if `at` does not fit in [`TIME_BITS`] bits of milliseconds,
    /// or if [`SLOT_BITS`] bits of slots are all pending.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past: {at} < {}", self.now);
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now).as_millis();
        assert!(
            at >> TIME_BITS == 0,
            "event time {at} ms exceeds the queue's {TIME_BITS}-bit range"
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = if self.free == NIL {
            let slot = fresh_slot(self.slab.len());
            self.slab.push(Entry { word: 0, seq, event: Some(event) });
            slot
        } else {
            let slot = self.free;
            let entry = &mut self.slab[slot as usize];
            self.free = entry.next();
            entry.seq = seq;
            entry.event = Some(event);
            slot
        };
        self.append(bucket_of(at, self.last), slot, at);
        self.len += 1;
        self.peak = self.peak.max(self.len);
    }

    /// How many events were scheduled in the past and clamped to `now`.
    ///
    /// Always zero in a causally sound simulation; see
    /// [`EventQueue::schedule`].
    pub fn clamped_count(&self) -> u64 {
        self.clamped
    }

    /// Removes and returns the earliest event together with its timestamp,
    /// advancing the queue clock, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.occupied & 1 == 0 {
            if self.occupied == 0 {
                return None;
            }
            self.refill();
        }
        let slot = self.heads[0];
        let next = self.slab[slot as usize].next();
        self.heads[0] = next;
        if next == NIL {
            self.tails[0] = NIL;
            self.occupied &= !1;
        }
        self.now = SimTime::from_millis(self.last);
        Some((self.now, self.release(slot)))
    }

    /// The timestamp of the next event without removing it. O(1): the
    /// pivot if bucket 0 is non-empty, else the lowest bucket's minimum.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.buckets().next().map(|b| SimTime::from_millis(self.min_of(b)))
    }

    /// The next event (the one [`EventQueue::pop`] would return) without
    /// removing it: the first entry at the earliest bucket's minimum,
    /// found by walking that bucket.
    pub fn peek(&self) -> Option<(SimTime, &E)> {
        let b = self.buckets().next()?;
        let at = self.min_of(b);
        let (_, entry) =
            self.list(b).find(|(_, e)| e.at() == at).expect("a bucket holds its minimum");
        Some((SimTime::from_millis(at), entry.event.as_ref().expect("pending")))
    }

    // --- exploration hooks ------------------------------------------------
    //
    // The bounded model checker (crates/model) treats this queue as a
    // *pending set* rather than a timeline: it removes events out of
    // delivery order to enumerate alternative message interleavings. The
    // two hooks below exist for that driver only; [`EventQueue::pop`]
    // remains the sole delivery path of the event-queue driver.

    /// Removes and returns the earliest (smallest `(time, seq)`) pending
    /// event satisfying `pred`, **without** advancing the queue clock.
    ///
    /// `None` if no pending event matches. Used by the exploration driver
    /// to force a specific delivery; pair with
    /// [`EventQueue::advance_clock`] when the removed event should also
    /// move time forward. Buckets are searched lowest first and the
    /// search stops at the first bucket holding a match, since every
    /// later bucket is strictly later in time.
    pub fn remove_where(&mut self, mut pred: impl FnMut(&E) -> bool) -> Option<(SimTime, E)> {
        for b in self.buckets() {
            // (at, slot, predecessor) of the best match so far.
            let mut best: Option<(u64, u32, u32)> = None;
            let mut prev = NIL;
            for (slot, entry) in self.list(b) {
                // List order is seq order, so only a strictly earlier
                // instant beats an earlier match.
                if best.is_none_or(|(best_at, _, _)| entry.at() < best_at)
                    && pred(entry.event.as_ref().expect("pending"))
                {
                    best = Some((entry.at(), slot, prev));
                }
                prev = slot;
            }
            if let Some((at, slot, prev)) = best {
                self.unlink(b, slot, prev, at);
                return Some((SimTime::from_millis(at), self.release(slot)));
            }
        }
        None
    }

    /// Unlinks `slot` (instant `at` ms, predecessor `prev`) from bucket
    /// `b`.
    fn unlink(&mut self, b: usize, slot: u32, prev: u32, at: u64) {
        let next = self.slab[slot as usize].next();
        if prev == NIL {
            self.heads[b] = next;
        } else {
            self.slab[prev as usize].set_next(next);
        }
        if self.tails[b] == slot {
            self.tails[b] = prev;
        }
        if self.heads[b] == NIL {
            self.occupied &= !(1 << b);
        } else if b > 0 && at == self.min_at[b] {
            self.min_at[b] = self.list(b).map(|(_, e)| e.at()).min().expect("bucket is non-empty");
        }
    }

    /// Advances the queue clock to `to` without delivering anything.
    ///
    /// # Panics
    ///
    /// Panics if `to` is in the past: the exploration driver may reorder
    /// deliveries but never time itself.
    pub fn advance_clock(&mut self, to: SimTime) {
        assert!(to >= self.now, "clock moved backwards: {to} < {}", self.now);
        self.now = to;
    }

    /// Iterates over every pending event with its timestamp and sequence
    /// number, in unspecified (slab) order.
    ///
    /// Like [`EventQueue::iter`] but exposing the FIFO tie-break key, so
    /// state canonicalization can order same-instant events exactly as
    /// [`EventQueue::pop`] would deliver them.
    pub fn entries(&self) -> impl Iterator<Item = (SimTime, u64, &E)> + '_ {
        self.slab.iter().filter_map(|entry| {
            let event = entry.event.as_ref()?;
            Some((SimTime::from_millis(entry.at()), entry.seq, event))
        })
    }

    /// Iterates over every pending event in unspecified (slab) order.
    ///
    /// This is an inspection hook for state-machine auditing — e.g.
    /// `World::check_invariants` cross-checks per-flood in-flight counts
    /// against the messages actually pending here. Delivery order is
    /// still decided exclusively by [`EventQueue::pop`].
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> + '_ {
        self.entries().map(|(at, _, event)| (at, event))
    }

    /// The time of the most recently popped event (the simulation clock).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// the deepest the pending set has ever been. Purely observational
    /// (feeds the probe layer's gauge events); never affects delivery.
    pub fn peak_len(&self) -> usize {
        self.peak
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, [1, 2, 3]);
    }

    #[test]
    fn ties_resolve_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_secs(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(42));
    }

    #[test]
    fn interleaved_scheduling_preserves_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), "a");
        let (t, _) = q.pop().unwrap();
        // schedule relative to popped time
        q.schedule(t + SimDuration::from_secs(5), "c");
        q.schedule(t + SimDuration::from_secs(1), "b");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
    }

    #[test]
    fn len_and_empty_track_contents() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peak_len_is_a_high_water_mark() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert_eq!(q.peak_len(), 0);
        q.schedule(SimTime::ZERO, 1);
        q.schedule(SimTime::ZERO, 2);
        q.schedule(SimTime::ZERO, 3);
        assert_eq!(q.peak_len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak_len(), 3, "draining must not lower the mark");
        q.schedule(SimTime::from_secs(1), 4);
        assert_eq!(q.peak_len(), 3, "returning below the mark keeps it");
    }

    #[test]
    fn clamped_count_stays_zero_for_sound_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(1), 'b'); // exactly `now` is fine
        q.schedule(SimTime::from_secs(2), 'c');
        assert_eq!(q.clamped_count(), 0);
    }

    // The two halves of the past-scheduling guard: debug builds panic at
    // the offending `schedule` call, release builds clamp silently and
    // bump the counter for `World::check_invariants` to catch.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn past_schedules_panic_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(3), 'b');
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_schedules_are_clamped_and_counted() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 'a');
        q.pop();
        q.schedule(SimTime::from_secs(3), 'b');
        assert_eq!(q.clamped_count(), 1);
        // The clamped event fires at `now`, not in the past.
        let (at, e) = q.pop().unwrap();
        assert_eq!((at, e), (SimTime::from_secs(10), 'b'));
    }

    #[test]
    fn pops_total_order_under_interleaving() {
        // A scrambled schedule: pops must come out sorted by (time,
        // scheduling order) whatever the push order was, including
        // pushes interleaved with pops.
        let mut q = EventQueue::new();
        let mut expected = Vec::new();
        for i in 0..400u64 {
            let t = SimTime::from_millis((i * 7919) % 1000);
            q.schedule(t, i);
            expected.push((t, i));
        }
        expected.sort();
        let mut popped = Vec::new();
        for _ in 0..100 {
            popped.push(q.pop().unwrap());
        }
        // Later schedules clamp to the clock but keep FIFO order.
        let now = q.now();
        for i in 400..420u64 {
            q.schedule(now + SimDuration::from_millis(i), i);
            expected.push((now + SimDuration::from_millis(i), i));
        }
        expected.sort();
        popped.extend(std::iter::from_fn(|| q.pop()));
        assert_eq!(popped, expected);
    }

    #[test]
    fn iter_visits_every_pending_event_without_consuming() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'b');
        q.schedule(SimTime::from_secs(1), 'a');
        let mut seen: Vec<(SimTime, char)> = q.iter().map(|(t, &e)| (t, e)).collect();
        seen.sort();
        assert_eq!(
            seen,
            [(SimTime::from_secs(1), 'a'), (SimTime::from_secs(2), 'b')]
        );
        assert_eq!(q.len(), 2, "iteration must not consume");
    }

    #[test]
    fn peek_time_does_not_consume() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7), 'x');
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7)));
        assert_eq!(q.peek(), Some((SimTime::from_secs(7), &'x')));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_where_takes_the_earliest_match_and_keeps_the_order() {
        let mut q = EventQueue::new();
        for i in 0..50u64 {
            q.schedule(SimTime::from_secs((i * 13) % 20), i);
        }
        // Remove all odd events, earliest-first; they must come out in
        // (time, seq) order among themselves.
        let mut odd = Vec::new();
        while let Some((at, e)) = q.remove_where(|e| e % 2 == 1) {
            odd.push((at, e));
        }
        let mut sorted = odd.clone();
        sorted.sort_by_key(|&(t, e)| (t, e));
        assert_eq!(odd.len(), 25);
        assert!(odd.iter().zip(&sorted).all(|(a, b)| a.0 == b.0), "matches out of order");
        // The clock never moved and the survivors still pop in order.
        assert_eq!(q.now(), SimTime::ZERO);
        let rest: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let mut expected = rest.clone();
        expected.sort_by_key(|&(t, e)| (t, e));
        assert_eq!(rest.iter().map(|r| r.0).collect::<Vec<_>>(),
                   expected.iter().map(|r| r.0).collect::<Vec<_>>());
        assert!(rest.iter().all(|(_, e)| e % 2 == 0));
    }

    #[test]
    fn remove_where_without_match_is_a_no_op() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), 'a');
        assert_eq!(q.remove_where(|&e| e == 'z'), None);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn advance_clock_moves_time_without_delivering() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(9), 'a');
        q.advance_clock(SimTime::from_secs(5));
        assert_eq!(q.now(), SimTime::from_secs(5));
        assert_eq!(q.len(), 1);
        // Scheduling relative to the advanced clock stays causal.
        q.schedule(SimTime::from_secs(5), 'b');
        assert_eq!(q.clamped_count(), 0);
    }

    #[test]
    #[should_panic(expected = "clock moved backwards")]
    fn advance_clock_refuses_to_rewind() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.advance_clock(SimTime::from_secs(5));
        q.advance_clock(SimTime::from_secs(4));
    }

    #[test]
    fn entries_expose_fifo_sequence_numbers() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 'a');
        q.schedule(SimTime::from_secs(2), 'b');
        let mut seen: Vec<(SimTime, u64, char)> =
            q.entries().map(|(t, s, &e)| (t, s, e)).collect();
        seen.sort();
        assert_eq!(seen.len(), 2);
        assert!(seen[0].1 < seen[1].1, "seq must break the tie");
        assert_eq!((seen[0].2, seen[1].2), ('a', 'b'));
    }

    #[test]
    fn the_last_slot_below_the_end_link_is_usable() {
        assert_eq!(fresh_slot(NIL as usize - 1), NIL - 1);
    }

    // Filling 2^24 slots for real would take hundreds of megabytes, so
    // the bound is exercised where `schedule` takes it from.
    #[test]
    #[should_panic(expected = "24-bit slot range is full")]
    fn a_full_slot_range_panics() {
        fresh_slot(NIL as usize);
    }

    #[test]
    fn freed_slots_are_reused() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            q.schedule(SimTime::from_secs(round), round);
            q.schedule(SimTime::from_secs(round), round);
            q.pop();
            q.pop();
        }
        assert_eq!(q.slab.len(), 2, "a drained queue refills its own slots");
    }

    #[test]
    fn cloned_queues_replay_identically() {
        let mut q = EventQueue::new();
        for i in 0..20u64 {
            q.schedule(SimTime::from_secs((i * 7) % 10), i);
        }
        let mut fork = q.clone();
        let a: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        let b: Vec<(SimTime, u64)> = std::iter::from_fn(|| fork.pop()).collect();
        assert_eq!(a, b);
    }
}
