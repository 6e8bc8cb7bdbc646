//! Property-based tests for the simulation kernel: event ordering,
//! statistics algebra and time arithmetic.

use aria_sim::event::TIME_BITS;
use aria_sim::{stats, EventQueue, SimDuration, SimRng, SimTime, Summary, TimeSeries};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// The reference the queue is checked against: a sorted map keyed by
/// `(time, seq)`, the order every pop must follow.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), u64>,
    next_seq: u64,
    now: SimTime,
    peak: usize,
}

impl Model {
    fn schedule(&mut self, queue: &mut EventQueue<u64>, at: SimTime) {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The payload is the seq xor a constant, so a pop that breaks a
        // tie out of seq order shows in the payloads it returns.
        queue.schedule(at, seq ^ 0x5eed);
        self.pending.insert((at, seq), seq ^ 0x5eed);
        self.peak = self.peak.max(self.pending.len());
    }

    fn first(&self) -> Option<(SimTime, u64, u64)> {
        self.entries().next()
    }

    /// `(time, seq, event)` in pop order.
    fn entries(&self) -> impl Iterator<Item = (SimTime, u64, u64)> + '_ {
        self.pending.iter().map(|(&(at, seq), &e)| (at, seq, e))
    }
}

/// The latest instant the queue accepts.
const MAX_MS: u64 = (1 << TIME_BITS) - 1;

/// Applies `ops` to a queue and to the model, comparing after each one.
/// Each op is `(kind, parameter)`; kinds cover zero-delay, short,
/// equal-instant burst, power-of-two-boundary and beyond-2^32-ms
/// schedules, pops, peeks, `remove_where`, `advance_clock` and `clone`.
fn check_against_model(ops: &[(u8, u64)]) -> Result<(), TestCaseError> {
    let mut queue = EventQueue::new();
    let mut model = Model::default();
    for &(kind, p) in ops {
        let now = model.now.as_millis();
        let at = |ms: u64| SimTime::from_millis(ms.clamp(now, MAX_MS));
        match kind {
            0 => model.schedule(&mut queue, model.now),
            1..=3 => model.schedule(&mut queue, at(now + p % 500)),
            4 => {
                let instant = at(now + p % 50);
                for _ in 0..1 + p % 7 {
                    model.schedule(&mut queue, instant);
                }
            }
            5 | 6 => {
                // Just below, on and just above the next multiple of 2^k.
                let k = p % u64::from(TIME_BITS - 2);
                let boundary = ((now >> k) + 1) << k;
                model.schedule(&mut queue, at(boundary - 1 + (p >> 8) % 3));
            }
            7 => model.schedule(&mut queue, at((1 << 32) + now + p % (1 << 34))),
            8..=11 => {
                let popped = queue.pop();
                let expected = model.first();
                prop_assert_eq!(popped, expected.map(|(at, _, e)| (at, e)), "pop");
                if let Some((at, seq, _)) = expected {
                    model.pending.remove(&(at, seq));
                    model.now = at;
                }
                prop_assert_eq!(queue.now(), model.now, "clock after pop");
            }
            12 => {
                let expected = model.first();
                prop_assert_eq!(queue.peek_time(), expected.map(|(at, _, _)| at), "peek_time");
                let peeked = queue.peek().map(|(at, &e)| (at, e));
                prop_assert_eq!(peeked, expected.map(|(at, _, e)| (at, e)), "peek");
            }
            13 => {
                let (modulus, rest) = (2 + p % 5, (p >> 8) % 2);
                let pred = |e: &u64| e % modulus == rest;
                let expected = model.pending.iter().find(|(_, e)| pred(e)).map(|(&k, &e)| (k, e));
                let removed = queue.remove_where(pred);
                prop_assert_eq!(removed, expected.map(|((at, _), e)| (at, e)), "remove_where");
                if let Some((key, _)) = expected {
                    model.pending.remove(&key);
                }
                prop_assert_eq!(queue.now(), model.now, "remove_where must not move the clock");
            }
            14 => {
                let to = at(now + p % 2_000);
                queue.advance_clock(to);
                model.now = to;
            }
            _ => queue = queue.clone(),
        }
        prop_assert_eq!(queue.len(), model.pending.len(), "len");
        prop_assert_eq!(queue.peak_len(), model.peak, "peak_len");
        let mut entries: Vec<_> = queue.entries().map(|(at, seq, &e)| (at, seq, e)).collect();
        entries.sort_unstable();
        prop_assert_eq!(entries, model.entries().collect::<Vec<_>>(), "entries");
    }
    // Drain: the rest must come out in exactly the model's order.
    let drained: Vec<_> = std::iter::from_fn(|| queue.pop()).collect();
    let expected: Vec<_> = model.entries().map(|(at, _, e)| (at, e)).collect();
    prop_assert_eq!(drained, expected, "drain");
    prop_assert_eq!(queue.clamped_count(), 0);
    Ok(())
}

proptest! {
    /// The event queue matches a `BTreeMap` reference over random
    /// interleavings of every operation: pop order, peeks, `entries()`,
    /// `len` and `peak_len`.
    #[test]
    fn event_queue_matches_a_sorted_map_model(
        ops in proptest::collection::vec((0u8..16, any::<u64>()), 0..600),
    ) {
        check_against_model(&ops)?;
    }

    /// The event queue is a stable priority queue: output is sorted by
    /// time, and equal-time events keep insertion order.
    #[test]
    fn event_queue_is_stable_and_sorted(times in proptest::collection::vec(0u64..1000, 0..300)) {
        let mut queue = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            queue.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut out = Vec::new();
        while let Some((at, (t, i))) = queue.pop() {
            prop_assert_eq!(at, SimTime::from_millis(t));
            out.push((t, i));
        }
        prop_assert_eq!(out.len(), times.len());
        // Sorted by (time, insertion index): exactly a stable sort.
        let mut expected: Vec<(u64, usize)> = times.iter().copied().zip(0..).collect();
        expected.sort_by_key(|&(t, i)| (t, i));
        prop_assert_eq!(out, expected);
    }

    /// Summary::merge is associative with respect to the data: merging
    /// partitions equals summarizing the concatenation.
    #[test]
    fn summary_merge_equals_concatenation(
        left in proptest::collection::vec(-1e6f64..1e6, 0..100),
        right in proptest::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged: Summary = left.iter().copied().collect();
        let rhs: Summary = right.iter().copied().collect();
        merged.merge(&rhs);
        let full: Summary = left.iter().chain(right.iter()).copied().collect();
        prop_assert_eq!(merged.count(), full.count());
        prop_assert!((merged.mean() - full.mean()).abs() <= 1e-6 * (1.0 + full.mean().abs()));
        prop_assert!(
            (merged.variance() - full.variance()).abs()
                <= 1e-5 * (1.0 + full.variance().abs())
        );
        prop_assert_eq!(merged.min(), full.min());
        prop_assert_eq!(merged.max(), full.max());
    }

    /// Percentiles are order statistics: within [min, max], monotone in q,
    /// and members of the sample.
    #[test]
    fn percentile_is_an_order_statistic(
        values in proptest::collection::vec(-1e6f64..1e6, 1..100),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = stats::percentile(&values, lo);
        let p_hi = stats::percentile(&values, hi);
        prop_assert!(p_lo <= p_hi);
        prop_assert!(values.contains(&p_lo));
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p_lo >= min && p_hi <= max);
    }

    /// Time arithmetic: (t + d) - d == t and saturating_since is the
    /// inverse of addition.
    #[test]
    fn time_arithmetic_round_trips(t in 0u64..1_000_000_000, d in 0u64..1_000_000) {
        let time = SimTime::from_millis(t);
        let duration = SimDuration::from_millis(d);
        let later = time + duration;
        prop_assert_eq!(later - duration, time);
        prop_assert_eq!(later.saturating_since(time), duration);
        prop_assert_eq!(time.saturating_since(later), SimDuration::ZERO);
        prop_assert_eq!(later.signed_delta(time), d as i64);
    }

    /// Duration scaling: div then mul by the same factor stays within
    /// rounding error of the original.
    #[test]
    fn duration_scaling_round_trips(ms in 1000u64..100_000_000, factor in 1.0f64..2.0) {
        let d = SimDuration::from_millis(ms);
        let there_and_back = d.div_f64(factor).mul_f64(factor);
        let error = there_and_back.as_millis().abs_diff(d.as_millis());
        prop_assert!(error <= 2, "{d} -> {there_and_back}");
    }

    /// Forked RNG streams are reproducible and chance() frequencies track
    /// their probability.
    #[test]
    fn rng_forks_reproduce(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::seed_from(seed);
        let mut b = SimRng::seed_from(seed);
        let mut fa = a.fork(stream);
        let mut fb = b.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(fa.next_u64(), fb.next_u64());
        }
    }

    /// TimeSeries::average of identical series is the series itself, and
    /// thinning preserves the first sample.
    #[test]
    fn series_average_identity(values in proptest::collection::vec(-1e3f64..1e3, 1..50)) {
        let mut ts = TimeSeries::new(SimDuration::from_mins(1));
        for &v in &values {
            ts.push(v);
        }
        let avg = TimeSeries::average([&ts, &ts]).unwrap();
        prop_assert_eq!(avg.values(), ts.values());
        let thinned = ts.thin(3);
        prop_assert_eq!(thinned.values()[0], values[0]);
    }
}

/// Instants past the packed time range are refused loudly, never
/// wrapped into an earlier bucket.
#[test]
#[should_panic(expected = "exceeds the queue's 40-bit range")]
fn event_queue_refuses_instants_past_the_time_range() {
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::from_millis(MAX_MS), 'a');
    queue.schedule(SimTime::from_millis(MAX_MS + 1), 'b');
}

/// The latest representable instant still orders correctly against an
/// early one.
#[test]
fn event_queue_orders_the_extremes_of_the_time_range() {
    let mut queue = EventQueue::new();
    queue.schedule(SimTime::from_millis(MAX_MS), 'z');
    queue.schedule(SimTime::from_millis(1 << 32), 'm');
    queue.schedule(SimTime::ZERO, 'a');
    let order: Vec<(u64, char)> =
        std::iter::from_fn(|| queue.pop().map(|(at, e)| (at.as_millis(), e))).collect();
    assert_eq!(order, [(0, 'a'), (1 << 32, 'm'), (MAX_MS, 'z')]);
}
