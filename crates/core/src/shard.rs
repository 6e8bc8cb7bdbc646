//! Sharded deterministic executor: parallelism inside the latency
//! horizon, bit-for-bit identical to the serial runner.
//!
//! `cargo xtask horizon` (DESIGN.md §14) statically proves the
//! *lookahead* property of conservative parallel discrete-event
//! simulation for this world: every cross-node event is an
//! [`Event::Deliver`] scheduled exclusively inside `World::transmit`
//! with a delay of `now + latency (+ jitter…)`, and under
//! [`NetModel::Sampled`] every latency draw is bounded below by the
//! configured [`LatencyModel`] minimum. The committed `HORIZON.json` is
//! that proof's artifact; this module is its consumer.
//!
//! ## Execution model
//!
//! [`World::run_sharded`] advances the simulation in *windows* of one
//! latency floor: if the earliest pending event is at `T`, every event
//! in `[T, T + floor)` is causally closed — no handler running inside
//! the window can schedule a cross-node delivery that also lands inside
//! it (its delay is at least the floor). Per window:
//!
//! 1. **Barrier / snapshot** — record the event queue's sequence
//!    boundary and bucket the window's pending REQUEST/INFORM
//!    deliveries into per-region queues (region = destination node id
//!    mod shard count, a static overlay partition).
//! 2. **Parallel phase** — scoped worker threads (permits drawn from
//!    [`aria_sim::pool`], so scenarios × shards never oversubscribe the
//!    machine) precompute each delivery's candidate-cost quote — the
//!    pure, RNG-free kernel of the ACCEPT phase — against the frozen
//!    window-start state. Results merge into the world's bid cache in
//!    ascending region order.
//! 3. **Serial replay** — events are popped and handled in the exact
//!    global `(time, seq)` order of [`World::run`]; handlers consume
//!    cached quotes via `World::candidate_cost`. Before each event, a
//!    conservative purge drops every cached quote the event's handler
//!    could invalidate (see [`purge_for`](World::purge_for)), so a hit
//!    is always bit-identical to computing in place — debug builds
//!    re-derive every hit to prove it.
//!
//! Because replay order equals serial order and every consumed quote is
//! provably equal to the serially computed one, metrics, RNG streams,
//! probe traces and final state are bit-for-bit identical to
//! [`World::run`] *by construction* — `tests/sharded_parallel.rs` and
//! the CI probe-diff job pin it empirically.
//!
//! ## Runtime horizon audit
//!
//! The static proof is revalidated while running: the executor loads
//! `HORIZON.json` at compile time, checks the event-class table against
//! [`RUNTIME_CLASSES`] (drift panics with a regeneration hint), and
//! panics on any cross-node delivery popped inside the window it was
//! scheduled in — the dynamic counterpart of the analyzer's
//! `transmit-bypass`/`unbounded-delay` rules.

use crate::dense::JobTable;
use crate::net::NetModel;
use crate::world::{Event, NodeState, World};
#[cfg(debug_assertions)]
use crate::world::INVARIANT_STRIDE;
use crate::msg::Message;
use aria_grid::{Cost, JobId};
use aria_metrics::MetricsCollector;
use aria_overlay::NodeId;
use aria_probe::Probe;
use aria_sim::{pool, SimTime};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The committed latency-horizon contract, embedded at compile time so
/// a stale checkout cannot run sharded against a drifted proof.
pub const HORIZON_CONTRACT: &str =
    include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../HORIZON.json"));

/// Contract schema revision this executor understands.
const CONTRACT_VERSION: u64 = 1;

/// Below this many snapshot deliveries a window is precomputed on the
/// calling thread: spawning scoped workers costs more than the quotes.
const PARALLEL_THRESHOLD: usize = 64;

/// The runtime's own event classification, which must agree with the
/// analyzer's (`HORIZON.json` `events` table; kebab handler name →
/// class). [`HorizonContract::validate`] checks both directions, so an
/// `Event` variant added or reclassified on either side fails loudly
/// with a regeneration hint instead of silently missharding.
pub const RUNTIME_CLASSES: &[(&str, &str)] = &[
    ("accept-window-closed", "shard-local"),
    ("assign-timeout", "global"),
    ("crash", "global"),
    ("deliver", "cross-node"),
    ("dispatch-retry", "shard-local"),
    ("execution-complete", "shard-local"),
    ("inform-tick", "shard-local"),
    ("join", "global"),
    ("partition-end", "global"),
    ("partition-start", "global"),
    ("recover-job", "global"),
    ("retry-request", "shard-local"),
    ("sample", "global"),
    ("submit", "global"),
];

/// The parsed slice of `HORIZON.json` the executor relies on.
#[derive(Debug, Clone)]
pub struct HorizonContract {
    /// Schema revision (must equal [`CONTRACT_VERSION`]).
    pub version: u64,
    /// The default latency model's floor, for reporting only — the
    /// executor always takes the *configured* model's minimum.
    pub default_min_ms: u64,
    /// Event classification: kebab handler name → horizon class.
    pub classes: BTreeMap<String, String>,
}

impl HorizonContract {
    /// Parses the committed contract.
    pub fn load() -> Result<Self, String> {
        Self::parse(HORIZON_CONTRACT)
    }

    /// Minimal line-oriented parse of the analyzer's deterministic
    /// output (each `events` entry is one line; see `render_json` in
    /// crates/xtask/src/horizon.rs).
    fn parse(text: &str) -> Result<Self, String> {
        fn field_u64(text: &str, key: &str) -> Result<u64, String> {
            let tag = format!("\"{key}\": ");
            let start = text.find(&tag).ok_or_else(|| format!("HORIZON.json: no `{key}`"))?;
            let rest = &text[start + tag.len()..];
            let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().map_err(|_| format!("HORIZON.json: bad `{key}`"))
        }
        fn quoted_after<'t>(line: &'t str, tag: &str) -> Option<&'t str> {
            let rest = &line[line.find(tag)? + tag.len()..];
            rest.split('"').nth(1)
        }
        let version = field_u64(text, "version")?;
        let default_min_ms = field_u64(text, "default_min_ms")?;
        let mut classes = BTreeMap::new();
        let mut in_events = false;
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed == "\"events\": {" {
                in_events = true;
                continue;
            }
            if in_events {
                if trimmed.starts_with('}') {
                    break;
                }
                let name = trimmed
                    .split('"')
                    .nth(1)
                    .ok_or_else(|| format!("HORIZON.json: malformed events entry `{trimmed}`"))?;
                let class = quoted_after(trimmed, "\"class\": ")
                    .ok_or_else(|| format!("HORIZON.json: events entry without class `{trimmed}`"))?;
                classes.insert(name.to_string(), class.to_string());
            }
        }
        if classes.is_empty() {
            return Err("HORIZON.json: empty events table".into());
        }
        Ok(HorizonContract { version, default_min_ms, classes })
    }

    /// Asserts the contract matches this executor: the schema revision
    /// is understood and the event-class table equals
    /// [`RUNTIME_CLASSES`] exactly, both directions.
    pub fn validate(&self) -> Result<(), String> {
        if self.version != CONTRACT_VERSION {
            return Err(format!(
                "HORIZON.json version {} but this executor understands {CONTRACT_VERSION}",
                self.version
            ));
        }
        for &(name, class) in RUNTIME_CLASSES {
            match self.classes.get(name).map(String::as_str) {
                Some(c) if c == class => {}
                Some(c) => {
                    return Err(format!(
                        "HORIZON.json classifies `{name}` as `{c}` but the executor expects \
                         `{class}` — regenerate with `cargo xtask horizon` and review the drift"
                    ));
                }
                None => {
                    return Err(format!(
                        "HORIZON.json has no `{name}` entry — regenerate with `cargo xtask horizon`"
                    ));
                }
            }
        }
        for name in self.classes.keys() {
            if RUNTIME_CLASSES.binary_search_by(|(n, _)| n.cmp(&name.as_str())).is_err() {
                return Err(format!(
                    "HORIZON.json classifies `{name}` but the executor has no such event — \
                     update RUNTIME_CLASSES (crates/core/src/shard.rs)"
                ));
            }
        }
        Ok(())
    }
}

/// Whether a popped in-window event breaks the latency-horizon
/// contract: a cross-node delivery whose sequence number is at or past
/// the window barrier was scheduled *during* the window yet lands
/// inside it — possible only if an edge bypassed `World::transmit` or
/// quoted a sub-floor delay.
fn horizon_violation(event: &Event, seq: u64, boundary: u64) -> bool {
    seq >= boundary && matches!(event, Event::Deliver { .. })
}

/// Precomputes the candidate-cost quotes for one region bucket against
/// frozen window-start state. Pure: reads node state and interned
/// specs, draws no randomness, writes nothing.
/// One region's precomputed quotes, keyed exactly like `bid_cache`.
type RegionBids = Vec<((NodeId, JobId, SimTime), Cost)>;

fn bucket_bids(
    nodes: &[NodeState],
    jobs: &JobTable,
    bucket: &[(SimTime, NodeId, JobId)],
) -> RegionBids {
    let mut out = Vec::with_capacity(bucket.len());
    for &(at, to, job) in bucket {
        let node = &nodes[to.index()];
        if !node.alive {
            continue;
        }
        let spec = jobs.spec(job);
        if !World::<aria_probe::NullProbe>::node_can_bid(node, &spec) {
            continue;
        }
        out.push(((to, job, at), node.queue.cost_of_candidate(&spec, at, &node.profile)));
    }
    out
}

impl<P: Probe> World<P> {
    /// Runs the simulation to completion like [`World::run`], but
    /// windowed at the latency horizon with the per-window ACCEPT-phase
    /// cost quotes precomputed in parallel across `shards` regions (see
    /// the [module docs](self) for the execution model). Metrics, RNG
    /// draws, probe traces and final state are bit-for-bit identical to
    /// the serial runner at any shard count.
    ///
    /// # Panics
    ///
    /// * if `shards` is zero;
    /// * if the configured transport is [`NetModel::Lockstep`], which
    ///   collapses latencies to zero and leaves no horizon to window on;
    /// * if the embedded `HORIZON.json` fails [`HorizonContract::validate`];
    /// * on a runtime horizon violation — a cross-node delivery landing
    ///   inside the window that scheduled it.
    pub fn run_sharded(&mut self, shards: usize) -> &MetricsCollector {
        self.run_sharded_gated(shards, PARALLEL_THRESHOLD)
    }

    /// [`World::run_sharded`] with an explicit parallel-phase gate —
    /// tests pass 0 to force the scoped-thread path on tiny worlds.
    pub(crate) fn run_sharded_gated(
        &mut self,
        shards: usize,
        threshold: usize,
    ) -> &MetricsCollector {
        assert!(shards > 0, "run_sharded needs at least one shard");
        let contract = HorizonContract::load().expect("embedded HORIZON.json must parse");
        if let Err(drift) = contract.validate() {
            panic!("latency-horizon contract drift: {drift}");
        }
        let floor = match self.config.net {
            NetModel::Sampled => self.config.latency.min(),
            NetModel::Lockstep => panic!(
                "run_sharded requires NetModel::Sampled: Lockstep collapses latencies to \
                 zero, so there is no latency horizon to window on (HORIZON.json floor.guard)"
            ),
        };
        // LatencyModel::new rejects a zero minimum, so this only trips
        // on a constructor bypass.
        assert!(!floor.is_zero(), "latency floor must be positive to window on");

        while let Some(window_start) = self.events.peek_time() {
            let window_end = window_start + floor;
            let seq_boundary = self.events.next_seq();

            // Barrier snapshot: bucket the window's REQUEST/INFORM
            // deliveries into per-region queues.
            let mut buckets: Vec<Vec<(SimTime, NodeId, JobId)>> = vec![Vec::new(); shards];
            let mut snapshot = 0usize;
            self.events.entries_before(window_end, |at, _, event| {
                if let Event::Deliver { to, msg } = event {
                    let job = match msg {
                        Message::Request { job, .. } | Message::Inform { job, .. } => Some(*job),
                        Message::Accept { .. } | Message::Assign { .. } | Message::Ack { .. } => {
                            None
                        }
                    };
                    if let Some(job) = job {
                        buckets[to.index() % shards].push((at, *to, job));
                        snapshot += 1;
                    }
                }
            });

            // The cache is pure memoization — `candidate_cost` computes
            // on a miss, bit-identically — so the precompute only runs
            // when the pool actually grants extra workers. With a zero
            // grant (budget exhausted, or one shard) precomputing on
            // the calling thread would just shuffle the same serial
            // work around, plus purge losses.
            let reservation = pool::reserve(shards.saturating_sub(1));
            if snapshot >= threshold.max(1) && reservation.workers() > 0 {
                // Deterministic intra-region order (the queue iterates in
                // layout order); results merge in ascending region order.
                for bucket in &mut buckets {
                    bucket.sort_unstable();
                }
                let nodes = &self.nodes;
                let jobs = &self.jobs;
                let cursor = AtomicUsize::new(0);
                let claim = |out: &mut Vec<(usize, Vec<_>)>| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= buckets.len() {
                        break;
                    }
                    out.push((i, bucket_bids(nodes, jobs, &buckets[i])));
                };
                let mut computed: Vec<(usize, RegionBids)> =
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = (0..reservation.workers())
                            .map(|_| {
                                scope.spawn(|| {
                                    let mut out = Vec::new();
                                    claim(&mut out);
                                    out
                                })
                            })
                            .collect();
                        let mut all = Vec::new();
                        claim(&mut all);
                        for handle in handles {
                            all.extend(handle.join().expect("shard precompute worker panicked"));
                        }
                        all
                    });
                computed.sort_unstable_by_key(|&(region, _)| region);
                for (_, bids) in computed {
                    for (key, cost) in bids {
                        self.bid_cache.insert(key, cost);
                    }
                }
            }
            drop(reservation);

            // Serial replay in exact global (time, seq) order.
            while self.events.peek_time().is_some_and(|t| t < window_end) {
                let (now, seq, event) = self.events.pop_entry().expect("peeked event exists");
                if horizon_violation(&event, seq, seq_boundary) {
                    panic!(
                        "latency-horizon violation: cross-node delivery at {now} landed inside \
                         the open window [{window_start}, {window_end}) that scheduled it — \
                         World::transmit was bypassed or a delay undercut the latency floor \
                         ({floor}); rerun `cargo xtask horizon --check`"
                    );
                }
                self.purge_for(&event);
                self.processed += 1;
                self.handle(now, event);
                #[cfg(debug_assertions)]
                if self.processed.is_multiple_of(INVARIANT_STRIDE) {
                    self.check_invariants();
                }
            }
            self.bid_cache.clear();
        }
        #[cfg(debug_assertions)]
        self.check_invariants();
        &self.metrics
    }

    /// Drops every cached quote `event`'s handler could invalidate,
    /// *before* the handler runs.
    ///
    /// The table is deliberately conservative — purging a still-valid
    /// quote only costs a recompute (purity makes the recomputed value
    /// identical), while keeping a stale one would change results — so
    /// each arm covers every node whose queue, profile or liveness the
    /// handler can possibly touch:
    ///
    /// * ACCEPT may migrate a waiting job off its assignee's queue;
    ///   ASSIGN enqueues (and may start) on the assignee; ACK closes a
    ///   delegation on both endpoints.
    /// * `AcceptWindowClosed` self-assigns to the initiator when it won
    ///   its own auction; `ExecutionComplete`/`DispatchRetry`/
    ///   `InformTick` touch their node's executor and queue.
    /// * Join/Crash/RecoverJob/AssignTimeout can reshape liveness or
    ///   assign to arbitrary nodes — everything goes.
    /// * REQUEST/INFORM deliveries, submissions, samples and partition
    ///   edges read queues but never mutate them.
    fn purge_for(&mut self, event: &Event) {
        if self.bid_cache.is_empty() {
            return;
        }
        match event {
            Event::Deliver { to, msg } => match msg {
                Message::Request { .. } | Message::Inform { .. } => {}
                Message::Accept { .. } | Message::Assign { .. } => self.purge_node(*to),
                Message::Ack { from, .. } => {
                    let from = *from;
                    self.purge_node(*to);
                    self.purge_node(from);
                }
            },
            Event::AcceptWindowClosed { initiator, .. }
            | Event::RetryRequest { initiator, .. } => self.purge_node(*initiator),
            Event::ExecutionComplete { node, .. }
            | Event::InformTick { node }
            | Event::DispatchRetry { node } => self.purge_node(*node),
            Event::Submit { .. }
            | Event::Sample
            | Event::PartitionStart { .. }
            | Event::PartitionEnd { .. } => {}
            Event::Join
            | Event::Crash
            | Event::RecoverJob { .. }
            | Event::AssignTimeout { .. } => self.bid_cache.clear(),
        }
    }

    /// Drops every cached quote by node `node`.
    fn purge_node(&mut self, node: NodeId) {
        self.bid_cache.retain(|&(to, _, _), _| to != node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WorldConfig;
    use crate::fault::{FaultPlan, PartitionWindow};
    use aria_sim::{SimDuration, SimTime};
    use aria_workload::{JobGenerator, SubmissionSchedule};

    fn seeded_world(config: WorldConfig, seed: u64, jobs: usize) -> World {
        let mut world = World::new(config, seed);
        let mut generator = JobGenerator::paper_batch();
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(2), SimDuration::from_secs(45), jobs);
        world.submit_schedule(&schedule, &mut generator);
        world
    }

    #[test]
    fn contract_parses_and_matches_runtime_classes() {
        let contract = HorizonContract::load().expect("embedded contract parses");
        assert_eq!(contract.version, CONTRACT_VERSION);
        assert!(contract.default_min_ms > 0);
        assert_eq!(contract.classes.len(), RUNTIME_CLASSES.len());
        contract.validate().expect("committed HORIZON.json agrees with the executor");
    }

    #[test]
    fn validate_catches_drift_in_both_directions() {
        let mut contract = HorizonContract::load().unwrap();
        contract.classes.insert("deliver".into(), "global".into());
        assert!(contract.validate().unwrap_err().contains("deliver"));
        let mut contract = HorizonContract::load().unwrap();
        contract.classes.remove("sample");
        assert!(contract.validate().unwrap_err().contains("sample"));
        let mut contract = HorizonContract::load().unwrap();
        contract.classes.insert("teleport".into(), "cross-node".into());
        assert!(contract.validate().unwrap_err().contains("teleport"));
        let mut contract = HorizonContract::load().unwrap();
        contract.version = 99;
        assert!(contract.validate().unwrap_err().contains("99"));
    }

    #[test]
    fn horizon_violation_flags_only_fresh_deliveries() {
        let deliver = Event::Deliver {
            to: NodeId::new(0),
            msg: Message::Ack { from: NodeId::new(1), job: JobId::new(0) },
        };
        assert!(horizon_violation(&deliver, 10, 10));
        assert!(!horizon_violation(&deliver, 9, 10), "snapshot members are legal");
        assert!(!horizon_violation(&Event::Sample, 10, 10), "only cross-node events count");
    }

    #[test]
    fn sharded_run_matches_serial_bit_for_bit() {
        for seed in [7, 41] {
            let mut serial = seeded_world(WorldConfig::small_test(30), seed, 12);
            serial.run();
            let reference = format!("{serial:?}");
            for shards in [1, 2, 4] {
                let mut sharded = seeded_world(WorldConfig::small_test(30), seed, 12);
                sharded.run_sharded(shards);
                assert_eq!(
                    format!("{sharded:?}"),
                    reference,
                    "shards={shards} seed={seed} diverged from serial"
                );
            }
        }
    }

    #[test]
    fn forced_parallel_phase_stays_bit_for_bit_under_churn_and_faults() {
        let mut config = WorldConfig::small_test(24);
        config.joins = vec![SimTime::from_mins(3)];
        config.crashes = vec![SimTime::from_mins(5)];
        config.fault = FaultPlan {
            loss: 0.05,
            duplicate: 0.03,
            jitter_ms: 40,
            partitions: vec![PartitionWindow {
                start: SimTime::from_mins(4),
                duration: SimDuration::from_mins(2),
            }],
            keep: None,
        };
        let mut serial = seeded_world(config.clone(), 13, 10);
        serial.run();
        let reference = format!("{serial:?}");
        for shards in [2, 8] {
            let mut sharded = seeded_world(config.clone(), 13, 10);
            // Gate 0: every window takes the scoped-thread precompute
            // path, so purge rules and cache hits are exercised even at
            // this scale (debug builds re-derive every hit).
            sharded.run_sharded_gated(shards, 0);
            assert_eq!(format!("{sharded:?}"), reference, "shards={shards} diverged");
        }
    }

    #[test]
    #[should_panic(expected = "requires NetModel::Sampled")]
    fn lockstep_worlds_are_rejected() {
        let mut config = WorldConfig::small_test(8);
        config.net = NetModel::Lockstep;
        let mut world = seeded_world(config, 3, 2);
        world.run_sharded(2);
    }
}
