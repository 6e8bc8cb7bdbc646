//! The benchmark's counting [`Probe`] and the per-world outcome record.
//!
//! [`CountingProbe`] folds the simulator's probe events into the counts
//! the `core.*`, `grid.*` and `sim.*` per-layer metrics need. It only
//! observes: a probed world must reach the same [`Fingerprint`] as the
//! unprobed one, and the benchmark checks that it does.

use aria_core::World;
use aria_metrics::DeadlineStats;
use aria_overlay::NodeId;
use aria_probe::{FloodKind, Probe, ProbeEvent};
use aria_sim::SimTime;

/// Protocol-event counts of one or more probed worlds.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingProbe {
    /// `JobSubmitted` events.
    pub submitted: u64,
    /// REQUEST rounds opened (each closes with one offer-window event).
    pub request_rounds: u64,
    /// Empty offer windows that scheduled a retry round.
    pub retries: u64,
    /// Flood hops that arrived at a node, REQUEST and INFORM.
    pub flood_hops: u64,
    /// Of those, hops discarded as duplicates.
    pub flood_dups: u64,
    /// ACCEPT bids sent.
    pub bids: u64,
    /// Offers that landed in an open window.
    pub offers: u64,
    /// Initial assignments.
    pub assignments: u64,
    /// INFORM-triggered reschedules.
    pub reschedules: u64,
    /// Jobs entering a scheduler queue.
    pub enqueued: u64,
    /// Sum of queue depths after those inserts.
    pub depth_sum: u64,
    /// Executions started.
    pub started: u64,
    /// Executions completed.
    pub completed: u64,
    /// INFORM advertisements flooded.
    pub inform_rounds: u64,
    /// INFORM ticks that advertised at least one job.
    pub informing_ticks: u64,
    /// Nodes joined mid-run.
    pub joins: u64,
    /// Nodes crashed.
    pub crashes: u64,
    /// Periodic gauge samples.
    pub gauges: u64,
    /// Highest event-queue high-water mark any gauge reported.
    pub peak_pending: u64,
    last_inform: Option<(SimTime, NodeId)>,
}

impl Probe for CountingProbe {
    fn record(&mut self, now: SimTime, event: ProbeEvent) {
        match event {
            ProbeEvent::JobSubmitted { .. } => self.submitted += 1,
            ProbeEvent::RequestRound { .. } => self.request_rounds += 1,
            ProbeEvent::RetryScheduled { .. } => self.retries += 1,
            ProbeEvent::FloodHop { duplicate, .. } => {
                self.flood_hops += 1;
                self.flood_dups += u64::from(duplicate);
            }
            ProbeEvent::BidSent {
                kind: FloodKind::Request | FloodKind::Inform,
                ..
            } => self.bids += 1,
            ProbeEvent::OfferReceived { .. } => self.offers += 1,
            ProbeEvent::Assigned { reschedule, .. } => {
                if reschedule {
                    self.reschedules += 1;
                } else {
                    self.assignments += 1;
                }
            }
            ProbeEvent::Enqueued { depth, .. } => {
                self.enqueued += 1;
                self.depth_sum += u64::from(depth);
            }
            ProbeEvent::Started { .. } => self.started += 1,
            ProbeEvent::Completed { .. } => self.completed += 1,
            ProbeEvent::InformRound { node, .. } => {
                self.inform_rounds += 1;
                // One tick advertises its whole batch at one instant.
                if self.last_inform != Some((now, node)) {
                    self.informing_ticks += 1;
                    self.last_inform = Some((now, node));
                }
            }
            ProbeEvent::NodeJoined { .. } => self.joins += 1,
            ProbeEvent::NodeCrashed { .. } => self.crashes += 1,
            ProbeEvent::Gauge { peak_events, .. } => {
                self.gauges += 1;
                self.peak_pending = self.peak_pending.max(peak_events);
            }
            _ => {}
        }
    }
}

impl CountingProbe {
    /// Adds another world's counts into this one.
    pub fn absorb(&mut self, other: &CountingProbe) {
        self.submitted += other.submitted;
        self.request_rounds += other.request_rounds;
        self.retries += other.retries;
        self.flood_hops += other.flood_hops;
        self.flood_dups += other.flood_dups;
        self.bids += other.bids;
        self.offers += other.offers;
        self.assignments += other.assignments;
        self.reschedules += other.reschedules;
        self.enqueued += other.enqueued;
        self.depth_sum += other.depth_sum;
        self.started += other.started;
        self.completed += other.completed;
        self.inform_rounds += other.inform_rounds;
        self.informing_ticks += other.informing_ticks;
        self.joins += other.joins;
        self.crashes += other.crashes;
        self.gauges += other.gauges;
        self.peak_pending = self.peak_pending.max(other.peak_pending);
    }

    /// One line of the counts no metric reports on its own.
    pub fn summary(&self) -> String {
        format!(
            "{} bids, {} offers in {} REQUEST rounds, {} assignments vs {} reschedules, {} INFORM rounds",
            self.bids, self.offers, self.request_rounds, self.assignments, self.reschedules, self.inform_rounds
        )
    }

    /// INFORM ticks a finished world drained, derived from its event
    /// count: every event that is not a tick is either one message
    /// delivery (the traffic ledger counts each transmitted message once,
    /// and with no fault plan each becomes exactly one delivery event) or
    /// a timer these counts account for one to one. Valid for worlds
    /// without a fault plan or advance reservations, which is every world
    /// the benchmark runs.
    pub fn inform_ticks(&self, events: u64, messages: u64) -> u64 {
        let other = messages
            + self.submitted // Submit
            + self.request_rounds // AcceptWindowClosed
            + self.retries // RetryRequest
            + self.started // ExecutionComplete
            + self.joins
            + self.crashes
            + self.gauges; // Sample
        events.saturating_sub(other)
    }
}

/// What must not change when a world is probed or traced: the work the
/// simulation did and its outcome, bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    /// Events drained.
    pub events: u64,
    /// Protocol messages sent.
    pub messages: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Bits of the mean completion time.
    pub completion_mean_bits: u64,
}

/// The outcome of one finished ARiA world, as the end-to-end metrics and
/// the conservation check need it.
#[derive(Debug, Clone)]
pub struct WorldOutcome {
    /// The run's fingerprint.
    pub fingerprint: Fingerprint,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs not completed exactly once.
    pub failed: u64,
    /// Submit→complete times of completed jobs, seconds.
    pub completions: Vec<f64>,
    /// Protocol bytes sent.
    pub bytes: u64,
    /// Deadline statistics.
    pub deadline: DeadlineStats,
}

impl WorldOutcome {
    /// Reads the outcome off a finished world that was given `submitted`
    /// jobs. This is the summary work `Runner::run_once` does after a run
    /// (completion/waiting/execution summaries, percentiles, deadline
    /// statistics), so it doubles as the `metrics` layer's workload.
    pub fn of<P: Probe>(world: &World<P>, submitted: u64) -> Self {
        let metrics = world.metrics();
        let mut completions: Vec<f64> = metrics
            .records()
            .values()
            .filter_map(|r| r.completion_time())
            .map(|d| d.as_secs_f64())
            .collect();
        let summary = metrics.completion_summary();
        // The rest of the per-run summary work the runner does.
        let _ = (
            metrics.waiting_summary(),
            metrics.execution_summary(),
            metrics.reschedule_summary(),
        );
        completions.sort_by(f64::total_cmp);
        let completed_once = completions.len() as u64;
        // A job completed twice bumps the counter without adding a record.
        let duplicates = metrics.completed_count().saturating_sub(completed_once);
        WorldOutcome {
            fingerprint: Fingerprint {
                events: world.processed_events(),
                messages: metrics.traffic().total_messages(),
                completed: metrics.completed_count(),
                completion_mean_bits: summary.mean().to_bits(),
            },
            submitted,
            failed: submitted.saturating_sub(completed_once) + duplicates,
            completions,
            bytes: metrics.traffic().total_bytes(),
            deadline: metrics.deadline_stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aria_core::{World, WorldConfig};
    use aria_sim::SimDuration;
    use aria_workload::{JobGenerator, SubmissionSchedule};

    fn small_world<P: Probe>(probe: P) -> World<P> {
        let mut world = World::with_probe(WorldConfig::small_test(40), 7, probe);
        let schedule =
            SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_mins(1), 30);
        world.submit_schedule(&schedule, &mut JobGenerator::paper_batch());
        world
    }

    #[test]
    fn probing_does_not_change_the_run() {
        let mut plain = small_world(aria_probe::NullProbe);
        plain.run();
        let mut probed = small_world(CountingProbe::default());
        probed.run();
        assert_eq!(
            WorldOutcome::of(&plain, 30).fingerprint,
            WorldOutcome::of(&probed, 30).fingerprint
        );
        let counts = probed.probe();
        assert_eq!(counts.submitted, 30);
        assert_eq!(counts.completed, 30);
        assert!(counts.flood_hops > counts.flood_dups);
        assert!(counts.informing_ticks <= counts.inform_rounds);
    }

    #[test]
    fn derived_tick_count_matches_the_tick_schedule() {
        let mut world = small_world(CountingProbe::default());
        world.run();
        let config = world.config().clone();
        let messages = world.metrics().traffic().total_messages();
        let ticks = world
            .probe()
            .inform_ticks(world.processed_events(), messages);
        // Each node ticks at a random offset in [0, period), then every
        // period through the horizon, plus the one tick that ends the
        // chain past it.
        let period = config.aria.inform_period.as_millis();
        let per_node = config.horizon.as_millis() / period + 1;
        let nodes = config.nodes as u64;
        assert!(
            (nodes * per_node..=nodes * (per_node + 1)).contains(&ticks),
            "{ticks} ticks derived for {nodes} nodes x ~{per_node}"
        );
    }

    #[test]
    fn outcome_counts_every_job_once() {
        let mut world = small_world(aria_probe::NullProbe);
        world.run();
        let outcome = WorldOutcome::of(&world, 30);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.completions.len(), 30);
        assert!(outcome.completions.windows(2).all(|w| w[0] <= w[1]));
        // Submitting more than ran counts the difference as failed.
        assert_eq!(WorldOutcome::of(&world, 32).failed, 2);
    }
}
