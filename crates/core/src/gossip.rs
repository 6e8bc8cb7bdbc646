//! The gossip-dissemination baseline (reference \[25\] of the paper:
//! Erdil & Lewis, P2P 2007).
//!
//! The paper's related work contrasts ARiA's on-demand REQUEST floods
//! with protocols that "disseminat\[e\] the state of the available
//! resources across the grid; this information is cached by remote nodes
//! and used to optimally allocate incoming jobs". This module implements
//! that scheme over the same substrate: nodes periodically push load
//! digests to random overlay neighbors, every node accumulates a
//! (staleness-prone) cache of remote backlogs, and job submissions are
//! placed straight from the initiator's cache — no discovery round trip,
//! but decisions are made on old news.
//!
//! The comparison it enables: proactive state dissemination pays a
//! constant gossip bandwidth and places jobs instantly on cached (stale)
//! state, while ARiA pays per-job flood bandwidth for fresh offers plus
//! rescheduling. Node resource *profiles* (architecture, OS, capacities)
//! are static metadata assumed globally known here — in a deployment they
//! would ride along the same gossip messages once.

use aria_grid::{JobSpec, NodeProfile, SchedulerQueue};
use aria_metrics::{MetricsCollector, TrafficClass};
use aria_overlay::{builders, LatencyModel, Topology};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{ArtModel, JobGenerator, ProfileGenerator, SubmissionSchedule};
use std::cmp::Reverse;

use crate::config::PolicyMix;

/// One cached observation of a remote node's load.
#[derive(Debug, Clone, Copy, PartialEq)]
struct CacheEntry {
    /// The remote queue's estimated backlog when observed.
    backlog: SimDuration,
    /// When the observation was made (at the observed node).
    observed_at: SimTime,
}

/// A gossip digest: a bounded set of the sender's freshest observations,
/// ordered by `(Reverse(observed_at), id)`.
type Digest = Vec<(usize, CacheEntry)>;

/// The order digests are kept in: freshest first, ties by lower id.
fn digest_key(&(id, entry): &(usize, CacheEntry)) -> (Reverse<SimTime>, usize) {
    (Reverse(entry.observed_at), id)
}

/// One node's view of the grid: its freshest observation of every node,
/// dense by node id, plus the `digest_size` freshest of those, kept
/// sorted so a gossip round sends it as is.
///
/// The digest is exact because an entry is only ever replaced by one at
/// least as fresh: an entry outside the top k can re-enter only when its
/// own key improves, and that goes through [`Cache::observe`] like every
/// other update.
#[derive(Debug, Clone)]
struct Cache {
    entries: Vec<Option<CacheEntry>>,
    digest: Digest,
}

impl Cache {
    fn new(nodes: usize) -> Self {
        Cache { entries: vec![None; nodes], digest: Vec::new() }
    }

    /// Records `entry` as the observation of `node` (never staler than
    /// the one it replaces) and keeps the digest the `digest_size`
    /// smallest [`digest_key`]s of the cache, in O(`digest_size`).
    fn observe(&mut self, node: usize, entry: CacheEntry, digest_size: usize) {
        let old = self.entries[node].replace(entry);
        debug_assert!(
            old.is_none_or(|old| old.observed_at <= entry.observed_at),
            "cache entries only get fresher"
        );
        let key = digest_key(&(node, entry));
        let pos = self.digest.partition_point(|kept| digest_key(kept) < key);
        // A kept old entry's key is no better than the new one, so it
        // sits at or after `pos`: shift the run between them by one.
        let kept = old.and_then(|_| self.digest[pos..].iter().position(|&(id, _)| id == node));
        if let Some(offset) = kept {
            self.digest[pos..=pos + offset].rotate_right(1);
            self.digest[pos] = (node, entry);
        } else if pos < digest_size {
            if self.digest.len() == digest_size {
                self.digest.pop();
            }
            self.digest.insert(pos, (node, entry));
        }
    }

    /// The known nodes with their observations, in id order.
    fn known(&self) -> impl Iterator<Item = (usize, CacheEntry)> + '_ {
        self.entries.iter().enumerate().filter_map(|(id, entry)| entry.map(|e| (id, e)))
    }
}

#[derive(Debug, Clone)]
enum Event {
    Submit { job: JobSpec },
    Complete { node: usize },
    GossipTick { node: usize },
    DeliverDigest { to: usize, digest: Digest },
    Sample,
}

/// A grid scheduled from gossip-disseminated load caches.
///
/// # Example
///
/// ```
/// use aria_core::{GossipScheduler, PolicyMix};
/// use aria_workload::{JobGenerator, SubmissionSchedule};
/// use aria_sim::{SimDuration, SimTime};
///
/// let mut grid = GossipScheduler::new(
///     50,
///     PolicyMix::paper_mixed(),
///     SimTime::from_hours(12),
///     SimDuration::from_mins(5),
///     1,
/// );
/// let mut jobs = JobGenerator::paper_batch();
/// let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_mins(1), 10);
/// grid.submit_schedule(&schedule, &mut jobs);
/// assert_eq!(grid.run().completed_count(), 10);
/// ```
#[derive(Debug)]
pub struct GossipScheduler {
    profiles: Vec<NodeProfile>,
    queues: Vec<SchedulerQueue>,
    caches: Vec<Cache>,
    topology: Topology,
    events: EventQueue<Event>,
    metrics: MetricsCollector,
    rng: SimRng,
    art: ArtModel,
    horizon: SimTime,
    sample_period: SimDuration,
    /// How often each node pushes a digest (anti-entropy period).
    gossip_period: SimDuration,
    /// Neighbors contacted per gossip round.
    fanout: usize,
    /// Entries carried per digest.
    digest_size: usize,
    latency: LatencyModel,
    /// Scratch buffer for per-round neighbor sampling (reused so the
    /// gossip hot loop does not allocate).
    peers: Vec<aria_overlay::NodeId>,
    /// Digest buffers whose delivery has been merged, reused by the next
    /// gossip rounds so sending a digest does not allocate.
    spare_digests: Vec<Digest>,
}

impl GossipScheduler {
    /// Builds a gossiping grid; deterministic in the seed, with the same
    /// node distributions as the ARiA [`crate::World`] and a degree-4
    /// random overlay for gossip peering (complete below five nodes).
    pub fn new(
        nodes: usize,
        policies: PolicyMix,
        horizon: SimTime,
        sample_period: SimDuration,
        seed: u64,
    ) -> Self {
        let mut rng = SimRng::seed_from(seed);
        let mut overlay_rng = rng.fork(1);
        let mut profile_rng = rng.fork(2);
        let latency = LatencyModel::default();
        let degree = 4.min(nodes.saturating_sub(1));
        let topology = builders::random_regular(nodes, degree, &latency, &mut overlay_rng);
        let generator = ProfileGenerator::paper();
        let profiles: Vec<NodeProfile> =
            (0..nodes).map(|_| generator.generate(&mut profile_rng)).collect();
        let queues: Vec<SchedulerQueue> =
            (0..nodes).map(|_| SchedulerQueue::new(policies.sample(&mut profile_rng))).collect();

        let mut events = EventQueue::new();
        events.schedule(SimTime::ZERO, Event::Sample);
        let gossip_period = SimDuration::from_mins(1);
        let mut scheduler = GossipScheduler {
            profiles,
            queues,
            caches: vec![Cache::new(nodes); nodes],
            topology,
            events,
            metrics: MetricsCollector::new(sample_period),
            rng,
            art: ArtModel::paper_baseline(),
            horizon,
            sample_period,
            gossip_period,
            fanout: 2,
            digest_size: 16,
            latency,
            peers: Vec::new(),
            spare_digests: Vec::new(),
        };
        // Stagger the gossip rounds like ARiA staggers INFORM ticks.
        for node in 0..nodes {
            let offset = SimDuration::from_millis(
                scheduler.rng.u64_range(0, gossip_period.as_millis().max(1)),
            );
            scheduler.events.schedule(SimTime::ZERO + offset, Event::GossipTick { node });
        }
        scheduler
    }

    /// Node profiles (for feasibility resampling).
    pub fn profiles(&self) -> &[NodeProfile] {
        &self.profiles
    }

    /// Schedules a job submission (to a random initiator at event time).
    pub fn submit_job(&mut self, at: SimTime, job: JobSpec) {
        self.events.schedule(at, Event::Submit { job });
    }

    /// Generates and schedules one feasible job per schedule instant.
    pub fn submit_schedule(&mut self, schedule: &SubmissionSchedule, jobs: &mut JobGenerator) {
        let mut workload_rng = self.rng.fork(3);
        let profiles = self.profiles.clone();
        for at in schedule.times() {
            let job = jobs.generate_feasible(at, &profiles, &mut workload_rng);
            self.submit_job(at, job);
        }
    }

    /// Runs to completion and returns the metrics.
    pub fn run(&mut self) -> &MetricsCollector {
        while let Some((now, event)) = self.events.pop() {
            match event {
                Event::Submit { job } => self.place(now, job),
                Event::Complete { node } => self.complete(now, node),
                Event::GossipTick { node } => self.gossip_tick(now, node),
                Event::DeliverDigest { to, digest } => {
                    self.merge_digest(to, &digest);
                    self.spare_digests.push(digest);
                }
                Event::Sample => self.sample(now),
            }
        }
        &self.metrics
    }

    /// Places a job from the initiator's cache: the cached matching node
    /// with the smallest *observed* backlog (ties: oldest id). Nodes the
    /// initiator has never heard of count as idle candidates only when
    /// the cache has no matching entry at all (cold-start fallback).
    fn place(&mut self, now: SimTime, job: JobSpec) {
        self.metrics.job_submitted(&job, now);
        let initiator = self.rng.index(self.queues.len());
        let matches = |i: usize| {
            job.requirements.matches(&self.profiles[i])
                && self.queues[i].policy().is_batch() != job.is_deadline()
        };
        let cached_best = self.caches[initiator]
            .known()
            .filter(|&(i, _)| matches(i))
            .min_by_key(|&(i, entry)| (entry.backlog, i))
            .map(|(i, _)| i);
        let target = cached_best.or_else(|| {
            // Cold start: the cache knows no matching node yet; fall back
            // to a random matching node (a real system would flood or
            // wait — this keeps the comparison fair to gossip).
            let candidates: Vec<usize> = (0..self.queues.len()).filter(|&i| matches(i)).collect();
            if candidates.is_empty() {
                None
            } else {
                Some(*self.rng.choose(&candidates))
            }
        });
        let Some(target) = target else {
            return; // infeasible: the record stays incomplete
        };
        // The placement travels as one ASSIGN-class message.
        self.metrics.record_message(TrafficClass::Assign);
        self.metrics.job_assigned(job.id, now, false);
        let profile = self.profiles[target];
        self.queues[target].enqueue(job, now, &profile);
        self.try_start(now, target);
    }

    fn try_start(&mut self, now: SimTime, node: usize) {
        let Some(running) = self.queues[node].start_next(now) else {
            return;
        };
        let spec = running.spec;
        let ertp = running.expected_end.saturating_since(running.started_at);
        let art = self.art.actual_running_time(spec.ert, ertp, &mut self.rng);
        self.metrics.job_started(spec.id, node as u32, now);
        self.events.schedule(now + art, Event::Complete { node });
    }

    fn complete(&mut self, now: SimTime, node: usize) {
        let finished = self.queues[node].complete_running().expect("running job completes");
        self.metrics.job_completed(finished.spec.id, now);
        self.try_start(now, node);
    }

    /// One gossip round: push the freshest `digest_size` observations
    /// (own state always included) to `fanout` random neighbors.
    fn gossip_tick(&mut self, now: SimTime, node: usize) {
        if now > self.horizon {
            return; // stop the periodic chain
        }
        // Refresh the node's own entry; it is now the freshest one.
        let own = CacheEntry { backlog: self.queues[node].backlog(now), observed_at: now };
        self.caches[node].observe(node, own, self.digest_size);

        let node_id = aria_overlay::NodeId::new(node as u32);
        // Reuse the scratch peer buffer; the draw sequence matches the
        // allocating sampler, so seeded runs are unchanged.
        let mut peers = std::mem::take(&mut self.peers);
        self.topology.sample_neighbors_into(node_id, self.fanout, None, &mut self.rng, &mut peers);
        for &neighbor in &peers {
            // Gossip digests are INFORM-sized state messages.
            self.metrics.record_message(TrafficClass::Inform);
            let delay = self.latency.sample(&mut self.rng);
            let mut digest = self.spare_digests.pop().unwrap_or_default();
            digest.clear();
            digest.extend_from_slice(&self.caches[node].digest);
            self.events
                .schedule(now + delay, Event::DeliverDigest { to: neighbor.index(), digest });
        }
        self.peers = peers;
        self.events.schedule(now + self.gossip_period, Event::GossipTick { node });
    }

    /// Anti-entropy merge: keep the freshest observation per node.
    fn merge_digest(&mut self, to: usize, digest: &[(usize, CacheEntry)]) {
        let cache = &mut self.caches[to];
        for &(node, entry) in digest {
            if node == to {
                continue; // a node is its own best source of truth
            }
            if cache.entries[node].is_none_or(|known| known.observed_at < entry.observed_at) {
                cache.observe(node, entry, self.digest_size);
            }
        }
    }

    fn sample(&mut self, now: SimTime) {
        let idle = self.queues.iter().filter(|q| q.is_idle()).count();
        let queued = self.queues.iter().map(|q| q.waiting_len()).sum();
        self.metrics.sample_gauges(idle, queued);
        let next = now + self.sample_period;
        if next <= self.horizon {
            self.events.schedule(next, Event::Sample);
        }
    }

    /// The metrics collected so far.
    pub fn metrics(&self) -> &MetricsCollector {
        &self.metrics
    }

    /// How many distinct nodes the average cache currently knows (a
    /// node's own entry counts once its first gossip round has run).
    pub fn avg_cache_coverage(&self) -> f64 {
        if self.caches.is_empty() {
            return 0.0;
        }
        let known: usize = self.caches.iter().map(|cache| cache.known().count()).sum();
        known as f64 / self.caches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scheduler(seed: u64) -> GossipScheduler {
        GossipScheduler::new(
            40,
            PolicyMix::paper_mixed(),
            SimTime::from_hours(12),
            SimDuration::from_mins(5),
            seed,
        )
    }

    fn submit(grid: &mut GossipScheduler, count: usize, interval_secs: u64) {
        let mut jobs = JobGenerator::paper_batch();
        let schedule = SubmissionSchedule::new(
            SimTime::from_mins(5),
            SimDuration::from_secs(interval_secs),
            count,
        );
        grid.submit_schedule(&schedule, &mut jobs);
    }

    #[test]
    fn completes_all_jobs() {
        let mut grid = scheduler(1);
        submit(&mut grid, 40, 30);
        assert_eq!(grid.run().completed_count(), 40);
    }

    #[test]
    fn gossip_spreads_state_across_the_grid() {
        let mut grid = scheduler(2);
        // No jobs: just let gossip run for a while.
        grid.run();
        // After 12h of one-minute rounds every cache should know a large
        // share of the 40-node grid.
        assert!(
            grid.avg_cache_coverage() > 30.0,
            "avg cache coverage {}",
            grid.avg_cache_coverage()
        );
    }

    #[test]
    fn gossip_traffic_is_constant_state_dissemination() {
        let mut grid = scheduler(3);
        submit(&mut grid, 20, 60);
        let metrics = grid.run();
        // Inform-class messages: fanout 2 per node per minute over 12h.
        let informs = metrics.traffic().messages(TrafficClass::Inform);
        let expected = 40 * 2 * 12 * 60;
        assert!(
            (informs as f64) > expected as f64 * 0.9 && (informs as f64) < expected as f64 * 1.1,
            "informs = {informs}, expected ≈ {expected}"
        );
        // One ASSIGN per placed job, no REQUEST floods at all.
        assert_eq!(metrics.traffic().messages(TrafficClass::Request), 0);
        assert_eq!(metrics.traffic().messages(TrafficClass::Assign), 20);
    }

    #[test]
    fn deterministic_per_seed() {
        let run = |seed| {
            let mut grid = scheduler(seed);
            submit(&mut grid, 25, 20);
            grid.run().completion_summary().mean()
        };
        assert_eq!(run(4), run(4));
    }

    /// The incremental digest equals a full sort-and-truncate of the
    /// cache after every update: random fresher-or-equal observations
    /// over a few instants (so `observed_at` ties across ids are common,
    /// and an entry is often rewritten at the same instant with a new
    /// backlog), at digest sizes from 1 to beyond the node count.
    #[test]
    fn incremental_digest_matches_full_sort() {
        let nodes = 12;
        for digest_size in [1, 3, 12, 16] {
            let mut rng = SimRng::seed_from(digest_size as u64);
            let mut cache = Cache::new(nodes);
            for step in 0..2_000 {
                let node = rng.index(nodes);
                let floor = cache.entries[node].map_or(0, |e| e.observed_at.as_millis());
                let entry = CacheEntry {
                    backlog: SimDuration::from_secs(rng.u64_range(0, 5)),
                    observed_at: SimTime::from_millis(floor + 1_000 * rng.u64_range(0, 2)),
                };
                cache.observe(node, entry, digest_size);

                let mut reference: Digest = cache.known().collect();
                reference.sort_by_key(digest_key);
                reference.truncate(digest_size);
                assert_eq!(cache.digest, reference, "digest_size {digest_size}, step {step}");
            }
            assert_eq!(cache.known().count(), nodes);
        }
    }

    #[test]
    fn placements_respect_requirements() {
        let mut grid = scheduler(5);
        submit(&mut grid, 30, 20);
        grid.run();
        for record in grid.metrics().records().values() {
            assert!(record.is_completed());
            assert_eq!(record.reschedules, 0); // no rescheduling phase
        }
    }
}
