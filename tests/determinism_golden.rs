//! Golden determinism test: a run is a pure function of `(config, seed)`.
//!
//! The dense-state hot path (interned job payloads, recycled flood slots,
//! buffered fan-out sampling, the radix event queue) is required to be a
//! pure representation change: every metric must stay bit-for-bit
//! identical across refactors. These tests pin small scaled runs to
//! recorded values — if an "optimization" perturbs RNG draws or event
//! ordering, the numbers here move and the diff is caught at review time
//! instead of silently invalidating previous results.

use aria_core::{GossipScheduler, OverlayKind, PolicyMix, World, WorldConfig};
use aria_metrics::{MetricsCollector, TrafficClass};
use aria_probe::{Probe, ProbeEvent};
use aria_scenarios::{Runner, RunStats, Scenario};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};

/// FNV-1a over every job's completion time in milliseconds, in job-id
/// order (u64::MAX for a job that never completed).
fn completions_hash(metrics: &MetricsCollector) -> u64 {
    metrics.records().values().fold(0xcbf2_9ce4_8422_2325_u64, |h, r| {
        let ms = r.completion_time().map_or(u64::MAX, |d| d.as_millis());
        ms.to_le_bytes().iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

fn run(seed: u64) -> RunStats {
    Runner::scaled(30, 15).run_once(Scenario::IMixed, seed)
}

/// Two fresh runs of the same `(config, seed)` must agree exactly —
/// including float-valued summaries, which must be bit-for-bit equal.
#[test]
fn identical_seeds_reproduce_bit_for_bit() {
    for seed in [11, 12] {
        let a = run(seed);
        let b = run(seed);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.abandoned, b.abandoned);
        assert_eq!(a.traffic.total_messages(), b.traffic.total_messages());
        assert_eq!(a.completion.mean().to_bits(), b.completion.mean().to_bits());
        assert_eq!(a.waiting.mean().to_bits(), b.waiting.mean().to_bits());
        assert_eq!(a.completion_p50.to_bits(), b.completion_p50.to_bits());
        assert_eq!(a.completed_series.values(), b.completed_series.values());
        assert_eq!(a.idle_series.values(), b.idle_series.values());
    }
}

/// The recorded goldens. Exact integer equality; floats to a tolerance
/// far below any behavioral change (they shift by whole seconds when a
/// single RNG draw moves).
#[test]
fn scaled_imixed_matches_recorded_goldens() {
    struct Golden {
        seed: u64,
        completed: u64,
        total_messages: u64,
        request: u64,
        accept: u64,
        inform: u64,
        assign: u64,
        completion_mean: f64,
        completion_p50: f64,
        completion_p95: f64,
        waiting_mean: f64,
    }
    let goldens = [
        Golden {
            seed: 11,
            completed: 15,
            total_messages: 592,
            request: 498,
            accept: 80,
            inform: 0,
            assign: 14,
            completion_mean: 5829.008133333,
            completion_p50: 5927.978,
            completion_p95: 12122.997,
            waiting_mean: 5.1552,
        },
        Golden {
            seed: 12,
            completed: 15,
            total_messages: 1442,
            request: 561,
            accept: 74,
            inform: 793,
            assign: 14,
            completion_mean: 6236.439333333,
            completion_p50: 5704.358,
            completion_p95: 11251.252,
            waiting_mean: 542.790133333,
        },
    ];
    for golden in goldens {
        let stats = run(golden.seed);
        let seed = golden.seed;
        assert_eq!(stats.completed, golden.completed, "seed {seed}: completed");
        assert_eq!(stats.abandoned, 0, "seed {seed}: abandoned");
        assert_eq!(
            stats.traffic.total_messages(),
            golden.total_messages,
            "seed {seed}: total messages"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Request),
            golden.request,
            "seed {seed}: REQUEST count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Accept),
            golden.accept,
            "seed {seed}: ACCEPT count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Inform),
            golden.inform,
            "seed {seed}: INFORM count"
        );
        assert_eq!(
            stats.traffic.messages(TrafficClass::Assign),
            golden.assign,
            "seed {seed}: ASSIGN count"
        );
        let close = |actual: f64, expected: f64, what: &str| {
            assert!(
                (actual - expected).abs() < 1e-6,
                "seed {seed}: {what} drifted: {actual} vs {expected}"
            );
        };
        close(stats.completion.mean(), golden.completion_mean, "completion mean");
        close(stats.completion_p50, golden.completion_p50, "completion p50");
        close(stats.completion_p95, golden.completion_p95, "completion p95");
        close(stats.waiting.mean(), golden.waiting_mean, "waiting mean");
        assert_eq!(stats.reschedules, 0.0, "seed {seed}: reschedules");
    }
}

/// The gossip baseline (reference \[25\]) pinned the same way: one seeded
/// 100-node, 12 h run. Every placement reads the initiator's cache, and
/// every digest is the sender's freshest entries in a fixed order, so a
/// change to how caches or digests are kept that is not a pure
/// representation change moves these numbers.
#[test]
fn gossip_baseline_matches_recorded_golden() {
    let mut grid = GossipScheduler::new(
        100,
        PolicyMix::paper_mixed(),
        SimTime::from_hours(12),
        SimDuration::from_mins(5),
        7,
    );
    let schedule = SubmissionSchedule::new(SimTime::from_mins(5), SimDuration::from_secs(60), 400);
    grid.submit_schedule(&schedule, &mut JobGenerator::paper_batch());
    grid.run();
    let metrics = grid.metrics();
    let completions_hash = completions_hash(metrics);
    assert_eq!(metrics.completed_count(), 400);
    let mean_bits = metrics.completion_summary().mean().to_bits();
    assert_eq!(mean_bits, 0x40c9_7358_584f_4c6d, "completion mean");
    assert_eq!(metrics.traffic().messages(TrafficClass::Inform), 144_000, "digest count");
    assert_eq!(metrics.traffic().messages(TrafficClass::Assign), 400, "ASSIGN count");
    // 99.4 nodes known per cache, the node's own entry included.
    assert_eq!(grid.avg_cache_coverage().to_bits(), 0x4058_d999_9999_999a, "cache coverage");
    assert_eq!(completions_hash, 0x41a2_6450_b795_6485, "per-job completion times");
}

/// Keeps the deepest pending-event count the world's gauge reports.
#[derive(Default)]
struct PeakPending(u64);

impl Probe for PeakPending {
    fn record(&mut self, _now: SimTime, event: ProbeEvent) {
        if let ProbeEvent::Gauge { peak_events, .. } = event {
            self.0 = self.0.max(peak_events);
        }
    }
}

/// The goldens above run queues a few dozen events deep. This one pins a
/// 2,000-node random-regular world over 2 h, whose queue holds thousands
/// of pending events (one INFORM tick per node plus the in-flight
/// floods), so the event queue's ordering is exercised at depth.
#[test]
fn deep_queue_world_matches_recorded_golden() {
    let config = WorldConfig {
        nodes: 2_000,
        overlay: OverlayKind::RandomRegular { degree: 4 },
        horizon: SimTime::from_hours(2),
        ..WorldConfig::paper_baseline()
    };
    let mut world = World::with_probe(config, 5, PeakPending::default());
    let schedule = SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(6), 200);
    world.submit_schedule(&schedule, &mut JobGenerator::paper_batch());
    world.run();
    let metrics = world.metrics();
    let traffic = metrics.traffic();
    assert_eq!(world.topology().link_count(), 4_000, "overlay links");
    assert_eq!(world.processed_events(), 450_738, "events processed");
    assert_eq!(world.probe().0, 3_274, "peak pending events");
    assert_eq!(metrics.completed_count(), 200);
    assert_eq!(traffic.total_messages(), 400_105, "total messages");
    assert_eq!(traffic.messages(TrafficClass::Request), 360_444, "REQUEST count");
    assert_eq!(traffic.messages(TrafficClass::Accept), 32_428, "ACCEPT count");
    assert_eq!(traffic.messages(TrafficClass::Inform), 7_035, "INFORM count");
    assert_eq!(traffic.messages(TrafficClass::Assign), 198, "ASSIGN count");
    let mean_bits = metrics.completion_summary().mean().to_bits();
    assert_eq!(mean_bits, 0x40b2_4ac1_e796_7cb5, "completion mean");
    assert_eq!(completions_hash(metrics), 0xdfae_0982_7394_602a, "per-job completion times");
}
