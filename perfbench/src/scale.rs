//! The `scale-50k` workload: one 50,000-node world on the iMixed
//! protocol settings (random-regular(4) overlay, 1000 jobs, 12 h
//! horizon) — `bench_scale`'s mid tier.
//!
//! One world, so no fan-out: it exercises the overlay builder, the event
//! queue at depth and idle INFORM ticks, and bypasses `run_many`, the
//! baselines, the driver and the codec.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::probe::{CountingProbe, WorldOutcome};
use crate::report::{Checks, Values};
use crate::trace::Trace;
use crate::{overlay_links, stats};
use aria_core::{OverlayKind, World, WorldConfig};
use aria_probe::{NullProbe, Probe};
use aria_sim::{SimDuration, SimTime};
use aria_workload::{JobGenerator, SubmissionSchedule};
use std::time::Instant;

/// Nodes in the world.
pub const NODES: usize = 50_000;
/// Jobs submitted, one every 10 s from minute 1.
pub const JOBS: usize = 1_000;
/// World builds timed per run for `setup_s`.
const SETUP_REPS: usize = 3;

/// The world's configuration.
pub fn config() -> WorldConfig {
    WorldConfig {
        nodes: NODES,
        overlay: OverlayKind::RandomRegular { degree: 4 },
        horizon: SimTime::from_hours(12),
        ..WorldConfig::paper_baseline()
    }
}

fn schedule() -> SubmissionSchedule {
    SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(10), JOBS)
}

/// Set-up: `World::new` (overlay, profiles, tick scaffolding) plus
/// `submit_schedule` (job generation).
fn build<P: Probe, T: Trace>(seed: u64, probe: P, t: &mut T) -> World<P> {
    let mut world = t.span("core.world_new", |_| {
        World::with_probe(config(), seed, probe)
    });
    t.span("workload.submit", |_| {
        world.submit_schedule(&schedule(), &mut JobGenerator::paper_batch())
    });
    world
}

/// One untraced run: `SETUP_REPS` timed builds, then as many timed runs
/// of the last world as `seconds` allows (at least one, each on a fresh
/// build after the first).
pub struct Untraced {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each world run, seconds.
    pub run_s: Vec<f64>,
    /// Outcome of the (deterministic) world.
    pub outcome: WorldOutcome,
}

/// The untraced pass.
pub fn untraced(seed: u64, seconds: f64, checks: &mut Checks) -> Untraced {
    let started = Instant::now();
    let mut setups = Vec::new();
    let mut runs = Vec::new();
    let mut outcome: Option<WorldOutcome> = None;
    let mut world = None;
    while stats::another_fits(started.elapsed().as_secs_f64(), runs.len(), seconds) {
        let reps = if runs.is_empty() { SETUP_REPS } else { 1 };
        for _ in 0..reps {
            drop(world.take());
            let start = Instant::now();
            world = Some(build(seed, NullProbe, &mut crate::trace::NoTrace));
            setups.push(start.elapsed().as_secs_f64());
        }
        let w = world.as_mut().expect("built above");
        let start = Instant::now();
        w.run();
        runs.push(start.elapsed().as_secs_f64());
        let this = WorldOutcome::of(w, JOBS as u64);
        if let Some(first) = &outcome {
            checks.check(
                "scale.repeat_runs_identical",
                first.fingerprint == this.fingerprint,
                || format!("{:?} vs {:?}", first.fingerprint, this.fingerprint),
            );
        }
        outcome = Some(this);
    }
    Untraced {
        setup_s: stats::median(&mut setups),
        run_s: runs,
        outcome: outcome.expect("ran once"),
    }
}

/// The traced pass: the probed world's build, run and summary, each in
/// its own span, then the overlay built again on its own with the
/// world's inputs (after the world, so both builds see a warm
/// allocator). Returns the outcome, the probe's counts and the link
/// count.
pub fn traced<T: Trace>(
    seed: u64,
    t: &mut T,
    checks: &mut Checks,
) -> (WorldOutcome, CountingProbe, usize) {
    let (outcome, probe, world_links) = t.span("scale", |t| {
        let mut world = build(seed, CountingProbe::default(), t);
        let links = world.topology().link_count();
        t.span("core.run", |_| {
            world.run();
        });
        let outcome = t.span("metrics.summary", |_| WorldOutcome::of(&world, JOBS as u64));
        (outcome, world.into_probe(), links)
    });
    let links = t.span("overlay.build", |_| overlay_links(&config(), seed));
    checks.check(
        "overlay.same_work_as_world_new",
        links == world_links,
        || format!("separate build has {links} links, the world {world_links}"),
    );
    (outcome, probe, links)
}

/// Per-layer metrics of the traced pass over spans `t`.
pub fn layers(
    outcome: &WorldOutcome,
    probe: &CountingProbe,
    links: usize,
    t: &crate::trace::Spans,
    untraced_s: f64,
    out: &mut Values,
) {
    let events = outcome.fingerprint.events;
    let messages = outcome.fingerprint.messages;
    let run_s = t.total_s("core.run");
    out.insert("overlay.build_s", t.total_s("overlay.build"));
    out.insert("overlay.links", links as f64);
    out.insert("workload.submit_s", t.total_s("workload.submit"));
    out.insert("sim.events", events as f64);
    out.insert("sim.timer_events", events.saturating_sub(messages) as f64);
    out.insert("sim.peak_pending_events", probe.peak_pending as f64);
    out.insert("sim.ns_per_event", run_s * 1e9 / events.max(1) as f64);
    out.insert("core.world_new_s", t.total_s("core.world_new"));
    out.insert("core.run_s", run_s);
    out.insert("metrics.summary_s", t.total_s("metrics.summary"));
    crate::report::core_counts(probe, events, probe.inform_ticks(events, messages), out);
    out.insert(
        "trace_overhead_frac",
        (t.total_s("scale") - untraced_s) / untraced_s,
    );
}
