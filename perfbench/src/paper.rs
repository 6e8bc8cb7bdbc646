//! The `paper` workload: the full reproduction campaign at paper scale,
//! one seed — exactly what `reproduce all --seeds 1` runs.
//!
//! The untraced pass times `Campaign::all()` as a black box (the number
//! users wait for). Its simulated outcomes are read from the same 26
//! catalog worlds built and run again through `Runner::build_world`:
//! runs are deterministic in `(scenario, seed)`, and the campaign's own
//! text output is cross-checked against them.
//!
//! The traced pass calls the public functions behind `Campaign::all()`
//! one layer at a time: the catalog fan-out (`Runner::run_many`), then
//! each baseline's `run`, which together are the campaign's work. A
//! separate probed pass then builds and runs every catalog world with
//! the counting probe for the `core.*` counts.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::probe::{CountingProbe, Fingerprint, WorldOutcome};
use crate::report::{Checks, Values};
use crate::trace::{Spans, Trace};
use crate::{overlay_links, stats};
use aria_core::{
    CentralScheduler, FaultPlan, GossipScheduler, MultiRequestScheduler, PolicyMix, World,
};
use aria_probe::NullProbe;
use aria_scenarios::{Campaign, Runner, Scenario};
use aria_workload::JobGenerator;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// World builds timed per run for `setup_s`.
const SETUP_REPS: usize = 9;

/// What the untraced pass measured.
pub struct Untraced {
    /// Median wall time of building every catalog world, seconds.
    pub setup_s: f64,
    /// Wall time of each `Campaign::all()`, seconds.
    pub campaign_s: Vec<f64>,
    /// Catalog outcomes, in `Scenario::ALL` order.
    pub outcomes: Vec<WorldOutcome>,
}

impl Untraced {
    /// ARiA catalog jobs completed per campaign.
    pub fn jobs_completed(&self) -> u64 {
        self.outcomes
            .iter()
            .map(|o| o.completions.len() as u64)
            .sum()
    }
}

/// Builds every catalog world for `seed` exactly as a campaign run does.
fn build_catalog(seed: u64) -> Vec<(Scenario, World)> {
    let runner = Runner::paper();
    Scenario::ALL
        .iter()
        .map(|&s| (s, runner.build_world(s, seed, FaultPlan::none(), NullProbe)))
        .collect()
}

fn jobs_of(scenario: Scenario) -> u64 {
    Runner::paper().schedule_for(scenario).count() as u64
}

/// Runs built worlds on `workers` threads and reads their outcomes.
fn run_catalog(worlds: Vec<(Scenario, World)>, workers: usize) -> Vec<WorldOutcome> {
    let slots: Vec<Mutex<Option<(Scenario, World)>>> =
        worlds.into_iter().map(|w| Mutex::new(Some(w))).collect();
    let results: Vec<Mutex<Option<WorldOutcome>>> =
        slots.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else { break };
                let (scenario, mut world) = slot.lock().unwrap().take().expect("claimed once");
                world.run();
                *results[i].lock().unwrap() = Some(WorldOutcome::of(&world, jobs_of(scenario)));
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().unwrap().expect("every world ran"))
        .collect()
}

/// The untraced pass: set-up timing, at least one full campaign (more if
/// `seconds` allows), then the catalog outcomes.
pub fn untraced(seed: u64, seconds: f64, workers: usize, checks: &mut Checks) -> Untraced {
    let mut setups = Vec::new();
    let mut worlds = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(std::mem::take(&mut worlds));
        let start = Instant::now();
        worlds = build_catalog(seed);
        setups.push(start.elapsed().as_secs_f64());
    }

    let started = Instant::now();
    let mut campaign_s = Vec::new();
    let mut text = String::new();
    while stats::another_fits(started.elapsed().as_secs_f64(), campaign_s.len(), seconds) {
        let start = Instant::now();
        text = Campaign::new(Runner::paper().workers(workers), vec![seed]).all();
        campaign_s.push(start.elapsed().as_secs_f64());
    }

    let outcomes = run_catalog(worlds, workers);
    check_campaign_text(&text, &outcomes, checks);
    Untraced {
        setup_s: stats::median(&mut setups),
        campaign_s,
        outcomes,
    }
}

/// Cross-checks the campaign's rendered output against the catalog
/// outcomes: every artifact is present, and the numbers it prints for
/// iMixed and the deadline scenarios are the ones the worlds produce.
fn check_campaign_text(text: &str, outcomes: &[WorldOutcome], checks: &mut Checks) {
    let mut headers = vec![
        "# Table I".to_string(),
        "# Table II".to_string(),
        "# Baselines".to_string(),
    ];
    headers.extend((1..=10).map(|i| format!("# Figure {i}:")));
    let missing: Vec<&String> = headers
        .iter()
        .filter(|h| !text.contains(h.as_str()))
        .collect();
    checks.check(
        "paper.campaign_renders_every_artifact",
        missing.is_empty(),
        || format!("missing {missing:?}"),
    );

    let outcome = |s: Scenario| {
        &outcomes[Scenario::ALL
            .iter()
            .position(|&x| x == s)
            .expect("in catalog")]
    };
    let imixed_mean = f64::from_bits(outcome(Scenario::IMixed).fingerprint.completion_mean_bits);
    let printed = text
        .lines()
        .find_map(|l| l.strip_prefix("ARiA(iMixed),"))
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse::<f64>().ok());
    checks.check(
        "paper.campaign_matches_catalog_run",
        printed.is_some_and(|p| (p - imixed_mean).abs() <= 1.0),
        || {
            format!(
                "campaign prints iMixed completion {printed:?}, catalog run gives {imixed_mean:.1}"
            )
        },
    );

    for s in [
        Scenario::Deadline,
        Scenario::IDeadline,
        Scenario::DeadlineH,
        Scenario::IDeadlineH,
    ] {
        let want = format!("\n{},{:.1},", s.name(), outcome(s).deadline.missed() as f64);
        checks.check(
            "paper.campaign_deadline_rows_match",
            text.contains(&want),
            || format!("no row starting {:?}", want.trim()),
        );
    }
}

/// What the traced pass measured, beyond its spans.
pub struct Traced {
    /// Protocol counts over the probed catalog worlds.
    pub probe: CountingProbe,
    /// Overlay links over the probed catalog worlds.
    pub links: usize,
    /// Events drained by the probed catalog worlds.
    pub events: u64,
    /// Messages they sent.
    pub messages: u64,
    /// INFORM ticks derived for them.
    pub inform_ticks: u64,
    /// Sum of `RunStats::wall_time_secs` over the fan-out's runs.
    pub fanout_run_s: f64,
    /// Messages the gossip baseline sent.
    pub gossip_messages: u64,
    /// Catalog fingerprints from the fan-out, in `Scenario::ALL` order.
    pub fanout: Vec<Fingerprint>,
}

/// The traced pass (see the module docs). `seed` selects the campaign.
pub fn traced(seed: u64, workers: usize, t: &mut Spans, checks: &mut Checks) -> Traced {
    let runner = Runner::paper().workers(workers);
    let results = t.span("scenarios.catalog", |_| {
        runner.run_many(&Scenario::ALL, &[seed])
    });
    let fanout: Vec<Fingerprint> = results
        .iter()
        .map(|r| {
            let run = &r.runs[0];
            Fingerprint {
                events: run.events,
                messages: run.traffic.total_messages(),
                completed: run.completed,
                completion_mean_bits: run.completion.mean().to_bits(),
            }
        })
        .collect();
    let fanout_run_s = results.iter().map(|r| r.runs[0].wall_time_secs).sum();

    let gossip_messages = t.span("baselines", |t| baselines(seed, t, checks));

    let mut probe = CountingProbe::default();
    let (mut links, mut events, mut messages, mut inform_ticks) = (0, 0, 0, 0);
    let mut probed = Vec::new();
    t.span("core.probed_catalog", |t| {
        for &scenario in &Scenario::ALL {
            let (world, outcome) = t.span("scenario", |t| probed_world(scenario, seed, t, checks));
            let counts = world.probe();
            links += world.topology().link_count();
            events += outcome.fingerprint.events;
            messages += outcome.fingerprint.messages;
            inform_ticks +=
                counts.inform_ticks(outcome.fingerprint.events, outcome.fingerprint.messages);
            probe.absorb(counts);
            probed.push(outcome.fingerprint);
        }
    });
    checks.check("paper.probe_only_observes", probed == fanout, || {
        "probed catalog fingerprints differ from the fan-out's".to_string()
    });
    Traced {
        probe,
        links,
        events,
        messages,
        inform_ticks,
        fanout_run_s,
        gossip_messages,
        fanout,
    }
}

/// Builds and runs one catalog world layer by layer, with the counting
/// probe attached. The calls are `Runner::build_world`'s, split so that
/// each layer gets its own span.
fn probed_world(
    scenario: Scenario,
    seed: u64,
    t: &mut Spans,
    checks: &mut Checks,
) -> (World<CountingProbe>, WorldOutcome) {
    let runner = Runner::paper();
    let config = scenario.world_config();
    let links = t.span("overlay.build", |_| overlay_links(&config, seed));
    let mut world = t.span("core.world_new", |_| {
        World::with_probe(config, seed, CountingProbe::default())
    });
    checks.check(
        "overlay.same_work_as_world_new",
        links == world.topology().link_count(),
        || {
            format!(
                "{scenario}: separate build has {links} links, the world {}",
                world.topology().link_count()
            )
        },
    );
    t.span("workload.submit", |_| {
        let mut generator = JobGenerator::new(scenario.job_config());
        world.submit_schedule(&runner.schedule_for(scenario), &mut generator);
    });
    t.span("core.run", |_| {
        world.run();
    });
    let outcome = t.span("metrics.summary", |_| {
        WorldOutcome::of(&world, jobs_of(scenario))
    });
    (world, outcome)
}

/// Runs the three baselines exactly as `Campaign::baselines` does and
/// checks that each completes its whole workload. Returns the gossip
/// baseline's message count.
fn baselines(seed: u64, t: &mut Spans, checks: &mut Checks) -> u64 {
    let runner = Runner::paper();
    let config = Scenario::IMixed.world_config();
    let (nodes, horizon, period) = (
        runner.nodes_or(config.nodes),
        config.horizon,
        config.sample_period,
    );
    let schedule = runner.schedule_for(Scenario::IMixed);
    let jobs = schedule.count() as u64;
    let generator = || JobGenerator::new(Scenario::IMixed.job_config());

    let mut central = t.span("central.setup", |_| {
        let mut c = CentralScheduler::new(nodes, PolicyMix::paper_mixed(), horizon, period, seed);
        c.submit_schedule(&schedule, &mut generator());
        c
    });
    let completed = t.span("central.run", |_| central.run().completed_count());
    checks.check(
        "baselines.central_conserves_jobs",
        completed == jobs,
        || format!("{completed}/{jobs}"),
    );

    let mut gossip = t.span("gossip.setup", |_| {
        let mut g = GossipScheduler::new(nodes, PolicyMix::paper_mixed(), horizon, period, seed);
        g.submit_schedule(&schedule, &mut generator());
        g
    });
    let (completed, messages) = t.span("gossip.run", |_| {
        let m = gossip.run();
        (m.completed_count(), m.traffic().total_messages())
    });
    checks.check("baselines.gossip_conserves_jobs", completed == jobs, || {
        format!("{completed}/{jobs}")
    });

    let mut multi = t.span("multireq.setup", |_| {
        let mut m =
            MultiRequestScheduler::new(nodes, PolicyMix::paper_mixed(), 3, horizon, period, seed);
        m.submit_schedule(&schedule, &mut generator());
        m
    });
    let completed = t.span("multireq.run", |_| multi.run().completed_count());
    checks.check(
        "baselines.multireq_conserves_jobs",
        completed == jobs,
        || format!("{completed}/{jobs}"),
    );
    messages
}

/// Per-layer metrics of the traced pass. `untraced_s` is the untraced
/// campaign's wall time.
pub fn layers(tr: &Traced, t: &Spans, untraced_s: f64, workers: usize, out: &mut Values) {
    let p = &tr.probe;
    let catalog_s = t.total_s("scenarios.catalog");
    let run_s = t.total_s("core.run");
    out.insert("overlay.build_s", t.total_s("overlay.build"));
    out.insert("overlay.links", tr.links as f64);
    out.insert("workload.submit_s", t.total_s("workload.submit"));
    out.insert("sim.events", tr.events as f64);
    out.insert(
        "sim.timer_events",
        tr.events.saturating_sub(tr.messages) as f64,
    );
    out.insert("sim.peak_pending_events", p.peak_pending as f64);
    out.insert("sim.ns_per_event", run_s * 1e9 / tr.events.max(1) as f64);
    out.insert("core.world_new_s", t.total_s("core.world_new"));
    out.insert("core.run_s", run_s);
    out.insert("metrics.summary_s", t.total_s("metrics.summary"));
    out.insert("scenarios.catalog_s", catalog_s);
    out.insert(
        "scenarios.worker_busy_frac",
        tr.fanout_run_s / (catalog_s * workers as f64),
    );
    out.insert("gossip.run_s", t.total_s("gossip.run"));
    out.insert(
        "gossip.us_per_msg",
        t.total_s("gossip.run") * 1e6 / tr.gossip_messages.max(1) as f64,
    );
    out.insert("central.run_s", t.total_s("central.run"));
    out.insert("multireq.run_s", t.total_s("multireq.run"));
    crate::report::core_counts(p, tr.events, tr.inform_ticks, out);
    // The traced counterpart of `Campaign::all()` is the fan-out plus
    // the baselines; the probed pass is an extra measurement.
    let traced_s = catalog_s + t.total_s("baselines");
    out.insert("trace_overhead_frac", (traced_s - untraced_s) / untraced_s);
}
