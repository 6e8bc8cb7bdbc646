//! The benchmark of record for the ARiA reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper|scale-50k|live-core --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a run measures the workload untraced and prints
//! every end-to-end metric. With `--trace 1` it runs the workload twice,
//! untraced and then traced, checks that both runs reached the same
//! outcome, prints every per-layer metric (including the tracing
//! overhead) and writes the spans to `.bench_out/`. Either way the last
//! line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the host, toolchain, code and seed. See `perfbench/NOTES.md`
//! for what each workload and metric is for.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod json;
mod live;
mod paper;
mod probe;
mod report;
mod scale;
mod stats;
mod trace;

use aria_core::{OverlayKind, WorldConfig};
use aria_overlay::{builders, Blatant};
use aria_sim::SimRng;
use report::{Checks, Values, END_TO_END, PER_LAYER};
use std::path::Path;
use trace::Spans;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper", "scale-50k", "live-core"];

/// Builds the overlay `World::with_probe` would build for `(config,
/// seed)` — same builder, same RNG stream (`fork(1)` of the world seed)
/// — and returns its link count.
pub fn overlay_links(config: &WorldConfig, seed: u64) -> usize {
    let mut rng = SimRng::seed_from(seed);
    let mut overlay_rng = rng.fork(1);
    let topology = match config.overlay {
        OverlayKind::Blatant => Blatant::new(config.overlay_path_length, config.latency)
            .build(config.nodes, &mut overlay_rng),
        OverlayKind::RandomRegular { degree } => {
            builders::random_regular(config.nodes, degree, &config.latency, &mut overlay_rng)
        }
        OverlayKind::SmallWorld { k, beta } => {
            builders::watts_strogatz(config.nodes, k, beta, &config.latency, &mut overlay_rng)
        }
        OverlayKind::Ring => builders::ring(config.nodes, &config.latency, &mut overlay_rng),
    };
    topology.link_count()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run reports: its checks, job accounting and metric values.
struct Outcome {
    checks: Checks,
    attempted: u64,
    failed: u64,
    values: Values,
    spans: Option<Spans>,
}

/// End-to-end metrics shared by every workload.
fn outcome_metrics(
    values: &mut Values,
    completions: &[f64],
    messages: u64,
    bytes: u64,
    jobs: u64,
    checks: &mut Checks,
) {
    checks.check(
        "percentiles.p99_has_ten_samples_beyond",
        stats::supports(completions.len(), 990),
        || format!("only {} completion samples", completions.len()),
    );
    eprintln!(
        "perfbench: completion percentiles over {} jobs ({} beyond p99)",
        completions.len(),
        stats::samples_beyond(completions.len(), 990)
    );
    values.insert("completion_p50_s", stats::percentile(completions, 500));
    values.insert("completion_p99_s", stats::percentile(completions, 990));
    values.insert("msgs_per_job", messages as f64 / jobs as f64);
    values.insert("bytes_per_job", bytes as f64 / jobs as f64);
}

fn run_paper(args: &Args, workers: usize) -> Outcome {
    let mut checks = Checks::default();
    let seconds = if args.trace { 0.0 } else { args.seconds as f64 };
    let u = paper::untraced(args.seed, seconds, workers, &mut checks);
    let attempted: u64 = u.outcomes.iter().map(|o| o.submitted).sum();
    let failed: u64 = u.outcomes.iter().map(|o| o.failed).sum();
    let mut values = Values::new();
    let campaign_s = stats::median(&mut u.campaign_s.clone());
    if args.trace {
        let mut spans = Spans::new();
        let tr = paper::traced(args.seed, workers, &mut spans, &mut checks);
        let untraced: Vec<_> = u.outcomes.iter().map(|o| o.fingerprint).collect();
        checks.check(
            "paper.untraced_and_traced_runs_agree",
            untraced == tr.fanout,
            || "catalog fingerprints differ between the untraced and the traced run".to_string(),
        );
        paper::layers(&tr, &spans, campaign_s, workers, &mut values);
        let (missed, due) = u.outcomes.iter().fold((0, 0), |(m, d), o| {
            (
                m + o.deadline.missed(),
                d + o.deadline.met() + o.deadline.missed(),
            )
        });
        values.insert("grid.deadline_miss_frac", missed as f64 / due.max(1) as f64);
        eprintln!(
            "perfbench: untraced campaign {campaign_s:.3} s; traced catalog fan-out {:.3} s + baselines {:.3} s \
             (gossip {:.3} s); probed catalog pass {:.3} s: {}",
            spans.total_s("scenarios.catalog"),
            spans.total_s("baselines"),
            spans.total_s("gossip.run"),
            spans.total_s("core.probed_catalog"),
            tr.probe.summary(),
        );
        return Outcome {
            checks,
            attempted,
            failed,
            values,
            spans: Some(spans),
        };
    }
    let mut completions: Vec<f64> = u
        .outcomes
        .iter()
        .flat_map(|o| o.completions.iter().copied())
        .collect();
    completions.sort_by(f64::total_cmp);
    let messages = u.outcomes.iter().map(|o| o.fingerprint.messages).sum();
    let bytes = u.outcomes.iter().map(|o| o.bytes).sum();
    values.insert("jobs_per_s", u.jobs_completed() as f64 / campaign_s);
    values.insert("setup_s", u.setup_s);
    outcome_metrics(
        &mut values,
        &completions,
        messages,
        bytes,
        attempted,
        &mut checks,
    );
    eprintln!(
        "perfbench: {} campaign(s), median {campaign_s:.3} s",
        u.campaign_s.len()
    );
    Outcome {
        checks,
        attempted,
        failed,
        values,
        spans: None,
    }
}

fn run_scale(args: &Args) -> Outcome {
    let mut checks = Checks::default();
    let seconds = if args.trace { 0.0 } else { args.seconds as f64 };
    let u = scale::untraced(args.seed, seconds, &mut checks);
    let o = &u.outcome;
    checks.check("scale.conserves_jobs", o.failed == 0, || {
        format!("{} of {} jobs failed", o.failed, o.submitted)
    });
    let mut values = Values::new();
    let run_s = stats::median(&mut u.run_s.clone());
    if args.trace {
        let mut spans = Spans::new();
        let (traced, probe, links) = scale::traced(args.seed, &mut spans, &mut checks);
        checks.check(
            "scale.untraced_and_traced_runs_agree",
            traced.fingerprint == o.fingerprint,
            || format!("{:?} vs {:?}", o.fingerprint, traced.fingerprint),
        );
        scale::layers(
            &traced,
            &probe,
            links,
            &spans,
            u.setup_s + run_s,
            &mut values,
        );
        eprintln!(
            "perfbench: overlay build {:.3} s (measured on its own), set-up {:.3} s (world_new {:.3} s + submit {:.3} s); {}",
            spans.total_s("overlay.build"),
            spans.total_s("core.world_new") + spans.total_s("workload.submit"),
            spans.total_s("core.world_new"),
            spans.total_s("workload.submit"),
            probe.summary(),
        );
        return Outcome {
            checks,
            attempted: o.submitted,
            failed: o.failed,
            values,
            spans: Some(spans),
        };
    }
    values.insert("jobs_per_s", o.completions.len() as f64 / run_s);
    values.insert("setup_s", u.setup_s);
    outcome_metrics(
        &mut values,
        &o.completions,
        o.fingerprint.messages,
        o.bytes,
        o.submitted,
        &mut checks,
    );
    eprintln!(
        "perfbench: {} world run(s), median {run_s:.3} s, {} events",
        u.run_s.len(),
        o.fingerprint.events
    );
    Outcome {
        checks,
        attempted: o.submitted,
        failed: o.failed,
        values,
        spans: None,
    }
}

fn run_live(args: &Args) -> Outcome {
    /// Cluster-run pairs when tracing (each run takes under a second).
    const TRACED_RUNS: usize = 5;
    let mut checks = Checks::default();
    let jobs = live::JOBS as u64;
    let mut values = Values::new();
    if args.trace {
        let mut spans = Spans::new();
        let (counts, links, untraced_s) =
            live::traced(args.seed, TRACED_RUNS, &mut spans, &mut checks);
        live::layers(&counts, links, TRACED_RUNS, &spans, untraced_s, &mut values);
        let failed = jobs - counts.completed + counts.duplicates;
        return Outcome {
            checks,
            attempted: jobs,
            failed,
            values,
            spans: Some(spans),
        };
    }
    let u = live::untraced(args.seed, args.seconds as f64, &mut checks);
    let failed = jobs - u.counts.completed + u.counts.duplicates;
    let mut rates: Vec<f64> = u
        .run_s
        .iter()
        .map(|s| u.counts.completed as f64 / s)
        .collect();
    values.insert("jobs_per_s", stats::median(&mut rates));
    values.insert("setup_s", u.setup_s);
    outcome_metrics(
        &mut values,
        &u.completions,
        u.counts.frames,
        u.counts.bytes,
        jobs,
        &mut checks,
    );
    eprintln!(
        "perfbench: {} cluster run(s) of {:.3?} s, {} frames ({} heartbeats), ended at {:.1} s simulated",
        u.run_s.len(),
        u.run_s,
        u.counts.frames,
        u.counts.heartbeat_frames,
        u.counts.end_ms as f64 / 1000.0
    );
    Outcome {
        checks,
        attempted: jobs,
        failed,
        values,
        spans: None,
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // The benchmark measures the repository it sits in.
    if !Path::new("crates").is_dir() || !Path::new("perfbench").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let meta = report::host_meta(&args.workload, args.seed, args.seconds, args.trace, workers);

    let mut outcome = match args.workload.as_str() {
        "paper" => run_paper(&args, workers),
        "scale-50k" => run_scale(&args),
        _ => run_live(&args),
    };
    if !args.trace {
        outcome.values.insert("peak_rss_mb", report::peak_rss_mb());
    }
    if let Some(spans) = &outcome.spans {
        let dir = Path::new(".bench_out");
        let path = dir.join(format!("{}-seed{}.spans.json", args.workload, args.seed));
        let written =
            std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, spans.to_json(&meta)));
        outcome
            .checks
            .check("trace.spans_written", written.is_ok(), || {
                format!("{}: {written:?}", path.display())
            });
    }
    outcome.checks.check(
        "accounting.failed_within_attempted",
        outcome.failed <= outcome.attempted,
        || format!("{} failed of {}", outcome.failed, outcome.attempted),
    );
    eprintln!(
        "perfbench: {} checks, {}; failed_job_frac {}",
        outcome.checks.len(),
        if outcome.checks.all_passed() {
            "all passed"
        } else {
            "SOME FAILED"
        },
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );

    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    let line = report::result_line(
        outcome.checks.all_passed(),
        outcome.attempted,
        outcome.failed,
        catalog,
        &outcome.values,
    );
    // The result line must be valid JSON with exactly the contract's
    // keys before it is handed over.
    let well_formed = json::parse(&line).is_ok_and(|doc| {
        let metrics = doc
            .get("metrics")
            .map(json::Value::keys)
            .unwrap_or_default();
        doc.keys() == ["correct", "attempted", "failed", "metrics"]
            && metrics == catalog.iter().map(|&(name, _)| name).collect::<Vec<_>>()
    });
    if !well_formed {
        eprintln!("perfbench: internal error, malformed result line: {line}");
        std::process::exit(3);
    }
    println!("{{\"meta\": {meta}}}");
    println!("{line}");
}
