//! Metric catalog, correctness checks and host metadata.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::json::{number, quote};
use crate::probe::CountingProbe;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Stdio};

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("completion_p50_s", "s"),
    ("completion_p99_s", "s"),
    ("msgs_per_job", "count"),
    ("bytes_per_job", "B"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A
/// layer the workload does not reach reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("overlay.build_s", "s"),
    ("overlay.links", "count"),
    ("workload.submit_s", "s"),
    ("sim.events", "count"),
    ("sim.timer_events", "count"),
    ("sim.peak_pending_events", "count"),
    ("sim.ns_per_event", "ns"),
    ("core.world_new_s", "s"),
    ("core.run_s", "s"),
    ("core.idle_tick_frac", "frac"),
    ("core.flood_hops", "count"),
    ("core.flood_dup_frac", "frac"),
    ("core.offers_per_round", "count"),
    ("core.inform_rounds", "count"),
    ("core.reschedules", "count"),
    ("grid.enqueue_depth_mean", "count"),
    ("grid.deadline_miss_frac", "frac"),
    ("metrics.summary_s", "s"),
    ("scenarios.catalog_s", "s"),
    ("scenarios.worker_busy_frac", "frac"),
    ("gossip.run_s", "s"),
    ("gossip.us_per_msg", "us"),
    ("central.run_s", "s"),
    ("multireq.run_s", "s"),
    ("driver.handle_ns", "ns"),
    ("driver.outputs_per_call", "count"),
    ("driver.heartbeat_frame_frac", "frac"),
    ("driver.frames_per_node_s", "1/s"),
    ("driver.retransmits", "count"),
    ("codec.encode_ns", "ns"),
    ("codec.decode_ns", "ns"),
    ("codec.bytes_per_frame", "B"),
    ("codec.decode_errors", "count"),
    ("trace_overhead_frac", "frac"),
];

/// Named correctness checks; the run is correct when all pass.
#[derive(Debug, Default)]
pub struct Checks {
    results: Vec<(&'static str, bool)>,
}

impl Checks {
    /// Records one check; on failure, explains it on stderr.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            eprintln!("perfbench: check {name} FAILED: {}", detail());
        }
        self.results.push((name, ok));
    }

    /// Whether every check passed.
    pub fn all_passed(&self) -> bool {
        self.results.iter().all(|&(_, ok)| ok)
    }

    /// How many checks ran.
    pub fn len(&self) -> usize {
        self.results.len()
    }
}

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The `core.*` and `grid.*` metrics derived from the counting probe.
pub fn core_counts(p: &CountingProbe, events: u64, inform_ticks: u64, out: &mut Values) {
    let per = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    out.insert(
        "core.idle_tick_frac",
        per(inform_ticks.saturating_sub(p.informing_ticks), events),
    );
    out.insert("core.flood_hops", p.flood_hops as f64);
    out.insert("core.flood_dup_frac", per(p.flood_dups, p.flood_hops));
    out.insert("core.offers_per_round", per(p.offers, p.request_rounds));
    out.insert("core.inform_rounds", p.inform_rounds as f64);
    out.insert("core.reschedules", p.reschedules as f64);
    out.insert("grid.enqueue_depth_mean", per(p.depth_sum, p.enqueued));
}

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding every metric of `catalog` (unset ones
/// as 0).
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    catalog: &[(&str, &str)],
    values: &Values,
) -> String {
    let metrics: Vec<String> = catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(name),
                number(value),
                quote(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and code a result was measured on, as a JSON object.
pub fn host_meta(workload: &str, seed: u64, seconds: u64, trace: bool, workers: usize) -> String {
    format!(
        "{{\"workload\": {}, \"seed\": {seed}, \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {workers}, \
         \"rustc\": {}, \"git_commit\": {}, \"source_digest\": {}}}",
        quote(workload),
        quote(&stdout_of(Command::new("rustc").arg("-V")).unwrap_or_else(|| "unavailable".into())),
        quote(&git_commit().unwrap_or_else(|| "unavailable (not a git checkout)".into())),
        quote(&source_digest()),
    )
}

/// The trimmed stdout of `command`, if it ran, succeeded and printed.
fn stdout_of(command: &mut Command) -> Option<String> {
    let out = command
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    let text = String::from_utf8(out.stdout).ok()?;
    (out.status.success() && !text.trim().is_empty()).then(|| text.trim().to_string())
}

/// `HEAD` of the checkout, if it is a git repository itself (git is not
/// allowed to find a repository above the working directory).
fn git_commit() -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let ceiling = cwd.parent().unwrap_or(&cwd).to_path_buf();
    stdout_of(
        Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", ceiling),
    )
}

/// FNV-1a over the paths and contents of every `.rs`/`.toml` file under
/// `crates/` and `perfbench/`: identifies the code measured even where
/// the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    walk(Path::new("perfbench"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for file in &files {
        feed(file.to_string_lossy().as_bytes());
        feed(&std::fs::read(file).unwrap_or_default());
    }
    format!("fnv1a64:{hash:016x} over {} files", files.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values = Values::from([("jobs_per_s", 578.25)]);
        let line = result_line(true, 26000, 0, END_TO_END, &values);
        let doc = parse(&line).unwrap();
        assert_eq!(doc.keys(), ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").unwrap().as_f64(), Some(26000.0));
        let metrics = doc.get("metrics").unwrap();
        assert_eq!(
            metrics.keys(),
            END_TO_END.iter().map(|&(n, _)| n).collect::<Vec<_>>()
        );
        let jobs = metrics.get("jobs_per_s").unwrap();
        assert_eq!(jobs.keys(), ["value", "unit"]);
        assert_eq!(jobs.get("value").unwrap().as_f64(), Some(578.25));
        assert_eq!(jobs.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("value")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let doc = parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field =
                        |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .unwrap_or_default()
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn checks_pass_only_when_all_pass() {
        let mut c = Checks::default();
        c.check("a", true, String::new);
        assert!(c.all_passed());
        c.check("b", false, || "explained".into());
        assert!(!c.all_passed());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mb() > 0.0);
    }
}
