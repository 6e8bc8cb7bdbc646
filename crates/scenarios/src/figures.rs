//! Textual reproduction of every table and figure in the paper.
//!
//! Each `figN` method runs (or reuses) the scenarios that figure needs
//! and renders the same rows/series the paper plots. Output is plain
//! text with CSV-style series so results can be diffed, parsed or
//! re-plotted.

use crate::catalog::Scenario;
use crate::plot::ascii_chart;
use crate::runner::{self, Pair, RunStats, Runner, ScenarioResult};
use aria_metrics::{MetricsCollector, TrafficClass};
use aria_sim::{Summary, TimeSeries};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Every artifact [`Campaign::all`] renders, in order.
const ARTIFACTS: [&str; 13] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "baselines",
];

/// A figure/table reproduction campaign with result caching: figures
/// sharing scenarios (e.g. Figures 1-3) pay for each simulation only
/// once, and the baselines run at most once per campaign.
#[derive(Debug)]
pub struct Campaign {
    runner: Runner,
    seeds: Vec<u64>,
    cache: BTreeMap<&'static str, ScenarioResult>,
    /// Per-seed baseline runs, seeds ascending; empty until first needed.
    baseline_runs: BTreeMap<Baseline, Vec<BaselineRun>>,
}

impl Campaign {
    /// Creates a campaign over the given runner and seeds.
    ///
    /// # Panics
    ///
    /// Panics if `seeds` is empty.
    pub fn new(runner: Runner, seeds: Vec<u64>) -> Self {
        assert!(!seeds.is_empty(), "at least one seed is required");
        Campaign { runner, seeds, cache: BTreeMap::new(), baseline_runs: BTreeMap::new() }
    }

    /// Runs everything the given artifacts read that is not cached yet,
    /// in one fan-out, so that rendering them afterwards only reads the
    /// caches. Ids are those of [`Campaign::render`]. Returns the first
    /// unknown id, before running anything, as the error.
    pub fn prepare<S: AsRef<str>>(&mut self, ids: &[S]) -> Result<(), String> {
        let mut scenarios = Vec::new();
        let mut baselines = false;
        for id in ids {
            let id = id.as_ref().to_ascii_lowercase();
            let expanded = if id == "all" { ARTIFACTS.to_vec() } else { vec![id.as_str()] };
            for id in expanded {
                let (reads, needs_baselines) = Self::reads(id).ok_or_else(|| id.to_string())?;
                scenarios.extend_from_slice(reads);
                baselines |= needs_baselines;
            }
        }
        self.run_missing(&scenarios, baselines);
        Ok(())
    }

    /// The catalog scenarios an artifact renders and whether it reads
    /// the baselines (`None` for unknown or composite ids).
    fn reads(id: &str) -> Option<(&'static [Scenario], bool)> {
        Some(match id {
            "table1" | "table2" => (&[], false),
            "fig1" | "fig2" | "fig3" => (&Self::POLICY_SCENARIOS, false),
            "fig4" => (&Self::DEADLINE_SCENARIOS, false),
            "fig5" => (&Self::EXPANDING_SCENARIOS, false),
            "fig6" | "fig7" => (&Self::LOAD_SCENARIOS, false),
            "fig8" => (&Self::RESCHEDULING_SCENARIOS, false),
            "fig9" => (&Self::ACCURACY_SCENARIOS, false),
            "fig10" => (&Self::OVERHEAD_SCENARIOS, false),
            "baselines" => (&[Scenario::IMixed], true),
            _ => return None,
        })
    }

    /// Runs, as one fan-out, every `(scenario, seed)` pair of the
    /// uncached `scenarios` and, if `baselines` is set and they are not
    /// cached yet, every `(baseline, seed)` pair. Baseline items go
    /// first, gossip leading, because gossip's runs are the longest items;
    /// results come back in item order, so the caches are the same at any
    /// lane count.
    fn run_missing(&mut self, scenarios: &[Scenario], baselines: bool) {
        let mut missing: Vec<Scenario> = Vec::new();
        for &scenario in scenarios {
            if !self.cache.contains_key(scenario.name()) && !missing.contains(&scenario) {
                missing.push(scenario);
            }
        }
        let kinds: &[Baseline] =
            if baselines && self.baseline_runs.is_empty() { &Baseline::ALL } else { &[] };
        let mut seeds = self.seeds.clone();
        seeds.sort_unstable();
        let items: Vec<Item> = kinds
            .iter()
            .flat_map(|&kind| seeds.iter().map(move |&seed| Item::Baseline(kind, seed)))
            .chain(runner::pairs(&missing, &self.seeds).into_iter().map(Item::Catalog))
            .collect();
        if items.is_empty() {
            return;
        }

        let runner = self.runner;
        let done = aria_sim::pool::map_ordered(&items, runner.lanes(), |&item| match item {
            Item::Baseline(kind, seed) => Done::Baseline(kind, kind.run(&runner, seed)),
            Item::Catalog(pair) => Done::Catalog(runner.run_pair(pair)),
        });
        let mut runs = Vec::new();
        for result in done {
            match result {
                Done::Baseline(kind, run) => self.baseline_runs.entry(kind).or_default().push(run),
                Done::Catalog(run) => runs.push(run),
            }
        }
        for result in runner::merge_runs(&missing, runs) {
            self.cache.insert(result.scenario.name(), result);
        }
    }

    /// Runs any scenarios not yet cached and returns results in order.
    fn results(&mut self, scenarios: &[Scenario]) -> Vec<ScenarioResult> {
        self.run_missing(scenarios, false);
        scenarios.iter().map(|s| self.cache[s.name()].clone()).collect()
    }

    /// One baseline's per-seed runs merged: completion and waiting
    /// summaries, and the mean per-seed count.
    fn baseline(&self, kind: Baseline) -> (Summary, Summary, f64) {
        let runs = &self.baseline_runs[&kind];
        let mut completion = Summary::new();
        let mut waiting = Summary::new();
        let mut count = 0.0;
        for run in runs {
            completion.merge(&run.completion);
            waiting.merge(&run.waiting);
            count += run.count;
        }
        (completion, waiting, count / runs.len() as f64)
    }

    /// Table I: protocol messages and their fields/sizes.
    pub fn table1(&mut self) -> String {
        let mut out = String::from("# Table I: protocol messages and fields\n");
        let rows = [
            ("ACCEPT", "Node's address | Job UUID | Cost", TrafficClass::Accept),
            ("REQUEST", "Initiator's address | Job UUID | Job Profile", TrafficClass::Request),
            ("INFORM", "Assignee's address | Job UUID | Job Profile | Cost", TrafficClass::Inform),
            ("ASSIGN", "Initiator's address | Job UUID | Job Profile", TrafficClass::Assign),
        ];
        for (name, fields, class) in rows {
            let _ = writeln!(out, "{name:8} [{} bytes]  {fields}", class.message_bytes());
        }
        out
    }

    /// Table II: the scenario matrix.
    pub fn table2(&mut self) -> String {
        let mut out = String::from("# Table II: summary of evaluation scenarios\n");
        for scenario in Scenario::ALL {
            let _ = writeln!(out, "{:14} {}", scenario.name(), scenario.description());
        }
        out
    }

    /// The six scheduling-policy scenarios shared by Figures 1-3.
    const POLICY_SCENARIOS: [Scenario; 6] = [
        Scenario::Fcfs,
        Scenario::Sjf,
        Scenario::Mixed,
        Scenario::IFcfs,
        Scenario::ISjf,
        Scenario::IMixed,
    ];

    /// The deadline scenarios of Figure 4.
    const DEADLINE_SCENARIOS: [Scenario; 4] =
        [Scenario::Deadline, Scenario::IDeadline, Scenario::DeadlineH, Scenario::IDeadlineH];

    /// The expanding-network scenarios of Figure 5.
    const EXPANDING_SCENARIOS: [Scenario; 2] = [Scenario::Expanding, Scenario::IExpanding];

    /// The rescheduling-policy scenarios of Figure 8.
    const RESCHEDULING_SCENARIOS: [Scenario; 5] = [
        Scenario::IInform1,
        Scenario::IMixed,
        Scenario::IInform4,
        Scenario::IInform15m,
        Scenario::IInform30m,
    ];

    /// The ERT-accuracy scenarios of Figure 9.
    const ACCURACY_SCENARIOS: [Scenario; 8] = [
        Scenario::Precise,
        Scenario::IPrecise,
        Scenario::Mixed,
        Scenario::IMixed,
        Scenario::Accuracy25,
        Scenario::IAccuracy25,
        Scenario::AccuracyBad,
        Scenario::IAccuracyBad,
    ];

    /// The representative scenarios of Figure 10.
    const OVERHEAD_SCENARIOS: [Scenario; 6] = [
        Scenario::Mixed,
        Scenario::IMixed,
        Scenario::IInform1,
        Scenario::IInform4,
        Scenario::IExpanding,
        Scenario::IDeadline,
    ];

    /// The six load scenarios shared by Figures 6-7.
    const LOAD_SCENARIOS: [Scenario; 6] = [
        Scenario::LowLoad,
        Scenario::ILowLoad,
        Scenario::Mixed,
        Scenario::IMixed,
        Scenario::HighLoad,
        Scenario::IHighLoad,
    ];

    /// Figure 1: completed jobs over time per scheduling policy.
    pub fn fig1(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        let mut out = String::from("# Figure 1: completed jobs over time\n");
        out.push_str(&series_block(&results, |r| r.avg_completed_series()));
        out
    }

    /// Figure 2: average job completion time split into waiting and
    /// execution time.
    pub fn fig2(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        completion_block("# Figure 2: job completion time (s)\n", &results)
    }

    /// Figure 3: idle nodes over time per scheduling policy.
    pub fn fig3(&mut self) -> String {
        let results = self.results(&Self::POLICY_SCENARIOS);
        let mut out = String::from("# Figure 3: idle nodes over time\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 4: deadline scheduling performance.
    pub fn fig4(&mut self) -> String {
        let results = self.results(&Self::DEADLINE_SCENARIOS);
        let mut out = String::from(
            "# Figure 4: deadline scheduling performance\nscenario,missed_deadlines,avg_lateness_s,avg_missed_time_s\n",
        );
        for r in &results {
            let _ = writeln!(
                out,
                "{},{:.1},{:.0},{:.0}",
                r.scenario,
                r.avg_missed_deadlines(),
                r.avg_lateness_secs(),
                r.avg_missed_time_secs()
            );
        }
        out
    }

    /// Figure 5: idle nodes over time in an expanding network.
    pub fn fig5(&mut self) -> String {
        let results = self.results(&Self::EXPANDING_SCENARIOS);
        let mut out = String::from("# Figure 5: idle nodes over time (expanding network)\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 6: idle nodes over time under low/baseline/high load.
    pub fn fig6(&mut self) -> String {
        let results = self.results(&Self::LOAD_SCENARIOS);
        let mut out = String::from("# Figure 6: idle nodes over time (load)\n");
        out.push_str(&series_block(&results, |r| r.avg_idle_series()));
        out
    }

    /// Figure 7: job completion time under low/baseline/high load.
    pub fn fig7(&mut self) -> String {
        let results = self.results(&Self::LOAD_SCENARIOS);
        completion_block("# Figure 7: job completion time under load (s)\n", &results)
    }

    /// Figure 8: job completion time across rescheduling policies.
    pub fn fig8(&mut self) -> String {
        let results = self.results(&Self::RESCHEDULING_SCENARIOS);
        completion_block("# Figure 8: job completion time (rescheduling policies) (s)\n", &results)
    }

    /// Figure 9: sensitivity to ERT accuracy.
    pub fn fig9(&mut self) -> String {
        let results = self.results(&Self::ACCURACY_SCENARIOS);
        completion_block("# Figure 9: sensitivity to ERT accuracy (s)\n", &results)
    }

    /// Figure 10: network overhead per message type for representative
    /// scenarios.
    pub fn fig10(&mut self) -> String {
        let results = self.results(&Self::OVERHEAD_SCENARIOS);
        let mut out = String::from(
            "# Figure 10: network overhead comparison\nscenario,request_MB,accept_MB,inform_MB,assign_MB,total_MB,per_node_MB,bandwidth_bps\n",
        );
        for r in &results {
            let mb = |class| r.avg_bytes(class) / 1e6;
            let nodes = r.scenario.world_config().nodes;
            let horizon_secs = r.scenario.world_config().horizon.as_millis() / 1000;
            let per_node = r.avg_total_bytes() / nodes as f64;
            let _ = writeln!(
                out,
                "{},{:.2},{:.2},{:.2},{:.2},{:.2},{:.2},{:.0}",
                r.scenario,
                mb(TrafficClass::Request),
                mb(TrafficClass::Accept),
                mb(TrafficClass::Inform),
                mb(TrafficClass::Assign),
                r.avg_total_bytes() / 1e6,
                per_node / 1e6,
                per_node * 8.0 / horizon_secs as f64,
            );
        }
        out
    }

    /// Beyond the paper: the baseline-scheduler comparison at the
    /// campaign's scale — ARiA (iMixed) against the omniscient
    /// centralized scheduler, gossip state dissemination (\[25\]) and
    /// multiple simultaneous requests (\[13\]), on statistically identical
    /// workloads.
    pub fn baselines(&mut self) -> String {
        self.run_missing(&[Scenario::IMixed], true);
        let aria = &self.cache[Scenario::IMixed.name()];
        let mut out = String::from(
            "# Baselines: ARiA vs centralized / gossip [25] / multi-request [13]
scheduler,completion_s,waiting_s,messages
",
        );
        let _ = writeln!(
            out,
            "ARiA(iMixed),{:.0},{:.0},{:.0}",
            aria.completion().mean(),
            aria.waiting().mean(),
            aria.avg_over_runs(|r| r.traffic.total_messages() as f64),
        );
        let (completion, waiting, _) = self.baseline(Baseline::Central);
        let _ = writeln!(out, "central,{:.0},{:.0},0", completion.mean(), waiting.mean());
        let (completion, waiting, messages) = self.baseline(Baseline::Gossip);
        let _ = writeln!(
            out,
            "gossip,{:.0},{:.0},{messages:.0}",
            completion.mean(),
            waiting.mean()
        );
        let (completion, waiting, revoked) = self.baseline(Baseline::MultiReq);
        let _ = writeln!(
            out,
            "multireq_k3,{:.0},{:.0},{revoked:.0} revoked replicas",
            completion.mean(),
            waiting.mean()
        );
        out
    }

    /// All tables and figures, in order, from one fan-out.
    pub fn all(&mut self) -> String {
        self.prepare(&ARTIFACTS).expect("every artifact id is known");
        let rendered: Vec<String> = ARTIFACTS
            .iter()
            .map(|id| self.render(id).expect("every artifact id renders"))
            .collect();
        rendered.join("\n")
    }

    /// Renders one artifact by its id (`table1`, `table2`, `fig1`..`fig10`,
    /// `baselines` or `all`, case-insensitive), running whatever it reads
    /// that [`Campaign::prepare`] has not. Returns `None` for unknown ids.
    pub fn render(&mut self, id: &str) -> Option<String> {
        let id = id.to_ascii_lowercase();
        Some(match id.as_str() {
            "table1" => self.table1(),
            "table2" => self.table2(),
            "fig1" => self.fig1(),
            "fig2" => self.fig2(),
            "fig3" => self.fig3(),
            "fig4" => self.fig4(),
            "fig5" => self.fig5(),
            "fig6" => self.fig6(),
            "fig7" => self.fig7(),
            "fig8" => self.fig8(),
            "fig9" => self.fig9(),
            "fig10" => self.fig10(),
            "baselines" => self.baselines(),
            "all" => self.all(),
            _ => return None,
        })
    }
}

/// A baseline scheduler of the `# Baselines` table, run over the
/// campaign's (scaled) iMixed workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Baseline {
    Gossip,
    Central,
    MultiReq,
}

impl Baseline {
    /// Fan-out order: gossip's runs are the longest items of a campaign.
    const ALL: [Baseline; 3] = [Baseline::Gossip, Baseline::Central, Baseline::MultiReq];

    /// Runs this baseline for one seed, on statistically the same
    /// workload as the catalog's iMixed under `runner`'s scale.
    fn run(self, runner: &Runner, seed: u64) -> BaselineRun {
        use aria_core::{CentralScheduler, GossipScheduler, MultiRequestScheduler, PolicyMix};

        let config = Scenario::IMixed.world_config();
        let (nodes, horizon, period) =
            (runner.nodes_or(config.nodes), config.horizon, config.sample_period);
        let schedule = runner.schedule_for(Scenario::IMixed);
        let mut jobs = aria_workload::JobGenerator::new(Scenario::IMixed.job_config());
        let mix = PolicyMix::paper_mixed();
        match self {
            Baseline::Central => {
                let mut central = CentralScheduler::new(nodes, mix, horizon, period, seed);
                central.submit_schedule(&schedule, &mut jobs);
                BaselineRun::of(central.run(), 0.0)
            }
            Baseline::Gossip => {
                let mut gossip = GossipScheduler::new(nodes, mix, horizon, period, seed);
                gossip.submit_schedule(&schedule, &mut jobs);
                let metrics = gossip.run();
                BaselineRun::of(metrics, metrics.traffic().total_messages() as f64)
            }
            Baseline::MultiReq => {
                let mut multi = MultiRequestScheduler::new(nodes, mix, 3, horizon, period, seed);
                multi.submit_schedule(&schedule, &mut jobs);
                multi.run();
                BaselineRun::of(multi.metrics(), multi.revoked_replicas() as f64)
            }
        }
    }
}

/// What one baseline run over one seed adds to the `# Baselines` table.
#[derive(Debug, Clone)]
struct BaselineRun {
    completion: Summary,
    waiting: Summary,
    /// Messages sent (gossip), revoked replicas (multireq) or 0.
    count: f64,
}

impl BaselineRun {
    fn of(metrics: &MetricsCollector, count: f64) -> Self {
        BaselineRun {
            completion: metrics.completion_summary(),
            waiting: metrics.waiting_summary(),
            count,
        }
    }
}

/// One item of a campaign's fan-out.
#[derive(Debug, Clone, Copy)]
enum Item {
    Baseline(Baseline, u64),
    Catalog(Pair),
}

/// What one [`Item`] produced.
// Nearly every item is a catalog run, so boxing the large variant would
// only add an allocation per run.
#[allow(clippy::large_enum_variant)]
enum Done {
    Baseline(Baseline, BaselineRun),
    Catalog((usize, RunStats)),
}

/// Renders one time series per scenario as CSV (a `time_h` column then
/// one column per scenario, downsampled to half-hour points) followed by
/// an ASCII chart of the same data.
fn series_block(results: &[ScenarioResult], series: impl Fn(&ScenarioResult) -> TimeSeries) -> String {
    let columns: Vec<(String, TimeSeries)> =
        results.iter().map(|r| (r.scenario.to_string(), series(r))).collect();
    let period_mins = columns
        .first()
        .map(|(_, s)| s.period().as_millis() / 60_000)
        .unwrap_or(5)
        .max(1);
    let stride = (30 / period_mins).max(1) as usize;
    let thinned: Vec<(String, TimeSeries)> =
        columns.into_iter().map(|(name, s)| (name, s.thin(stride))).collect();

    let mut out = String::from("time_h");
    for (name, _) in &thinned {
        let _ = write!(out, ",{name}");
    }
    out.push('\n');
    let rows = thinned.iter().map(|(_, s)| s.len()).max().unwrap_or(0);
    for i in 0..rows {
        let t = thinned[0].1.time_at(i);
        let _ = write!(out, "{:.2}", t.as_hours_f64());
        for (_, s) in &thinned {
            match s.values().get(i) {
                Some(v) => {
                    let _ = write!(out, ",{v:.1}");
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    let charted: Vec<(&str, &TimeSeries)> =
        thinned.iter().map(|(name, s)| (name.as_str(), s)).collect();
    out.push('\n');
    out.push_str(&ascii_chart(&charted, 72, 16));
    out
}

/// Renders the waiting/execution/completion means per scenario, plus
/// median and tail percentiles of the completion time.
fn completion_block(header: &str, results: &[ScenarioResult]) -> String {
    let mut out = String::from(header);
    out.push_str("scenario,waiting_s,execution_s,completion_s,completion_p50_s,completion_p95_s\n");
    for r in results {
        let _ = writeln!(
            out,
            "{},{:.0},{:.0},{:.0},{:.0},{:.0}",
            r.scenario,
            r.waiting().mean(),
            r.execution().mean(),
            r.completion().mean(),
            r.avg_completion_p50(),
            r.avg_completion_p95(),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn campaign() -> Campaign {
        Campaign::new(Runner::scaled(30, 10), vec![1])
    }

    #[test]
    fn tables_render_without_running_simulations() {
        let mut c = campaign();
        let t1 = c.table1();
        assert!(t1.contains("REQUEST") && t1.contains("128 bytes"));
        let t2 = c.table2();
        assert!(t2.contains("iMixed"));
        assert_eq!(t2.lines().count(), 27); // header + 26 scenarios
    }

    #[test]
    fn fig4_lists_four_deadline_scenarios() {
        let mut c = campaign();
        let fig = c.fig4();
        for name in ["Deadline", "iDeadline", "DeadlineH", "iDeadlineH"] {
            assert!(fig.contains(&format!("\n{name},")), "{fig}");
        }
    }

    #[test]
    fn fig10_totals_are_consistent() {
        let mut c = campaign();
        let fig = c.fig10();
        // Plain Mixed has zero INFORM traffic.
        let mixed_row = fig.lines().find(|l| l.starts_with("Mixed,")).unwrap();
        let cols: Vec<&str> = mixed_row.split(',').collect();
        assert_eq!(cols[3], "0.00", "plain Mixed should have no INFORM bytes: {mixed_row}");
    }

    #[test]
    fn caching_avoids_rerunning_scenarios() {
        let mut c = campaign();
        let fig1 = c.fig1();
        let fig3 = c.fig3(); // shares all six scenarios with fig1
        assert!(fig1.contains("iMixed"));
        assert!(fig3.contains("iMixed"));
        assert_eq!(c.cache.len(), 6);
    }

    #[test]
    fn all_caches_the_baselines_it_renders() {
        let mut c = campaign();
        let all = c.all();
        assert_eq!(c.cache.len(), 26);
        assert_eq!(c.baseline_runs.values().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1]);
        let baselines = c.baselines();
        assert_eq!(c.cache.len(), 26);
        assert_eq!(c.baseline_runs.values().map(Vec::len).collect::<Vec<_>>(), [1, 1, 1]);
        let block = &all[all.find("# Baselines").expect("all renders the baselines")..];
        assert_eq!(block, baselines);
    }

    #[test]
    fn a_prepared_artifact_renders_from_the_caches() {
        for id in ARTIFACTS {
            let mut c = campaign();
            c.prepare(&[id]).unwrap();
            let cached = (c.cache.len(), c.baseline_runs.values().map(Vec::len).sum::<usize>());
            c.render(id).unwrap();
            let after = (c.cache.len(), c.baseline_runs.values().map(Vec::len).sum::<usize>());
            assert_eq!(after, cached, "{id}");
        }
    }

    #[test]
    fn prepare_rejects_unknown_ids_before_running_anything() {
        let mut c = campaign();
        assert_eq!(c.prepare(&["fig4", "Nope"]), Err("nope".to_string()));
        assert!(c.cache.is_empty() && c.baseline_runs.is_empty());
    }

    #[test]
    fn the_smallest_scaled_campaign_renders_every_artifact() {
        let all = Campaign::new(Runner::scaled(Runner::MIN_NODES, 5), vec![1]).all();
        assert!(all.contains("\ngossip,") && all.contains("\niDeadlineH,"), "{all}");
    }

    #[test]
    fn render_dispatches_ids() {
        let mut c = campaign();
        assert!(c.render("table1").is_some());
        assert!(c.render("TABLE2").is_some());
        assert!(c.render("nope").is_none());
    }

    #[test]
    fn series_block_has_header_and_rows() {
        let mut c = campaign();
        let fig = c.fig5();
        let mut lines = fig.lines();
        assert!(lines.next().unwrap().starts_with("# Figure 5"));
        let header = lines.next().unwrap();
        assert!(header.starts_with("time_h,Expanding,iExpanding"), "{header}");
        assert!(lines.count() > 10);
    }
}
