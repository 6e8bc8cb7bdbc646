//! Smoke tests for the figure-reproduction harness: every table and
//! figure renders at reduced scale and shows the paper's qualitative
//! shape.

use aria_scenarios::{Campaign, Runner, Scenario};

fn campaign() -> Campaign {
    Campaign::new(Runner::scaled(50, 60), vec![1, 2])
}

/// Every artifact `all` renders, in order.
const ARTIFACTS: [&str; 13] = [
    "table1", "table2", "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
    "fig10", "baselines",
];

#[test]
fn every_artifact_renders() {
    let mut c = campaign();
    for id in ARTIFACTS.iter().chain(&["all"]) {
        let out = c.render(id).unwrap_or_else(|| panic!("unknown id {id}"));
        assert!(!out.is_empty(), "{id} rendered empty");
        assert!(out.starts_with("# "), "{id} missing title: {out}");
    }
}

/// A small campaign with its seeds out of order.
fn small_campaign(workers: usize) -> Campaign {
    Campaign::new(Runner::scaled(30, 10).workers(workers), vec![2, 1])
}

#[test]
fn all_equals_its_artifacts_rendered_one_by_one() {
    let all = small_campaign(2).all();
    let mut c = small_campaign(2);
    let one_by_one: Vec<String> =
        ARTIFACTS.iter().map(|id| c.render(id).expect("known artifact")).collect();
    assert_eq!(all, one_by_one.join("\n"));
}

#[test]
fn all_is_identical_at_any_lane_count() {
    let serial = small_campaign(1).all();
    for lanes in [2, 4] {
        assert_eq!(small_campaign(lanes).all(), serial, "{lanes} lanes");
    }
}

#[test]
fn fig1_reaches_total_jobs_in_all_policies() {
    let mut c = campaign();
    let fig = c.fig1();
    // Last CSV data row (the figure is followed by an ASCII chart).
    let last_row = fig
        .lines()
        .rfind(|l| l.starts_with(|c: char| c.is_ascii_digit()) && l.contains(','))
        .unwrap();
    // All six series end at the total job count (60).
    let cols: Vec<&str> = last_row.split(',').collect();
    assert_eq!(cols.len(), 7, "{last_row}");
    for value in &cols[1..] {
        assert_eq!(*value, "60.0", "series did not finish all jobs: {last_row}");
    }
}

#[test]
fn fig2_rescheduling_beats_plain_for_sjf_and_mixed() {
    let runner = Runner::scaled(50, 120);
    let seeds = [1, 2, 3];
    let results = runner.run_many(
        &[Scenario::Sjf, Scenario::ISjf, Scenario::Mixed, Scenario::IMixed],
        &seeds,
    );
    let mean = |i: usize| results[i].completion().mean();
    assert!(
        mean(1) < mean(0),
        "iSJF ({:.0}s) should beat SJF ({:.0}s)",
        mean(1),
        mean(0)
    );
    assert!(
        mean(3) < mean(2),
        "iMixed ({:.0}s) should beat Mixed ({:.0}s)",
        mean(3),
        mean(2)
    );
}

#[test]
fn fig10_inform_traffic_scales_with_batch_size() {
    let runner = Runner::scaled(50, 100);
    let seeds = [1, 2];
    let results =
        runner.run_many(&[Scenario::IInform1, Scenario::IMixed, Scenario::IInform4], &seeds);
    let inform = |i: usize| results[i].avg_messages(aria_metrics::TrafficClass::Inform);
    assert!(
        inform(0) < inform(2),
        "iInform1 ({:.0}) should send less INFORM traffic than iInform4 ({:.0})",
        inform(0),
        inform(2)
    );
    assert!(inform(1) <= inform(2) * 1.05, "baseline should not exceed iInform4");
}

#[test]
fn baselines_artifact_renders_all_four_schedulers() {
    let mut c = Campaign::new(Runner::scaled(30, 20).workers(1), vec![1]);
    let out = c.render("baselines").expect("known artifact");
    for scheduler in ["ARiA(iMixed)", "central", "gossip", "multireq_k3"] {
        assert!(out.contains(scheduler), "missing {scheduler}: {out}");
    }
    // Gossip row reports nonzero message traffic; central reports none.
    let central_row = out.lines().find(|l| l.starts_with("central,")).unwrap();
    assert!(central_row.ends_with(",0"), "{central_row}");
}

#[test]
fn fig9_accuracy_scenarios_stay_feasible() {
    let runner = Runner::scaled(40, 40);
    let results = runner.run_many(
        &[Scenario::IPrecise, Scenario::IAccuracy25, Scenario::IAccuracyBad],
        &[3],
    );
    for r in &results {
        assert_eq!(r.runs[0].completed, 40, "{} lost jobs", r.scenario);
    }
    // Optimistic estimation (AccuracyBad) inflates execution time.
    let precise_exec = results[0].execution().mean();
    let bad_exec = results[2].execution().mean();
    assert!(
        bad_exec > precise_exec,
        "optimistic ERT should lengthen executions: {bad_exec:.0}s vs {precise_exec:.0}s"
    );
}
