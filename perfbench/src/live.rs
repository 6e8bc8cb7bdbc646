//! The `live-core` workload: 64 `NodeDriver`s hosted on one thread on a
//! simulated clock — the shipping protocol core and wire format, with
//! the sockets and timer wheel of the `aria-node` runtime replaced by
//! one time-ordered queue (the shape of the lockstep cluster in the
//! driver's tests).
//!
//! Every `Output::Send` is encoded with `aria_codec::encode`, and the
//! receiver decodes it on delivery. Each driver knows all peers (as
//! `aria-cluster` configures them) and forwards floods along a
//! random-regular(4) overlay. Timing is `aria-cluster`'s live timing
//! with 500 ms heartbeats. The transport drops a small seeded share of
//! protocol frames, and one node that initiates no jobs is killed and
//! restarted mid-run.

#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use crate::report::{Checks, Values};
use crate::stats;
use crate::trace::{Leaf, NoTrace, Spans, Trace};
use aria_core::config::ProtocolTiming;
use aria_core::driver::{
    DriverConfig, Input, LiveMsg, MembershipConfig, NodeDriver, Output, Timer,
};
use aria_core::AriaConfig;
use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex, Policy,
};
use aria_overlay::{builders, LatencyModel, NodeId};
use aria_probe::ProbeEvent;
use aria_sim::{SimDuration, SimRng, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Hosted nodes.
pub const NODES: u32 = 64;
/// Jobs submitted per cluster run.
pub const JOBS: usize = 5_000;
/// Pacing of the job stream: one submission every 40 ms from t = 1 s.
const SUBMIT_GAP: SimDuration = SimDuration::from_millis(40);
/// Share of protocol frames the transport drops.
const LOSS: f64 = 0.005;
/// When the victim is killed and restarted.
const KILL_AT: SimTime = SimTime::from_secs(30);
const RESTART_AT: SimTime = SimTime::from_secs(45);
/// A cluster run that has not completed every job this long after the
/// last submission stops and counts the rest as failed.
const DRAIN_LIMIT: SimDuration = SimDuration::from_secs(600);
/// Set-ups timed before the measured runs, for `setup_s`.
const SETUP_REPS: usize = 15;

/// `aria-cluster`'s live timing: the paper's protocol shape with
/// constants scaled to a loopback timescale; heartbeats every 500 ms,
/// suspect after 1.5 s of silence, dead after 4 s.
pub fn live_timing() -> DriverConfig {
    let mut aria = AriaConfig::default().with_timing(ProtocolTiming {
        accept_window: SimDuration::from_millis(300),
        request_retry: SimDuration::from_millis(1000),
        max_request_rounds: 50,
        assign_ack_timeout: SimDuration::from_millis(200),
        assign_max_retries: 4,
    });
    aria.inform_period = SimDuration::from_millis(2000);
    DriverConfig {
        aria,
        failsafe: true,
        failsafe_detection: SimDuration::from_millis(3000),
        membership: MembershipConfig {
            heartbeat_period: SimDuration::from_millis(500),
            suspect_misses: 3,
            dead_misses: 8,
        },
    }
}

/// Everything a cluster run is made from, derived from the seed.
#[derive(Debug, Clone)]
pub struct Inputs {
    seed: u64,
    neighbors: Vec<Vec<NodeId>>,
    /// Overlay links.
    pub links: usize,
    /// `(submit time, initiator, job)`, ascending in time; job `j` has id `j`.
    jobs: Vec<(SimTime, u32, JobSpec)>,
    /// The node killed and restarted; it initiates no job.
    victim: u32,
}

/// Derives a run's inputs from `seed`.
pub fn inputs<T: Trace>(seed: u64, t: &mut T) -> Inputs {
    let mut rng = SimRng::seed_from(seed);
    let mut overlay_rng = rng.fork(1);
    let mut job_rng = rng.fork(3);
    let topology = t.span("overlay.build", |_| {
        builders::random_regular(
            NODES as usize,
            4,
            &LatencyModel::default(),
            &mut overlay_rng,
        )
    });
    let neighbors = (0..NODES)
        .map(|i| topology.neighbors(NodeId::new(i)).to_vec())
        .collect();
    let victim = 1 + job_rng.index(NODES as usize - 1) as u32;
    let jobs = (0..JOBS)
        .map(|j| {
            let at = SimTime::from_secs(1) + SUBMIT_GAP * j as u64;
            let initiator = loop {
                let n = job_rng.index(NODES as usize) as u32;
                if n != victim {
                    break n;
                }
            };
            // Whole-second ERTs (JSDL carries seconds) over the two
            // resource classes `aria-cluster` submits.
            let ert = SimDuration::from_secs(job_rng.u64_range(1, 4));
            let requirements = if job_rng.chance(1.0 / 3.0) {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 8, 50)
            } else {
                JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 2, 10)
            };
            (
                at,
                initiator,
                JobSpec::batch(JobId::new(j as u64), requirements, ert),
            )
        })
        .collect();
    Inputs {
        seed,
        neighbors,
        links: topology.link_count(),
        jobs,
        victim,
    }
}

/// Node `i`'s driver for its `incarnation`-th boot.
fn make_driver(inputs: &Inputs, i: u32, incarnation: u64) -> NodeDriver {
    // `aria-cluster` alternates two profiles and two policies.
    let (profile, policy) = if i.is_multiple_of(2) {
        (
            NodeProfile::new(
                Architecture::Amd64,
                OperatingSystem::Linux,
                64,
                1000,
                PerfIndex::BASELINE,
            ),
            Policy::Fcfs,
        )
    } else {
        let fast = PerfIndex::new(1.5).expect("valid index");
        (
            NodeProfile::new(Architecture::Amd64, OperatingSystem::Linux, 16, 200, fast),
            Policy::Sjf,
        )
    };
    let seed = inputs
        .seed
        .wrapping_mul(1_000_003)
        .wrapping_add(u64::from(i) + 10_000 * incarnation);
    NodeDriver::new(
        NodeId::new(i),
        profile,
        policy,
        live_timing(),
        seed,
        (0..NODES).map(NodeId::new).collect(),
        inputs.neighbors[i as usize].clone(),
    )
}

enum What {
    Frame { from: NodeId, bytes: Vec<u8> },
    Timer(Timer),
    Submit(JobSpec),
    Kill,
    Restart,
}

/// A queued host event, min-ordered by `(at, seq)`.
struct Ev {
    at: SimTime,
    seq: u64,
    node: u32,
    /// Incarnation of `node` the event was queued for: a kill loses the
    /// timers and in-flight frames of the old process.
    epoch: u32,
    what: What,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap; pop the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// What one cluster run did; all of it repeats exactly for given inputs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunCounts {
    /// Frames sent (every `Output::Send`, dropped ones included).
    pub frames: u64,
    /// Of those, heartbeats.
    pub heartbeat_frames: u64,
    /// Encoded bytes of all frames sent.
    pub bytes: u64,
    /// Frames the transport dropped.
    pub dropped: u64,
    /// Frames that failed to decode.
    pub decode_errors: u64,
    /// `handle` calls.
    pub handle_calls: u64,
    /// Outputs those calls returned.
    pub outputs: u64,
    /// ASSIGN retransmits.
    pub retransmits: u64,
    /// Jobs entering a scheduler queue, and the summed depth after.
    pub enqueued: u64,
    /// Sum of queue depths after each insert.
    pub depth_sum: u64,
    /// Distinct jobs completed.
    pub completed: u64,
    /// Completions beyond the first of a job.
    pub duplicates: u64,
    /// Jobs reported lost or abandoned.
    pub lost_or_abandoned: u64,
    /// Sum of submit→complete times, ms.
    pub completion_ms_sum: u64,
    /// Simulated time the run ended at, ms.
    pub end_ms: u64,
}

/// The host: drivers, the event queue and the transport.
pub struct Host<'a> {
    inputs: &'a Inputs,
    drivers: Vec<NodeDriver>,
    alive: Vec<bool>,
    epoch: Vec<u32>,
    queue: BinaryHeap<Ev>,
    seq: u64,
    now: SimTime,
    net: SimRng,
    submitted_at: Vec<SimTime>,
    completions: Vec<u32>,
    completion_s: Vec<f64>,
    /// The run's counts.
    pub counts: RunCounts,
}

impl<'a> Host<'a> {
    /// Set-up: builds and starts every driver and queues the job stream
    /// and the victim's kill and restart.
    pub fn new<T: Trace>(inputs: &'a Inputs, t: &mut T) -> Self {
        let mut net_rng = SimRng::seed_from(inputs.seed);
        let mut host = Host {
            inputs,
            drivers: (0..NODES).map(|i| make_driver(inputs, i, 0)).collect(),
            alive: vec![true; NODES as usize],
            epoch: vec![0; NODES as usize],
            queue: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
            net: net_rng.fork(9),
            submitted_at: vec![SimTime::ZERO; JOBS],
            completions: vec![0; JOBS],
            completion_s: Vec::with_capacity(JOBS),
            counts: RunCounts::default(),
        };
        for i in 0..NODES {
            let out = t.leaf(Leaf::DriverStart, || {
                host.drivers[i as usize].start(SimTime::ZERO)
            });
            host.apply(i, out, t);
        }
        for &(at, node, spec) in &inputs.jobs {
            host.push(at, node, What::Submit(spec));
        }
        host.push(KILL_AT, inputs.victim, What::Kill);
        host.push(RESTART_AT, inputs.victim, What::Restart);
        host
    }

    fn push(&mut self, at: SimTime, node: u32, what: What) {
        let epoch = self.epoch[node as usize];
        self.queue.push(Ev {
            at,
            seq: self.seq,
            node,
            epoch,
            what,
        });
        self.seq += 1;
    }

    fn apply<T: Trace>(&mut self, node: u32, outputs: Vec<Output>, t: &mut T) {
        self.counts.outputs += outputs.len() as u64;
        for output in outputs {
            match output {
                Output::Send { to, msg } => {
                    self.counts.frames += 1;
                    if matches!(msg, LiveMsg::Heartbeat { .. }) {
                        self.counts.heartbeat_frames += 1;
                    }
                    let bytes = t.leaf(Leaf::CodecEncode, || aria_codec::encode(&msg));
                    self.counts.bytes += bytes.len() as u64;
                    if msg.is_protocol() && self.net.chance(LOSS) {
                        self.counts.dropped += 1;
                        continue;
                    }
                    let latency = SimDuration::from_millis(self.net.u64_range(1, 11));
                    self.push(
                        self.now + latency,
                        to.raw(),
                        What::Frame {
                            from: NodeId::new(node),
                            bytes,
                        },
                    );
                }
                Output::StartTimer { after, timer } => {
                    self.push(self.now + after, node, What::Timer(timer))
                }
                Output::Probe(ProbeEvent::AssignRetransmit { .. }) => self.counts.retransmits += 1,
                Output::Probe(ProbeEvent::Enqueued { depth, .. }) => {
                    self.counts.enqueued += 1;
                    self.counts.depth_sum += u64::from(depth);
                }
                Output::Probe(_) => {}
                Output::Completed { job } => {
                    let j = job.raw() as usize;
                    self.completions[j] += 1;
                    if self.completions[j] == 1 {
                        let took = self.now.saturating_since(self.submitted_at[j]);
                        self.counts.completed += 1;
                        self.counts.completion_ms_sum += took.as_millis();
                        self.completion_s.push(took.as_secs_f64());
                    } else {
                        self.counts.duplicates += 1;
                    }
                }
                Output::Lost { .. } | Output::Abandoned { .. } => {
                    self.counts.lost_or_abandoned += 1
                }
            }
        }
    }

    /// Runs the cluster until every job has completed (or the drain
    /// limit passes). Returns the sorted submit→complete times, seconds.
    pub fn run<T: Trace>(mut self, t: &mut T) -> (RunCounts, Vec<f64>) {
        let last_submit = self.inputs.jobs.last().map_or(SimTime::ZERO, |j| j.0);
        let limit = last_submit + DRAIN_LIMIT;
        while self.counts.completed < JOBS as u64 {
            let Some(ev) = self.queue.pop() else { break };
            if ev.at > limit {
                break;
            }
            self.now = ev.at;
            let node = ev.node as usize;
            let input = match ev.what {
                What::Kill => {
                    self.alive[node] = false;
                    continue;
                }
                What::Restart => {
                    self.drivers[node] = make_driver(self.inputs, ev.node, 1);
                    self.alive[node] = true;
                    self.epoch[node] += 1;
                    let out = t.leaf(Leaf::DriverStart, || self.drivers[node].start(self.now));
                    self.apply(ev.node, out, t);
                    continue;
                }
                _ if !self.alive[node] || self.epoch[node] != ev.epoch => continue,
                What::Frame { from, bytes } => {
                    match t.leaf(Leaf::CodecDecode, || aria_codec::decode(&bytes)) {
                        Ok(msg) => Input::Msg { from, msg },
                        Err(_) => {
                            self.counts.decode_errors += 1;
                            continue;
                        }
                    }
                }
                What::Timer(timer) => Input::Timer(timer),
                What::Submit(spec) => {
                    self.submitted_at[spec.id.raw() as usize] = self.now;
                    Input::Submit(spec)
                }
            };
            let now = self.now;
            let out = t.leaf(Leaf::DriverHandle, || self.drivers[node].handle(now, input));
            self.counts.handle_calls += 1;
            self.apply(ev.node, out, t);
        }
        self.counts.end_ms = self.now.as_millis();
        self.completion_s.sort_by(f64::total_cmp);
        (self.counts, self.completion_s)
    }
}

/// The untraced pass: timed set-ups, then as many timed cluster runs as
/// fit in `seconds` (at least one).
pub struct Untraced {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of each cluster run (set-up excluded), seconds.
    pub run_s: Vec<f64>,
    /// The run's counts (identical across runs).
    pub counts: RunCounts,
    /// Sorted submit→complete times, seconds.
    pub completions: Vec<f64>,
}

/// Runs the untraced pass.
pub fn untraced(seed: u64, seconds: f64, checks: &mut Checks) -> Untraced {
    let inputs = inputs(seed, &mut NoTrace);
    let mut setups = Vec::new();
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let host = Host::new(&inputs, &mut NoTrace);
        setups.push(start.elapsed().as_secs_f64());
        drop(host);
    }
    let started = Instant::now();
    let mut run_s = Vec::new();
    let mut first: Option<(RunCounts, Vec<f64>)> = None;
    while stats::another_fits(started.elapsed().as_secs_f64(), run_s.len(), seconds) {
        let start = Instant::now();
        let host = Host::new(&inputs, &mut NoTrace);
        setups.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (counts, completions) = host.run(&mut NoTrace);
        run_s.push(start.elapsed().as_secs_f64());
        match &first {
            None => first = Some((counts, completions)),
            Some((c, _)) => checks.check("live.repeat_runs_identical", *c == counts, || {
                format!("{c:?} vs {counts:?}")
            }),
        }
    }
    let (counts, completions) = first.expect("ran once");
    check_outcome(&counts, checks);
    Untraced {
        setup_s: stats::median(&mut setups),
        run_s,
        counts,
        completions,
    }
}

/// The correctness checks every cluster run must pass.
pub fn check_outcome(c: &RunCounts, checks: &mut Checks) {
    checks.check("codec.no_decode_errors", c.decode_errors == 0, || {
        format!("{} decode errors", c.decode_errors)
    });
    // Every initiator survives (the victim initiates nothing), so every
    // job must complete, exactly once.
    checks.check(
        "live.surviving_initiators_complete_every_job",
        c.completed == JOBS as u64,
        || format!("{}/{JOBS} jobs completed", c.completed),
    );
    checks.check("live.no_duplicate_completions", c.duplicates == 0, || {
        format!("{} duplicate completions", c.duplicates)
    });
    checks.check("live.transport_dropped_frames", c.dropped > 0, || {
        "no frame was dropped".to_string()
    });
}

/// The traced pass: `runs` cluster runs under `t`, each preceded by an
/// untraced run of the same inputs (interleaved, so drift in the host's
/// speed hits both sides alike). Returns the counts (checked identical
/// across all runs), the inputs' link count and the median untraced
/// run time.
pub fn traced(
    seed: u64,
    runs: usize,
    t: &mut Spans,
    checks: &mut Checks,
) -> (RunCounts, usize, f64) {
    let inputs = inputs(seed, t);
    let mut untraced_s = Vec::new();
    let mut counts: Option<RunCounts> = None;
    for _ in 0..runs {
        let host = Host::new(&inputs, &mut NoTrace);
        let start = Instant::now();
        let plain = host.run(&mut NoTrace).0;
        untraced_s.push(start.elapsed().as_secs_f64());
        let host = t.span("live.setup", |t| Host::new(&inputs, t));
        let traced = t.span("live.run", |t| host.run(t)).0;
        let first = counts.get_or_insert_with(|| plain.clone());
        checks.check(
            "live.untraced_and_traced_runs_agree",
            *first == plain && *first == traced,
            || format!("{first:?} vs {plain:?} vs {traced:?}"),
        );
    }
    let counts = counts.expect("at least one run");
    check_outcome(&counts, checks);
    (counts, inputs.links, stats::median(&mut untraced_s))
}

/// Per-layer metrics of the traced pass; `untraced_run_s` is the
/// median untraced cluster-run wall time.
pub fn layers(
    c: &RunCounts,
    links: usize,
    runs: usize,
    t: &Spans,
    untraced_run_s: f64,
    out: &mut Values,
) {
    let per = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let leaf_ns = |leaf: Leaf| t.leaf_agg(leaf).mean_ns();
    out.insert("overlay.build_s", t.total_s("overlay.build"));
    out.insert("overlay.links", links as f64);
    out.insert(
        "grid.enqueue_depth_mean",
        per(c.depth_sum as f64, c.enqueued as f64),
    );
    out.insert("driver.handle_ns", leaf_ns(Leaf::DriverHandle));
    out.insert(
        "driver.outputs_per_call",
        per(c.outputs as f64, c.handle_calls as f64),
    );
    out.insert(
        "driver.heartbeat_frame_frac",
        per(c.heartbeat_frames as f64, c.frames as f64),
    );
    out.insert(
        "driver.frames_per_node_s",
        per(c.frames as f64, f64::from(NODES) * c.end_ms as f64 / 1000.0),
    );
    out.insert("driver.retransmits", c.retransmits as f64);
    out.insert("codec.encode_ns", leaf_ns(Leaf::CodecEncode));
    out.insert("codec.decode_ns", leaf_ns(Leaf::CodecDecode));
    out.insert(
        "codec.bytes_per_frame",
        per(c.bytes as f64, c.frames as f64),
    );
    out.insert("codec.decode_errors", c.decode_errors as f64);
    let traced_run_s = t.total_s("live.run") / runs as f64;
    out.insert(
        "trace_overhead_frac",
        (traced_run_s - untraced_run_s) / untraced_run_s,
    );
}
