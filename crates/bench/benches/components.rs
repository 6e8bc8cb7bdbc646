//! Component micro-benchmarks: the building blocks whose cost dominates
//! a simulation run — overlay construction, flood forwarding, local
//! scheduler operations and the two cost functions.

use aria_core::{World, WorldConfig};
use aria_grid::{
    Architecture, JobId, JobRequirements, JobSpec, NodeProfile, OperatingSystem, PerfIndex,
    Policy, SchedulerQueue,
};
use aria_overlay::{Blatant, LatencyModel};
use aria_sim::{EventQueue, SimDuration, SimRng, SimTime};
use aria_workload::{JobGenerator, ProfileGenerator, SubmissionSchedule};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn overlay_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("overlay_build");
    for n in [100usize, 500] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| {
                let mut rng = SimRng::seed_from(1);
                let topo = Blatant::new(9.0, LatencyModel::default()).build(n, &mut rng);
                black_box(topo.link_count())
            })
        });
    }
    group.finish();
}

fn overlay_join(c: &mut Criterion) {
    c.bench_function("overlay_join_100", |b| {
        let mut rng = SimRng::seed_from(2);
        let mut blatant = Blatant::new(9.0, LatencyModel::default());
        let base = blatant.build(500, &mut rng);
        b.iter(|| {
            let mut topo = base.clone();
            for _ in 0..100 {
                blatant.integrate_node(&mut topo, &mut rng);
            }
            black_box(topo.len())
        })
    });
}

fn profile() -> NodeProfile {
    NodeProfile::new(Architecture::Amd64, OperatingSystem::Linux, 8, 8, PerfIndex::BASELINE)
}

fn batch_job(id: u64, mins: u64) -> JobSpec {
    let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
    JobSpec::batch(JobId::new(id), req, SimDuration::from_mins(mins))
}

fn deadline_job(id: u64, mins: u64, deadline_mins: u64) -> JobSpec {
    let req = JobRequirements::new(Architecture::Amd64, OperatingSystem::Linux, 1, 1);
    JobSpec::with_deadline(
        JobId::new(id),
        req,
        SimDuration::from_mins(mins),
        SimTime::from_mins(deadline_mins),
    )
}

fn scheduler_queue_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("scheduler_queue");
    for policy in [Policy::Fcfs, Policy::Sjf, Policy::Edf] {
        group.bench_with_input(
            BenchmarkId::from_parameter(policy),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let mut queue = SchedulerQueue::new(policy);
                    let p = profile();
                    for i in 0..100u64 {
                        let job = if policy == Policy::Edf {
                            deadline_job(i, 60 + i, 600 + 7 * i)
                        } else {
                            batch_job(i, 60 + (i * 37) % 180)
                        };
                        queue.enqueue(job, SimTime::from_mins(i), &p);
                    }
                    while queue.start_next(SimTime::ZERO).is_some() {
                        queue.complete_running();
                    }
                    black_box(queue.is_idle())
                })
            },
        );
    }
    group.finish();
}

fn cost_functions(c: &mut Criterion) {
    let mut group = c.benchmark_group("cost_function");
    // ETTC over a 50-deep SJF queue.
    group.bench_function("ettc_depth50", |b| {
        let mut queue = SchedulerQueue::new(Policy::Sjf);
        let p = profile();
        for i in 0..50u64 {
            queue.enqueue(batch_job(i, 60 + (i * 13) % 120), SimTime::ZERO, &p);
        }
        let candidate = batch_job(999, 90);
        b.iter(|| black_box(queue.ettc_of_candidate(&candidate, SimTime::from_mins(5), &p)))
    });
    // NAL over a 50-deep EDF queue (quadratic-ish: full queue walk).
    group.bench_function("nal_depth50", |b| {
        let mut queue = SchedulerQueue::new(Policy::Edf);
        let p = profile();
        for i in 0..50u64 {
            queue.enqueue(deadline_job(i, 60, 600 + 11 * i), SimTime::ZERO, &p);
        }
        let candidate = deadline_job(999, 90, 900);
        b.iter(|| black_box(queue.nal_of_candidate(&candidate, SimTime::from_mins(5), &p)))
    });
    group.finish();
}

fn event_queue_throughput(c: &mut Criterion) {
    c.bench_function("event_queue_100k", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            for i in 0..100_000u64 {
                queue.schedule(SimTime::from_millis((i * 7919) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = queue.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
}

/// The shape of a deep world run, where `event_queue_100k` (push all,
/// then pop all) flatters a radix queue: 50k periodic timers with
/// staggered phases, each re-armed as it fires, and every fourth tick
/// starting a short-latency delivery flood (fan-out 2, three hops), all
/// popped interleaved with the schedules they cause.
fn event_queue_des(c: &mut Criterion) {
    const TIMERS: u64 = 50_000;
    const PERIOD_MS: u64 = 300_000;
    const HOPS: u64 = 3;
    c.bench_function("event_queue_des_50k_timers", |b| {
        b.iter(|| {
            let mut queue = EventQueue::new();
            // Payloads below TIMERS are timer ids; the rest are
            // deliveries carrying TIMERS + hops left.
            for i in 0..TIMERS {
                queue.schedule(SimTime::from_millis(i * 7919 % PERIOD_MS), i);
            }
            let mut state = 0x9e37_79b9_7f4a_7c15_u64;
            let mut latency = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                SimDuration::from_millis(10 + state % 290)
            };
            let mut delivered = 0u64;
            for _ in 0..500_000 {
                let (now, e) = queue.pop().expect("timers keep the queue non-empty");
                if e < TIMERS {
                    queue.schedule(now + SimDuration::from_millis(PERIOD_MS), e);
                    if e % 4 == 0 {
                        queue.schedule(now + latency(), TIMERS + HOPS);
                    }
                } else {
                    delivered += 1;
                    if e > TIMERS {
                        queue.schedule(now + latency(), e - 1);
                        queue.schedule(now + latency(), e - 1);
                    }
                }
            }
            black_box(delivered)
        })
    });
}

fn workload_generation(c: &mut Criterion) {
    c.bench_function("workload_1000_feasible_jobs", |b| {
        let mut rng = SimRng::seed_from(3);
        let grid = ProfileGenerator::paper().generate_many(500, &mut rng);
        b.iter(|| {
            let mut generator = JobGenerator::paper_batch();
            let mut rng = SimRng::seed_from(4);
            let jobs: Vec<JobSpec> = (0..1000)
                .map(|_| generator.generate_feasible(SimTime::ZERO, &grid, &mut rng))
                .collect();
            black_box(jobs.len())
        })
    });
}

fn full_small_simulation(c: &mut Criterion) {
    // The end-to-end unit of all figure benches: one small world run.
    c.bench_function("world_60n_60j", |b| {
        b.iter(|| {
            let mut world = World::new(WorldConfig::small_test(60), 1);
            let mut jobs = JobGenerator::paper_batch();
            let schedule =
                SubmissionSchedule::new(SimTime::from_mins(1), SimDuration::from_secs(30), 60);
            world.submit_schedule(&schedule, &mut jobs);
            world.run();
            black_box(world.metrics().completed_count())
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = overlay_build, overlay_join, scheduler_queue_ops, cost_functions,
        event_queue_throughput, event_queue_des, workload_generation, full_small_simulation
}
criterion_main!(benches);
