//! `grid-sim`: the simulation behind Figs. 5 and 7, with no RPC, run
//! as fast as the host allows.
//!
//! A seeded scenario — 32 sites of mixed size and external load, 8
//! VOs, jobs of 1–3 chained tasks with heavy-tailed demand, half of
//! them reading replicated inputs, site outages and link flaps, with
//! persistence and two followers — is
//! driven the way the scenario runner drives one: at every arrival,
//! fault or poll boundary `run_until`, then the faults, then
//! `gate.admit` and `submit_job` for the jobs arriving then, and
//! finally a drain until the grid settles. The outcome is
//! deterministic: the run repeats the scenario and every repetition
//! must reproduce the same per-task completion digest.

use crate::calib::Calibrator;
use crate::layers;
use crate::rng::{pareto_quantile, Rng};
use crate::stats::{self, median, percentile};
use gae::core::grid::{DriverMode, Grid, GridBuilder, ServiceStack};
use gae::core::persist::PersistenceConfig;
use gae::core::steering::SteeringPolicy;
use gae::gate::{GateConfig, Principal, QueueConfig, TokenBucketConfig};
use gae::prelude::*;
use gae::repl::{MirrorMachine, ReplConfig, ReplicatedLog, ReplicationSink};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

const SITES: usize = 32;
const VOS: u64 = 8;
/// Jobs per scenario (1–3 tasks each). One repetition at this size
/// takes about 2 s on a 2-CPU host with snapshots at the default
/// cadence, so a run repeats it several times.
pub const JOBS: usize = 100;
/// Arrivals spread over this much virtual time.
const ARRIVAL_WINDOW_S: f64 = 1_200.0;
const POLL_S: u64 = 15;
/// Every repetition simulates at least this span of virtual time, so
/// seeds differ in their work, not in how long the grid is simulated
/// (snapshot and poll counts follow the span).
const SPAN_S: u64 = 4_800;
/// Snapshot cadence (virtual seconds): one rotation per repetition.
/// At the 600 s default, rotations take about 90 % of a repetition's
/// host time and half a gigabyte of memory, and bury the tick.
const SNAPSHOT_EVERY_S: u64 = 3_600;
/// Drain budget after the last arrival (virtual seconds).
const DRAIN_S: u64 = 40_000;
/// Drain steps are one poll period, like the arrival phase's ticks,
/// so every `run_until` spans at most one poll.
const DRAIN_CHUNK_S: u64 = POLL_S;

/// A fabric fault on the scenario timeline.
#[derive(Clone, Copy, Debug)]
enum Fault {
    SiteDown(usize),
    SiteUp(usize),
    LinkDown(usize, usize),
    LinkUp(usize, usize),
}

#[derive(Clone, Debug)]
struct Site {
    nodes: u32,
    slots: u32,
    load: f64,
    speed: f64,
}

#[derive(Clone, Debug)]
struct Arrival {
    at_s: u64,
    vo: u64,
    /// (demand seconds, input file index) per chained task.
    tasks: Vec<(u64, Option<usize>)>,
}

/// The generated inputs of one scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    sites: Vec<Site>,
    files: Vec<FileRef>,
    arrivals: Vec<Arrival>,
    faults: Vec<(u64, Fault)>,
}

fn sid(i: usize) -> SiteId {
    SiteId::new(i as u64 + 1)
}

/// Generates the scenario for `seed` at `jobs` jobs.
pub fn scenario(seed: u64, jobs: usize) -> Scenario {
    let mut rng = Rng::new(seed, 31);
    // The platform is a fixed mix of site shapes; the seed draws the
    // work, its data placement and the faults.
    let loads = [0.0, 0.0, 0.0, 0.5, 1.0, 2.0, 3.0];
    let sites = (0..SITES)
        .map(|i| Site {
            nodes: 2 + (i % 7) as u32,
            slots: 1 + (i % 3) as u32,
            load: loads[i % loads.len()],
            speed: 0.6 + 0.8 * ((i * 5) % SITES) as f64 / SITES as f64,
        })
        .collect();
    let files = (0..24)
        .map(|f| {
            let home = rng.range(0, SITES as u64) as usize;
            let mut homes = vec![sid(home)];
            if rng.unit() < 0.5 {
                homes.push(sid(
                    (home + 1 + rng.range(0, SITES as u64 - 1) as usize) % SITES
                ));
            }
            FileRef::new(
                format!("lfn:/vo/data-{f}.root"),
                rng.range(50, 300) * 1_000_000,
            )
            .with_replicas(homes)
        })
        .collect::<Vec<_>>();
    // Stratified draws: every seed offers the same arrival density and
    // the same multiset of task demands (1, 2, 3 tasks per job in
    // turn; demands at evenly spaced quantiles of a bounded Pareto),
    // dealt out in a seeded order. Seeds then differ in who asks for
    // what, when, and where its data lives, not in how much work the
    // grid gets — which keeps throughput comparable across seeds.
    let shapes: Vec<usize> = (0..jobs).map(|j| j % 3 + 1).collect();
    let total: usize = shapes.iter().sum();
    let mut demands: Vec<u64> = (0..total)
        .map(|k| pareto_quantile((k as f64 + 0.5) / total as f64, 1.2, 60.0, 3_000.0) as u64)
        .collect();
    rng.shuffle(&mut demands);
    let mut slots: Vec<f64> = (0..jobs).map(|k| k as f64).collect();
    rng.shuffle(&mut slots);
    let mut next_demand = demands.into_iter();
    let mut arrivals: Vec<Arrival> = shapes
        .iter()
        .zip(slots)
        .map(|(n, slot)| {
            let at_s = ((slot + rng.unit()) / jobs as f64 * ARRIVAL_WINDOW_S) as u64;
            let vo = rng.range(0, VOS);
            let tasks = (0..*n)
                .map(|_| {
                    let demand = next_demand.next().expect("one demand per task");
                    let input =
                        (rng.unit() < 0.5).then(|| rng.range(0, files.len() as u64) as usize);
                    (demand, input)
                })
                .collect();
            Arrival { at_s, vo, tasks }
        })
        .collect();
    arrivals.sort_by_key(|a| a.at_s);
    let mut faults = Vec::new();
    for _ in 0..3 {
        let site = rng.range(0, SITES as u64) as usize;
        let at = rng.range(100, 1_100);
        faults.push((at, Fault::SiteDown(site)));
        faults.push((at + rng.range(300, 900), Fault::SiteUp(site)));
    }
    for _ in 0..4 {
        let a = rng.range(0, SITES as u64) as usize;
        let b = (a + 1 + rng.range(0, SITES as u64 - 1) as usize) % SITES;
        let at = rng.range(100, 1_200);
        faults.push((at, Fault::LinkDown(a, b)));
        faults.push((at + rng.range(60, 400), Fault::LinkUp(a, b)));
    }
    faults.sort_by_key(|f| f.0);
    Scenario {
        sites,
        files,
        arrivals,
        faults,
    }
}

fn build_grid(s: &Scenario, store: &Path) -> Arc<Grid> {
    // Buckets sized so the gate admits every arrival: a refusal would
    // be a failed job, and this workload has none.
    let gate = GateConfig {
        bucket: TokenBucketConfig::new(1_000.0, 1_000.0),
        queue: QueueConfig::new(64, SimDuration::from_secs(600)),
        ..GateConfig::default()
    };
    let mut builder = GridBuilder::new()
        .driver(DriverMode::Sequential)
        .gate(gate)
        .persist(
            PersistenceConfig::new(store)
                .snapshot_every(SimDuration::from_secs(SNAPSHOT_EVERY_S))
                .fsync(false),
        );
    for (i, site) in s.sites.iter().enumerate() {
        builder = builder.site_with_load(
            SiteDescription::new(sid(i), format!("site-{i}"), site.nodes, site.slots)
                .with_speed(site.speed),
            site.load,
        );
    }
    builder.build()
}

fn apply(grid: &Grid, fault: Fault) {
    match fault {
        Fault::SiteDown(i) | Fault::SiteUp(i) => {
            if let Ok(exec) = grid.exec(sid(i)) {
                let mut exec = exec.lock();
                if matches!(fault, Fault::SiteDown(_)) {
                    exec.fail_site();
                } else {
                    exec.recover_site();
                }
            }
        }
        Fault::LinkDown(a, b) => grid.with_xfer(|x| x.fail_link(sid(a), sid(b))),
        Fault::LinkUp(a, b) => grid.with_xfer(|x| x.heal_link(sid(a), sid(b))),
    }
}

fn job_of(s: &Scenario, index: usize) -> JobSpec {
    let a = &s.arrivals[index];
    let mut job = JobSpec::new(
        JobId::new(index as u64 + 1),
        format!("sim-{}", index + 1),
        UserId::new(a.vo + 1),
    );
    let mut prev: Option<TaskId> = None;
    for (k, (demand, input)) in a.tasks.iter().enumerate() {
        let id = TaskId::new((index as u64 + 1) * 4 + k as u64);
        let inputs = input.map(|f| vec![s.files[f].clone()]).unwrap_or_default();
        job.add_task(
            TaskSpec::new(id, format!("t{}", id.raw()), "analysis")
                .with_cpu_demand(SimDuration::from_secs(*demand))
                .with_inputs(inputs),
        );
        if let Some(p) = prev {
            job.add_dependency(p, id);
        }
        prev = Some(id);
    }
    job
}

/// What one repetition of the scenario produced.
pub struct Rep {
    pub setup: (Instant, Instant),
    pub driven: (Instant, Instant),
    pub driven_s: f64,
    pub cpu_s: f64,
    pub tick_ms: Vec<f64>,
    pub admit_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub jobs: usize,
    pub failed_jobs: usize,
    pub completed_tasks: usize,
    pub makespan_s: f64,
    pub mean_turnaround_s: f64,
    pub digest: u64,
    /// The followers' quorum commit index at the end.
    pub follower_commit: u64,
    pub invariant_failures: Vec<String>,
    /// The stack, kept for the traced repetition's layer readout.
    pub stack: Option<Arc<ServiceStack>>,
}

/// FNV-1a over per-task (id, status, completion instant), task order.
pub fn digest(stack: &ServiceStack) -> u64 {
    let mut rows: Vec<(u64, String, u64)> = stack
        .jobmon
        .db_snapshot()
        .iter()
        .map(|i| {
            (
                i.task.raw(),
                format!("{:?}", i.status),
                i.completed_at.map(|t| t.as_micros()).unwrap_or(u64::MAX),
            )
        })
        .collect();
    rows.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (task, status, at) in rows {
        eat(&task.to_le_bytes());
        eat(status.as_bytes());
        eat(&at.to_le_bytes());
    }
    h
}

/// Builds, drives and drains one repetition.
pub fn run_once(s: &Scenario, store: &Path, traced: bool) -> Rep {
    let _ = std::fs::remove_dir_all(store);
    let setup_from = Instant::now();
    let stack = ServiceStack::with_policy(
        build_grid(s, store),
        SteeringPolicy {
            auto_move: true,
            ..SteeringPolicy::default()
        },
        SimDuration::from_secs(POLL_S),
    );
    // Two in-process followers mirror the stack's log, so every commit
    // also pays for replication.
    let cluster = ReplicatedLog::attached(
        &store.join("repl"),
        ReplConfig {
            followers: 2,
            fsync: false,
        },
        |_| MirrorMachine::new(),
    )
    .expect("create the follower cluster");
    stack
        .attach_replication(cluster.clone())
        .expect("attach the followers");
    let setup = (setup_from, Instant::now());

    let horizon = s
        .arrivals
        .last()
        .map(|a| a.at_s)
        .unwrap_or(0)
        .max(s.faults.last().map(|f| f.0).unwrap_or(0));
    let mut boundaries: BTreeSet<u64> = s.arrivals.iter().map(|a| a.at_s).collect();
    boundaries.extend(s.faults.iter().map(|f| f.0));
    boundaries.extend((1..=horizon / POLL_S).map(|k| k * POLL_S));
    boundaries.insert(horizon);

    let cpu0 = stats::process_cpu();
    let driven = Instant::now();
    let mut tick_ms = Vec::new();
    let (mut admit_us, mut submit_us) = (Vec::new(), Vec::new());
    let timed_run_until = |t: SimTime, ticks: &mut Vec<f64>| {
        let at = Instant::now();
        stack.run_until(t);
        ticks.push(at.elapsed().as_secs_f64() * 1e3);
    };
    let (mut next_arrival, mut next_fault) = (0, 0);
    let mut submitted = Vec::new();
    let mut failed_jobs = 0;
    for &t in &boundaries {
        timed_run_until(SimTime::from_secs(t), &mut tick_ms);
        while next_fault < s.faults.len() && s.faults[next_fault].0 <= t {
            apply(&stack.grid, s.faults[next_fault].1);
            next_fault += 1;
        }
        while next_arrival < s.arrivals.len() && s.arrivals[next_arrival].at_s <= t {
            let principal = Principal::anonymous(format!("vo{}", s.arrivals[next_arrival].vo));
            let at = Instant::now();
            let admitted = stack.gate.admit(&principal);
            if traced {
                admit_us.push(at.elapsed().as_secs_f64() * 1e6);
            }
            let job = job_of(s, next_arrival);
            let id = job.id;
            let at = Instant::now();
            let ok = admitted.is_ok() && stack.submit_job(job).is_ok();
            if traced {
                submit_us.push(at.elapsed().as_secs_f64() * 1e6);
            }
            if ok {
                submitted.push((id, s.arrivals[next_arrival].at_s));
            } else {
                failed_jobs += 1;
            }
            next_arrival += 1;
        }
    }
    let settled = |stack: &ServiceStack, j: JobId| {
        stack
            .steering
            .tracked_job(j)
            .map(|tj| tj.is_settled())
            .unwrap_or(true)
    };
    // Drain until every job settles or nothing is left in flight (a
    // job whose successors can no longer be submitted stays unsettled
    // and is counted failed below), and at least to the fixed span.
    let deadline = horizon + DRAIN_S;
    let mut now = horizon;
    let in_flight = |stack: &ServiceStack| {
        stack.grid.next_event_time().is_some()
            || stack
                .jobmon
                .db_snapshot()
                .iter()
                .any(|i| !i.status.is_terminal())
    };
    let busy = |stack: &ServiceStack| {
        !submitted.iter().all(|(j, _)| settled(stack, *j)) && in_flight(stack)
    };
    while now < deadline && (now < SPAN_S || busy(&stack)) {
        now = (now + DRAIN_CHUNK_S).min(deadline);
        timed_run_until(SimTime::from_secs(now), &mut tick_ms);
    }
    let driven_to = Instant::now();
    let driven_s = driven_to.duration_since(driven).as_secs_f64();
    let cpu_s = stats::process_cpu().saturating_sub(cpu0).as_secs_f64();

    // NoAdmittedStarvation: an admitted job that never settles is a
    // failed job (it counts in `failed`, not against correctness).
    let starved: Vec<JobId> = submitted
        .iter()
        .map(|(j, _)| *j)
        .filter(|j| !settled(&stack, *j))
        .collect();
    if !starved.is_empty() {
        eprintln!(
            "grid-sim: NoAdmittedStarvation: {} admitted jobs never settled: {starved:?}",
            starved.len()
        );
    }
    failed_jobs += starved.len();
    let mut invariant_failures = Vec::new();
    let snapshot = stack.jobmon.db_snapshot();
    let pending: Vec<TaskId> = snapshot
        .iter()
        .filter(|i| i.status == TaskStatus::Pending)
        .map(|i| i.task)
        .collect();
    if !pending.is_empty() {
        invariant_failures.push(format!("NoPermanentPending: {pending:?}"));
    }
    let completed: Vec<&gae::core::jobmon::JobMonitoringInfo> = snapshot
        .iter()
        .filter(|i| i.status == TaskStatus::Completed)
        .collect();
    let makespan_s = completed
        .iter()
        .filter_map(|i| i.completed_at)
        .map(|t| t.as_secs_f64())
        .fold(0.0, f64::max);
    // Turnaround of a job: its arrival to its last task's completion.
    let turnarounds: Vec<f64> = submitted
        .iter()
        .filter_map(|(j, at)| {
            let done = snapshot
                .iter()
                .filter(|i| i.job == *j)
                .map(|i| i.completed_at);
            let last = done.collect::<Option<Vec<SimTime>>>()?.into_iter().max()?;
            Some(last.as_secs_f64() - *at as f64)
        })
        .collect();
    let mean_turnaround_s = turnarounds.iter().sum::<f64>() / turnarounds.len().max(1) as f64;
    Rep {
        setup,
        driven: (driven, driven_to),
        driven_s,
        cpu_s,
        tick_ms,
        admit_us,
        submit_us,
        jobs: s.arrivals.len(),
        failed_jobs,
        completed_tasks: completed.len(),
        makespan_s,
        mean_turnaround_s,
        digest: digest(&stack),
        follower_commit: cluster.stats().commit_index,
        invariant_failures,
        stack: traced.then_some(stack),
    }
}

/// Scenarios a run cycles through: one seed names a family of four, so
/// a run's figures average over four scenarios' worth of structure
/// (outage timing, data placement) rather than hang on one.
pub const FAMILY: u64 = 4;

/// Passes over the family every untraced run makes at least, and
/// after which `peak_rss_mb` is read. Memory is not given back when a
/// repetition's stack is dropped (about 100 MB per repetition here), so
/// the peak at the end of a run would follow how many repetitions the
/// host's speed allowed, not the program.
const MIN_PASSES: usize = 2;

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    work: &Path,
    calib: &Calibrator,
) -> crate::Outcome {
    let store = work.join("grid-sim");
    let (family, input_s) = layers::timed_setup(calib, || {
        (0..FAMILY)
            .map(|k| scenario(seed.wrapping_mul(FAMILY).wrapping_add(k), JOBS))
            .collect::<Vec<_>>()
    });
    // Cycle through the family until the run's time is spent, at least
    // twice per scenario so that every run checks determinism. A traced
    // run spends half its time on untraced repetitions (the overhead
    // baseline) and ends with one traced repetition of the first
    // scenario.
    let started = Instant::now();
    let mut reps: Vec<Vec<Rep>> = (0..FAMILY).map(|_| Vec::new()).collect();
    let mut i = 0usize;
    let mut peak_rss_mb = None;
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        let k = i % FAMILY as usize;
        let trace_this = traced && k == 0 && i >= FAMILY as usize && elapsed >= seconds / 2.0;
        reps[k].push(run_once(&family[k], &store, trace_this));
        i += 1;
        if i == MIN_PASSES * FAMILY as usize {
            peak_rss_mb = Some(stats::peak_rss_mb());
        }
        let enough = i >= MIN_PASSES * FAMILY as usize && i.is_multiple_of(FAMILY as usize);
        if trace_this || (!traced && enough && started.elapsed().as_secs_f64() >= seconds) {
            break;
        }
    }
    let scaled = |(from, to): (Instant, Instant)| {
        to.duration_since(from).as_secs_f64() * calib.scale(from, to)
    };
    let mut setup_times: Vec<f64> = reps
        .iter()
        .flatten()
        .map(|r| input_s / FAMILY as f64 + scaled(r.setup))
        .collect();
    while setup_times.len() < setups {
        let extra = work.join("grid-sim-extra");
        let (stack, secs) =
            layers::timed_setup(calib, || ServiceStack::over(build_grid(&family[0], &extra)));
        drop(stack);
        setup_times.push(input_s / FAMILY as f64 + secs);
        let _ = std::fs::remove_dir_all(&extra);
    }

    let mut out = crate::Outcome {
        valid: true,
        peak_rss_mb: peak_rss_mb.unwrap_or_else(stats::peak_rss_mb),
        ..Default::default()
    };
    let mut correct = true;
    for (k, runs) in reps.iter().enumerate() {
        let first = &runs[0];
        for (i, r) in runs.iter().enumerate() {
            for f in &r.invariant_failures {
                eprintln!("grid-sim: scenario {k} repetition {i}: {f}");
                correct = false;
            }
            if r.digest != first.digest || r.makespan_s != first.makespan_s {
                eprintln!(
                    "grid-sim: scenario {k} repetition {i} digest {:016x} != {:016x}",
                    r.digest, first.digest
                );
                correct = false;
            }
        }
        eprintln!(
            "grid-sim: seed {seed} scenario {k}: {} jobs, {} tasks completed, makespan {} s, digest {:016x}, {} repetitions",
            first.jobs,
            first.completed_tasks,
            first.makespan_s,
            first.digest,
            runs.len()
        );
        out.attempted += first.jobs as u64;
        out.failed += first.failed_jobs as u64;
    }
    out.correct = correct;
    let first = &reps[0][0];
    let last = reps[0].last().expect("at least one repetition");

    // Per scenario, the median over its untraced repetitions in
    // reference-host time (see `crate::calib`); then the mean over the
    // family.
    let untraced: Vec<Vec<&Rep>> = reps
        .iter()
        .map(|runs| runs.iter().filter(|r| r.stack.is_none()).collect())
        .collect();
    let ticks: Vec<f64> = untraced[0]
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    let per_rep = |f: &dyn Fn(&Rep, f64) -> f64| {
        let medians: Vec<f64> = untraced
            .iter()
            .map(|runs| {
                median(
                    &runs
                        .iter()
                        .map(|r| f(r, calib.scale(r.driven.0, r.driven.1)))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        medians.iter().sum::<f64>() / medians.len() as f64
    };
    if !traced {
        let e = &mut out.e2e;
        e.put("setup_s", median(&setup_times), "s");
        // A tick's median moves with each scenario's mix of cheap and
        // polling boundaries; its mean, i.e. host time over ticks, does not.
        e.put(
            "op_latency_us",
            per_rep(&|r, k| {
                r.tick_ms.iter().sum::<f64>() * 1e3 / r.tick_ms.len().max(1) as f64 * k
            }),
            "us",
        );
        e.put(
            "cpu_us_per_op",
            per_rep(&|r, k| r.cpu_s * 1e6 / r.completed_tasks.max(1) as f64 * k),
            "us",
        );
        e.put(
            "ops_per_s",
            per_rep(&|r, k| r.completed_tasks as f64 / (r.driven_s * k)),
            "1/s",
        );
    } else {
        let l = &mut out.layers;
        let q = |v: &[f64], q: f64| percentile(v, q).unwrap_or(0.0);
        l.put("sched.submit_p50_us", q(&last.submit_us, 0.5), "us");
        l.put("sched.submit_p90_us", q(&last.submit_us, 0.9), "us");
        l.put("sched.submits", last.submit_us.len() as f64, "count");
        l.put("gate.wait_p50_us", q(&last.admit_us, 0.5), "us");
        l.put("gate.wait_p90_us", q(&last.admit_us, 0.9), "us");
        let stack = last
            .stack
            .as_ref()
            .expect("the traced repetition keeps its stack");
        let gate = stack.gate.stats();
        l.put("gate.admitted", gate.total_admitted() as f64, "count");
        l.put(
            "gate.rate_limited",
            gate.rate_limited.iter().sum::<u64>() as f64,
            "count",
        );
        layers::ticks(l, &last.tick_ms);
        layers::stack_layers(l, stack);
        if let Some(p) = stack.persistence() {
            l.put("durable.commit_index", p.commit_index() as f64, "count");
        }
        l.put(
            "repl.follower_commit_index",
            last.follower_commit as f64,
            "count",
        );
        l.put(
            "durable.store_bytes",
            layers::dir_bytes(&store) as f64,
            "bytes",
        );
        l.put(
            "host.scale",
            calib.scale(last.driven.0, last.driven.1),
            "ratio",
        );
        let base = q(&ticks, 0.5);
        if base > 0.0 {
            l.put(
                "trace.overhead_p50_frac",
                q(&last.tick_ms, 0.5) / base - 1.0,
                "ratio",
            );
        }
        l.put("sim.makespan_s", last.makespan_s, "s");
        l.put("sim.mean_turnaround_s", last.mean_turnaround_s, "s");
        l.put("sim.tasks", last.completed_tasks as f64, "count");
        l.put(
            "sim.digest_repeats",
            reps[0].iter().filter(|r| r.digest == first.digest).count() as f64,
            "count",
        );
        l.put(
            "fail_frac",
            stats::fail_frac(out.attempted, out.failed),
            "ratio",
        );
    }
    drop(reps);
    let _ = std::fs::remove_dir_all(&store);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_repeats_at_a_small_size() {
        let dir =
            std::env::temp_dir().join(format!("perfbench-gridsim-test-{}", std::process::id()));
        let s = scenario(9, 12);
        let a = run_once(&s, &dir.join("a"), false);
        let b = run_once(&s, &dir.join("b"), true);
        assert!(
            a.invariant_failures.is_empty(),
            "{:?}",
            a.invariant_failures
        );
        assert!(a.completed_tasks > 0);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.makespan_s, b.makespan_s);
        assert_eq!(a.mean_turnaround_s, b.mean_turnaround_s);
        // A different seed is a different scenario.
        let c = run_once(&scenario(10, 12), &dir.join("c"), false);
        assert_ne!(a.digest, c.digest);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
