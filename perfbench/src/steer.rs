//! `steer`: write-heavy, open-loop traffic against a live grid — the
//! steering service (§4) and the submission path.
//!
//! Eight users log in over the door and submit, re-prioritise, pause,
//! resume, move and kill their own work while a pump thread advances
//! the grid every 200 ms, as `gae-ctl serve` does. Persistence is on
//! (fsync off) with two in-process followers, and the door's gate runs
//! on the wall clock. After the timed phase the grid is drained and
//! three checks run: every acknowledged submission is visible through
//! jobmon, no task is left Pending, and `recover_from_disk` rebuilds
//! the same jobs and task statuses as the live stack's last commit.

use crate::calib::Calibrator;
use crate::client::{self, GenResult, Traffic};
use crate::layers;
use crate::rng::{pareto_quantile, Rng};
use crate::server::{self, Door};
use crate::stats::Report;
use gae::core::grid::{Grid, GridBuilder, ServiceStack};
use gae::core::persist::PersistenceConfig;
use gae::core::steering::{SteeringCommand, SteeringPolicy, TaskPhase};
use gae::gate::{GateConfig, QueueConfig, TokenBucketConfig};
use gae::prelude::*;
use gae::repl::{MirrorMachine, ReplConfig, ReplicatedLog, ReplicationSink};
use gae::rpc::{Rpc, TcpRpcClient};
use gae::wire::{parse_response, write_call, MethodCall, Response, Value};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Offered call rate (calls/s), frozen from the parent commit: a few
/// hundred mutations and status reads a second from eight users.
pub const RATE: f64 = 300.0;
/// Virtual seconds the pump advances per wall second, so tasks of a
/// few simulated minutes finish, polls fire and the Optimizer migrates
/// within a run.
const SPEED: f64 = 10.0;
const PUMP_EVERY: Duration = Duration::from_millis(200);
const SITES: u64 = 16;
const USERS: usize = 8;
/// Jobs each user holds before timing starts, so steering commands
/// have targets from the first call.
const PRELOAD_JOBS: u64 = 3;
const POLL: SimDuration = SimDuration::from_secs(5);
/// Upper bound on drain steps after the run: every step grows the
/// stack's retained state, and with it the process's memory.
const DRAIN_STEPS: usize = 4;
/// Virtual seconds per drain step.
const DRAIN_STEP: SimDuration = SimDuration::from_secs(150);

/// The call mix: (method, weight).
pub const MIX: [(&str, f64); 7] = [
    ("scheduler.submit_job", 0.20),
    ("steering.set_priority", 0.20),
    ("steering.pause", 0.10),
    ("steering.resume", 0.10),
    ("steering.move", 0.05),
    ("steering.kill_job", 0.05),
    ("jobmon.job_status", 0.30),
];

/// Fault codes no precondition of a well-formed call predicts:
/// overload, rate limiting, parse and auth failures, transport
/// timeouts and size limits.
const FAILING_FAULTS: [i32; 6] = [503, 429, 400, 401, 408, 413];

/// Whether a fault reply is a correct answer to a steering command:
/// a typed fault (GAE codes are positive) its precondition predicts,
/// such as pausing a finished task.
pub fn predicted_fault(code: i32) -> bool {
    code > 0 && !FAILING_FAULTS.contains(&code)
}

fn user_name(u: usize) -> String {
    format!("physicist{u}")
}

fn shared_files() -> Vec<FileRef> {
    (0..16u64)
        .map(|f| {
            FileRef::new(format!("lfn:/cms/aod-{f}.root"), (20 + f * 15) * 1_000_000).with_replicas(
                vec![SiteId::new(f % SITES + 1), SiteId::new((f + 5) % SITES + 1)],
            )
        })
        .collect()
}

/// `n` task demands (virtual seconds) at evenly spaced quantiles of a
/// bounded Pareto, in seeded order: every seed submits the same
/// multiset of work.
fn demand_deck(rng: &mut Rng, n: usize) -> Vec<u64> {
    let mut deck: Vec<u64> = (0..n)
        .map(|k| pareto_quantile((k as f64 + 0.5) / n as f64, 1.2, 5.0, 150.0) as u64)
        .collect();
    rng.shuffle(&mut deck);
    deck
}

/// Job `job`, the `index`-th submitted: 1, 2, 3 chained tasks in turn,
/// half of them reading a replicated input.
fn make_job(
    rng: &mut Rng,
    job: u64,
    index: usize,
    demands: &mut impl Iterator<Item = u64>,
    files: &[FileRef],
) -> JobSpec {
    let mut spec = JobSpec::new(JobId::new(job), format!("steer-{job}"), UserId::new(0));
    let mut prev: Option<TaskId> = None;
    for k in 0..(index % 3 + 1) as u64 {
        let id = TaskId::new(job * 4 + k);
        let demand = demands.next().expect("one demand per task");
        let mut task = TaskSpec::new(id, format!("t{}", id.raw()), "analysis")
            .with_cpu_demand(SimDuration::from_secs(demand));
        if rng.unit() < 0.5 {
            task = task.with_inputs(vec![
                files[rng.range(0, files.len() as u64) as usize].clone()
            ]);
        }
        spec.add_task(task);
        if let Some(p) = prev {
            spec.add_dependency(p, id);
        }
        prev = Some(id);
    }
    spec
}

fn build_grid(seed: u64, store: &Path) -> Arc<Grid> {
    let mut rng = Rng::new(seed, 21);
    let mut builder = GridBuilder::new().persist(persistence(store));
    for s in 1..=SITES {
        builder = builder.site_with_load(
            SiteDescription::new(
                SiteId::new(s),
                format!("site-{s}"),
                rng.range(4, 9) as u32,
                4,
            )
            .with_speed(0.6 + rng.unit() * 0.8),
            rng.unit() * 1.5,
        );
    }
    builder.build()
}

fn persistence(store: &Path) -> PersistenceConfig {
    PersistenceConfig::new(store)
        .snapshot_every(SimDuration::from_secs(300))
        .fsync(false)
}

fn door_gate() -> GateConfig {
    // Per-user buckets well above each user's share of the offered
    // rate: the gate queues, it does not refuse.
    GateConfig {
        bucket: TokenBucketConfig::new(256.0, 2_000.0),
        queue: QueueConfig::new(64, SimDuration::from_secs(2)),
        ..GateConfig::default()
    }
}

/// One planned call, fixed by the seed before timing.
#[derive(Clone, Debug)]
struct Planned {
    user: usize,
    op: usize,
    /// The job a submission creates (submissions only).
    job: Option<JobSpec>,
    /// Picks the target among the user's acknowledged work.
    pick: u64,
    /// Priority level or target site, by op.
    arg: u64,
}

pub struct World {
    pub stack: Arc<ServiceStack>,
    pub door: Door,
    cluster: Arc<ReplicatedLog<MirrorMachine>>,
    sessions: Vec<u64>,
    /// Per user: acknowledged jobs and their tasks.
    owned: Vec<Vec<(JobId, Vec<TaskId>)>>,
    dir: PathBuf,
}

fn submit_value(job: &JobSpec) -> Value {
    gae::core::submit::job_to_value(job)
}

pub fn setup(seed: u64, dir: &Path) -> World {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the run's work directory");
    let store = dir.join("store");
    let stack = ServiceStack::over(build_grid(seed, &store));
    let cluster = ReplicatedLog::attached(
        &dir.join("repl"),
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
    let users: Vec<(String, String)> = (0..USERS)
        .map(|u| (user_name(u), format!("pw{u}")))
        .collect();
    let door = server::start(&stack, door_gate(), &users, false);
    let files = shared_files();
    let mut rng = Rng::new(seed, 22);
    let mut demands = demand_deck(&mut rng, USERS * PRELOAD_JOBS as usize * 3).into_iter();
    let mut sessions = Vec::new();
    let mut owned = vec![Vec::new(); USERS];
    for (u, (name, pass)) in users.iter().enumerate() {
        let mut client = TcpRpcClient::connect(door.server.addr());
        client.login(name, pass).expect("auth.login over the door");
        sessions.push(client.session().expect("a logged-in session"));
        for j in 0..PRELOAD_JOBS {
            let id = (u as u64 + 1) * 100 + j;
            let job = make_job(&mut rng, id, j as usize, &mut demands, &files);
            client
                .call("scheduler.submit_job", vec![submit_value(&job)])
                .expect("preload submission");
            owned[u].push((job.id, job.task_ids()));
        }
    }
    stack.run_until(SimTime::from_secs(1));
    World {
        stack,
        door,
        cluster,
        sessions,
        owned,
        dir: dir.to_path_buf(),
    }
}

fn plan(seed: u64, seconds: f64, first_job: u64) -> (Vec<Duration>, Vec<Planned>) {
    let mut rng = Rng::new(seed, 23);
    let files = shared_files();
    let mut due = Vec::new();
    let mut t = rng.exp(1.0 / RATE);
    while t < seconds {
        due.push(Duration::from_secs_f64(t));
        t += rng.exp(1.0 / RATE);
    }
    // The mix is dealt from a shuffled deck with exact proportions, so
    // seeds differ in order, not in how many calls of each kind run.
    let mut ops: Vec<usize> = Vec::with_capacity(due.len());
    for (op, (_, weight)) in MIX.iter().enumerate() {
        ops.extend(std::iter::repeat_n(
            op,
            (weight * due.len() as f64).round() as usize,
        ));
    }
    ops.resize(due.len(), MIX.len() - 1);
    rng.shuffle(&mut ops);
    let submits = ops
        .iter()
        .filter(|op| MIX[**op].0 == "scheduler.submit_job")
        .count();
    let mut demands = demand_deck(&mut rng, submits * 3).into_iter();
    let mut submitted = 0;
    let calls = ops
        .into_iter()
        .map(|op| {
            let job = (MIX[op].0 == "scheduler.submit_job").then(|| {
                submitted += 1;
                make_job(
                    &mut rng,
                    first_job + submitted as u64,
                    submitted,
                    &mut demands,
                    &files,
                )
            });
            Planned {
                user: rng.range(0, USERS as u64) as usize,
                op,
                job,
                pick: rng.next_u64(),
                arg: rng.next_u64(),
            }
        })
        .collect();
    (due, calls)
}

struct SteerTraffic<'a> {
    calls: &'a [Planned],
    sessions: &'a [u64],
    owned: &'a mut Vec<Vec<(JobId, Vec<TaskId>)>>,
    bad: u64,
    faults: BTreeMap<(usize, i32), u64>,
}

/// Commands target one of a user's most recent jobs: older work has
/// mostly finished.
const RECENT_JOBS: usize = 8;

impl SteerTraffic<'_> {
    /// The first task of one of the user's recent jobs: it reaches a
    /// site at submission, while its successors wait for it.
    fn pick_task(&self, user: usize, pick: u64) -> TaskId {
        let jobs = &self.owned[user];
        let recent = &jobs[jobs.len().saturating_sub(RECENT_JOBS)..];
        recent[(pick % recent.len() as u64) as usize].1[0]
    }
}

impl Traffic for SteerTraffic<'_> {
    fn request(&mut self, index: usize, trace: Option<u64>) -> Vec<u8> {
        let call = &self.calls[index];
        let method = MIX[call.op].0;
        let params = match method {
            "scheduler.submit_job" => {
                let job = call.job.as_ref().expect("submissions carry their job");
                vec![submit_value(job)]
            }
            "steering.kill_job" => {
                let jobs = &self.owned[call.user];
                let job = jobs[(call.pick % jobs.len() as u64) as usize].0;
                vec![Value::from(job.raw())]
            }
            "steering.set_priority" => {
                let task = self.pick_task(call.user, call.pick);
                vec![Value::from(task.raw()), Value::Int((call.arg % 10) as i32)]
            }
            "steering.move" => {
                let task = self.pick_task(call.user, call.pick);
                // Half the moves name a site, half let the Optimizer choose.
                let site = if call.arg.is_multiple_of(2) {
                    0
                } else {
                    call.arg % SITES + 1
                };
                vec![Value::from(task.raw()), Value::from(site)]
            }
            _ => {
                let task = self.pick_task(call.user, call.pick);
                vec![Value::from(task.raw())]
            }
        };
        let body = write_call(&MethodCall {
            name: method.to_string(),
            params,
        })
        .into_bytes();
        client::http_post(body, Some(self.sessions[call.user]), trace)
    }

    fn reply(&mut self, index: usize, status: u16, body: &[u8]) -> bool {
        let call = &self.calls[index];
        let method = MIX[call.op].0;
        let ok = match (status, parse_response(body)) {
            (200, Ok(Response::Success(v))) => match method {
                "scheduler.submit_job" => {
                    let job = call.job.as_ref().expect("submissions carry their job");
                    // The plan must place every task of the job.
                    let placed = v
                        .member("assignments")
                        .and_then(|a| a.as_array().map(|a| a.len()))
                        .unwrap_or(0);
                    let ok = placed == job.tasks.len();
                    if ok {
                        self.owned[call.user].push((job.id, job.task_ids()));
                    }
                    ok
                }
                "jobmon.job_status" => v.as_str().is_ok(),
                "steering.kill_job" => v.as_i64().is_ok(),
                _ => v.as_bool() == Ok(true),
            },
            (200, Ok(Response::Fault(f))) => {
                *self.faults.entry((call.op, f.code)).or_default() += 1;
                // Steering commands may meet a task in the wrong state;
                // a status read may precede the collector's first poll
                // of a fresh task (NotFound).
                match method {
                    "jobmon.job_status" => f.code == 404,
                    "scheduler.submit_job" => false,
                    _ => predicted_fault(f.code),
                }
            }
            _ => false,
        };
        if !ok {
            self.bad += 1;
        }
        ok
    }
}

/// The pump: advances virtual time at [`SPEED`] × wall time every
/// [`PUMP_EVERY`], recording each `run_until`'s host time.
fn pump(stack: Arc<ServiceStack>, stop: Arc<AtomicBool>, ticks: Arc<Mutex<Vec<f64>>>) {
    let start = Instant::now();
    let base = stack.grid.now();
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(PUMP_EVERY);
        let target = base + SimDuration::from_secs_f64(start.elapsed().as_secs_f64() * SPEED);
        let t = Instant::now();
        stack.run_until(target);
        ticks
            .lock()
            .expect("tick log poisoned")
            .push(t.elapsed().as_secs_f64() * 1e3);
    }
}

/// Runs one timed phase against the door at `addr` with the pump live.
fn phase(
    world: &mut World,
    addr: SocketAddr,
    seed: u64,
    secs: f64,
    trace: bool,
    first_job: u64,
) -> (GenResult, Vec<&'static str>, u64, Vec<f64>) {
    let (due, calls) = plan(seed ^ first_job, secs, first_job);
    let stop = Arc::new(AtomicBool::new(false));
    let ticks = Arc::new(Mutex::new(Vec::new()));
    let pumper = {
        let (stack, stop, ticks) = (world.stack.clone(), stop.clone(), ticks.clone());
        std::thread::spawn(move || pump(stack, stop, ticks))
    };
    let mut traffic = SteerTraffic {
        calls: &calls,
        sessions: &world.sessions,
        owned: &mut world.owned,
        bad: 0,
        faults: BTreeMap::new(),
    };
    let result = client::run(addr, &due, &mut traffic, trace);
    stop.store(true, Ordering::Release);
    pumper.join().expect("pump thread panicked");
    for ((op, code), n) in &traffic.faults {
        eprintln!("steer: {n} x fault {code} on {}", MIX[*op].0);
    }
    let bad = traffic.bad;
    let methods = calls.iter().map(|c| MIX[c.op].0).collect();
    let ticks = std::mem::take(&mut *ticks.lock().expect("tick log poisoned"));
    (result, methods, bad, ticks)
}

/// Tasks steering has handed to a site and not yet seen settle.
fn in_flight(stack: &ServiceStack) -> usize {
    stack
        .steering
        .export_jobs()
        .iter()
        .flat_map(|j| {
            j.tasks
                .values()
                .filter(|t| matches!(t.phase, TaskPhase::Submitted { .. }))
                .collect::<Vec<_>>()
        })
        .count()
}

/// Resumes what users left paused and drives the grid until nothing
/// is left in flight or nothing more settles; returns the tasks still
/// in flight at the end.
fn drain(world: &World) -> usize {
    let stack = &world.stack;
    for (u, jobs) in world.owned.iter().enumerate() {
        let user = world
            .door
            .host
            .sessions()
            .user_id(&user_name(u))
            .expect("registered user");
        for (_, tasks) in jobs {
            for t in tasks {
                if stack.jobmon.task_status(*t).ok() == Some(TaskStatus::Suspended) {
                    let _ = stack.steering.command(user, *t, SteeringCommand::Resume);
                }
            }
        }
    }
    // At least one step, so the drain ends on a commit.
    let (mut last, mut still) = (usize::MAX, 0);
    for _ in 0..DRAIN_STEPS {
        stack.run_until(stack.grid.now() + DRAIN_STEP);
        let now = in_flight(stack);
        if now == 0 {
            return 0;
        }
        still = if now == last { still + 1 } else { 0 };
        if still == 2 {
            return now;
        }
        last = now;
    }
    last
}

/// Tasks steering still tracks as waiting for prerequisites that can
/// no longer complete (their job was killed or failed upstream).
fn stranded(stack: &ServiceStack) -> usize {
    stack
        .steering
        .export_jobs()
        .iter()
        .filter(|j| j.is_failed())
        .flat_map(|j| {
            j.tasks
                .values()
                .filter(|t| !t.phase.is_settled())
                .collect::<Vec<_>>()
        })
        .count()
}

fn statuses(stack: &ServiceStack) -> (Vec<(TaskId, TaskStatus)>, Vec<JobId>) {
    let mut tasks: Vec<(TaskId, TaskStatus)> = stack
        .jobmon
        .db_snapshot()
        .iter()
        .map(|i| (i.task, i.status))
        .collect();
    tasks.sort_by_key(|t| t.0);
    let jobs = stack
        .steering
        .export_jobs()
        .iter()
        .map(|j| j.plan.job_id())
        .collect();
    (tasks, jobs)
}

/// The end-of-run checks (true when all pass), reporting the storage
/// layers into `report` on the way.
fn check(world: World, seed: u64, report: &mut Report) -> bool {
    let mut ok = true;
    let stuck = drain(&world);
    if stuck > 0 {
        eprintln!("steer: {stuck} tasks are still in flight after the drain");
    }
    report.put("steering.stuck_tasks", stuck as f64, "count");
    let stack = &world.stack;
    // Every acknowledged submission is visible through jobmon (its
    // first task reaches a site at once; successors of a killed task
    // never do, see `stranded`), and no task is left Pending.
    for jobs in &world.owned {
        for (job, tasks) in jobs {
            if stack.jobmon.task_status(tasks[0]).is_err() {
                eprintln!("steer: acknowledged submission {job} is not visible through jobmon");
                ok = false;
            }
            for t in tasks {
                if stack.jobmon.task_status(*t).ok() == Some(TaskStatus::Pending) {
                    eprintln!("steer: {t} of {job} is still Pending after the drain");
                    ok = false;
                }
            }
        }
    }
    let stranded = stranded(stack);
    if stranded > 0 {
        eprintln!("steer: {stranded} tasks stay waiting on a killed or failed prerequisite");
    }
    report.put("steering.stranded_tasks", stranded as f64, "count");
    // The drain's last run_until committed; that commit is what
    // recovery must rebuild.
    let live = statuses(stack);
    let commit = stack.persistence().map(|p| p.commit_index()).unwrap_or(0);
    report.put("durable.commit_index", commit as f64, "count");
    report.put(
        "repl.follower_commit_index",
        world.cluster.stats().commit_index as f64,
        "count",
    );
    report.put(
        "durable.store_bytes",
        layers::dir_bytes(&world.dir.join("store")) as f64,
        "bytes",
    );
    let World {
        stack,
        door,
        cluster,
        dir,
        ..
    } = world;
    door.server.stop();
    drop(door.host);
    drop(stack);
    drop(cluster);
    let t = Instant::now();
    let recovered = ServiceStack::recover_from_disk(
        build_grid(seed, &dir.join("scratch")),
        SteeringPolicy::default(),
        POLL,
        &persistence(&dir.join("store")),
    );
    report.put("durable.recover_s", t.elapsed().as_secs_f64(), "s");
    match recovered {
        Ok((rstack, _)) => {
            let rebuilt = statuses(&rstack);
            if rebuilt != live {
                eprintln!(
                    "steer: recovery rebuilt {} tasks / {} jobs, live stack had {} / {}",
                    rebuilt.0.len(),
                    rebuilt.1.len(),
                    live.0.len(),
                    live.1.len()
                );
                ok = false;
            }
        }
        Err(e) => {
            eprintln!("steer: recover_from_disk failed: {e}");
            ok = false;
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    ok
}

pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    work: &Path,
    calib: &Calibrator,
) -> crate::Outcome {
    let dir = work.join("steer");
    let mut setup_times = Vec::new();
    let mut world = None;
    for _ in 0..setups {
        drop(world.take());
        let (w, secs) = layers::timed_setup(calib, || setup(seed, &dir));
        world = Some(w);
        setup_times.push(secs);
    }
    let mut world = world.expect("at least one set-up");
    let mut out = crate::Outcome::default();
    let first_job = 10_000;
    let addr = world.door.server.addr();
    let secs = if traced { seconds / 2.0 } else { seconds };
    let (result, _, mut bad, _) = phase(&mut world, addr, seed, secs, false, first_job);
    out.attempted = result.latency_us.len() as u64;
    out.failed = result.failed;
    out.valid = layers::generator_valid(&result);
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    if traced {
        let users: Vec<(String, String)> = (0..USERS)
            .map(|u| (user_name(u), format!("pw{u}")))
            .collect();
        let traced_door = server::start(&world.stack, door_gate(), &users, true);
        // Sessions belong to a host: log in again on the traced door.
        let sessions = users
            .iter()
            .map(|(name, pass)| {
                let mut c = TcpRpcClient::connect(traced_door.server.addr());
                c.login(name, pass)
                    .expect("auth.login over the traced door");
                c.session().expect("a logged-in session")
            })
            .collect();
        let saved = std::mem::replace(&mut world.sessions, sessions);
        let (tr, methods, traced_bad, ticks) = phase(
            &mut world,
            traced_door.server.addr(),
            seed,
            secs,
            true,
            first_job + 1_000_000,
        );
        world.sessions = saved;
        bad += traced_bad;
        out.attempted += tr.latency_us.len() as u64;
        out.failed += tr.failed;
        out.valid &= layers::generator_valid(&tr);
        let no_codec = layers::Codec {
            per_method: BTreeMap::new(),
        };
        layers::rpc_traced(
            &mut out.layers,
            &traced_door,
            &tr,
            &methods,
            &no_codec,
            &result,
            false,
        );
        out.layers.put(
            "host.scale",
            calib.scale(tr.start, tr.start + tr.elapsed),
            "ratio",
        );
        layers::generator(&mut out.layers, &tr);
        layers::ticks(&mut out.layers, &ticks);
        for (q, name) in [
            ("p50", "sched.submit_p50_us"),
            ("p90", "sched.submit_p90_us"),
        ] {
            let v = out
                .layers
                .get(&format!("rpc.dispatch_{q}_us.scheduler.submit_job"));
            out.layers.put(name, v.unwrap_or(0.0), "us");
        }
        let submits = methods
            .iter()
            .filter(|m| **m == "scheduler.submit_job")
            .count();
        out.layers.put("sched.submits", submits as f64, "count");
        traced_door.server.stop();
        layers::stack_layers(&mut out.layers, &world.stack);
    } else {
        layers::rpc_end_to_end(
            &mut out.e2e,
            crate::stats::median(&setup_times),
            &result,
            calib,
        );
    }
    if bad > 0 {
        eprintln!("steer: {bad} replies failed their check");
    }
    out.correct = check(world, seed, &mut out.layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_precondition_faults_are_correct_replies() {
        assert!(predicted_fault(409)); // invalid transition: pausing a finished task
        assert!(predicted_fault(404));
        for code in [503, 429, 400, 401, 408, 413, -32601, 0] {
            assert!(!predicted_fault(code), "{code}");
        }
    }
}
