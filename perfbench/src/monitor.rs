//! `monitor`: read-only, open-loop traffic against a frozen grid —
//! Fig. 6's users watching grid weather.
//!
//! Set-up submits about 20k long tasks over 64 sites, seeds the
//! columnar history with 10⁵ completed jobs, advances the grid to a
//! steady state and then never moves it again (no pump). Because
//! nothing changes, the reply to every request can be computed
//! in-process before timing starts, and every reply received over
//! the socket must be byte-equal to it.

use crate::calib::Calibrator;
use crate::client::{self, Traffic};
use crate::layers;
use crate::rng::Rng;
use crate::server::{self, Door};
use crate::stats::median;
use gae::core::grid::{GridBuilder, ServiceStack};
use gae::gate::{GateConfig, QueueConfig, TokenBucketConfig};
use gae::hist::HistRecord;
use gae::prelude::*;
use gae::rpc::http::HttpRequest;
use gae::wire::{write_call, MethodCall, Value};
use std::sync::Arc;
use std::time::Duration;

/// Offered call rate (calls/s), frozen from the parent commit on a
/// 2-CPU host: the server side uses about 0.3 CPU here, leaving room
/// for the generator and for scheduling noise. At 4,000 calls/s the
/// generator fell behind its schedule in bursts on that host.
pub const RATE: f64 = 2_000.0;
const SITES: u64 = 64;
const JOBS: u64 = 128;
const TASKS_PER_JOB: u64 = 40;
const HISTORY_ROWS: u64 = 100_000;
/// Distinct requests the traffic draws from; their replies are
/// computed before timing.
const POOL: usize = 4_096;
const STEADY_AT_S: u64 = 10;

pub const LOGINS: [&str; 8] = [
    "alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi",
];
pub const EXECUTABLES: [&str; 6] = ["reco", "sim", "skim", "ntuple", "fit", "merge"];
const QUEUES: [&str; 3] = ["short", "medium", "long"];
const PARTITIONS: [&str; 2] = ["cpu", "himem"];

/// The call mix: (method, weight).
pub const MIX: [(&str, f64); 7] = [
    ("jobmon.job_info", 0.40),
    ("jobmon.job_status", 0.20),
    ("estimator.estimate_runtime", 0.15),
    ("estimator.queue_time", 0.10),
    ("estimator.transfer_time", 0.05),
    ("monalisa.latest", 0.05),
    ("history.query", 0.05),
];

/// One distinct request with its precomputed reply.
pub struct PoolEntry {
    pub method: usize,
    pub body: Vec<u8>,
    pub http: Vec<u8>,
    pub expected: Vec<u8>,
}

pub struct World {
    pub stack: Arc<ServiceStack>,
    pub door: Door,
    pub pool: Vec<PoolEntry>,
}

fn task_count() -> u64 {
    JOBS * TASKS_PER_JOB
}

/// Builds the frozen grid and its history.
fn build_stack(seed: u64) -> Arc<ServiceStack> {
    let mut rng = Rng::new(seed, 11);
    let mut builder = GridBuilder::new();
    for s in 1..=SITES {
        let nodes = rng.range(4, 12) as u32;
        let slots = rng.range(2, 5) as u32;
        let load = rng.unit() * 2.0;
        let speed = 0.6 + rng.unit() * 0.8;
        builder = builder.site_with_load(
            SiteDescription::new(SiteId::new(s), format!("site-{s}"), nodes, slots)
                .with_speed(speed),
            load,
        );
    }
    let stack = ServiceStack::over(builder.build());

    // The live load: tasks far longer than the run, so the grid sits
    // in a steady state of queued and running work.
    for j in 0..JOBS {
        let owner = UserId::new(j % LOGINS.len() as u64 + 1);
        let mut job = JobSpec::new(JobId::new(j + 1), format!("watch-{j}"), owner);
        for k in 0..TASKS_PER_JOB {
            let id = TaskId::new(j * TASKS_PER_JOB + k + 1);
            job.add_task(
                TaskSpec::new(
                    id,
                    format!("t{}", id.raw()),
                    EXECUTABLES[rng.range(0, 6) as usize],
                )
                .with_queue(QUEUES[rng.range(0, 3) as usize])
                .with_cpu_demand(SimDuration::from_secs(rng.range(1_000_000, 2_000_000))),
            );
        }
        stack
            .submit_job(job)
            .expect("monitor workload is schedulable");
    }
    stack.run_until(SimTime::from_secs(STEADY_AT_S));
    // History: completed jobs over the same vocabulary the live tasks
    // and the estimator queries use, so similarity searches hit. It is
    // seeded once the grid is steady: placing and steering the live
    // tasks against a full history would dominate set-up with
    // estimator scans.
    for i in 0..HISTORY_ROWS {
        let runtime_s = rng.pareto(1.3, 30.0, 20_000.0);
        let submit_us = i * 3_000_000;
        let start_us = submit_us + rng.range(0, 600) * 1_000_000;
        let runtime_us = (runtime_s * 1e6) as u64;
        stack.hist.ingest(HistRecord {
            task: 50_000_000 + i,
            site: rng.range(1, SITES + 1),
            nodes: rng.range(1, 3),
            submit_us,
            start_us,
            finish_us: start_us + runtime_us,
            runtime_us,
            success: rng.unit() < 0.95,
            account: "cms".into(),
            login: LOGINS[rng.range(0, 8) as usize].into(),
            executable: EXECUTABLES[rng.range(0, 6) as usize].into(),
            queue: QUEUES[rng.range(0, 3) as usize].into(),
            partition: PARTITIONS[rng.range(0, 2) as usize].into(),
            job_type: "batch".into(),
        });
    }

    stack
}

fn call_body(method: &str, params: Vec<Value>) -> Vec<u8> {
    write_call(&MethodCall {
        name: method.to_string(),
        params,
    })
    .into_bytes()
}

/// Draws the distinct requests and computes each one's reply through
/// the door's own in-process path (`process_request`): parse, dispatch
/// and encode exactly as a worker does. This is also the warm-up.
fn build_pool(seed: u64, stack: &ServiceStack, door: &Door) -> Vec<PoolEntry> {
    let mut rng = Rng::new(seed, 12);
    let weights: Vec<f64> = MIX.iter().map(|m| m.1).collect();
    let tasks = task_count();
    (0..POOL)
        .map(|_| {
            let method = rng.weighted(&weights);
            let task = rng.range(1, tasks + 1);
            let params = match MIX[method].0 {
                "jobmon.job_info" | "jobmon.job_status" => vec![Value::from(task)],
                "estimator.estimate_runtime" => vec![
                    Value::from(rng.range(1, SITES + 1)),
                    Value::from(LOGINS[rng.range(0, 8) as usize]),
                    Value::from(EXECUTABLES[rng.range(0, 6) as usize]),
                    Value::from(QUEUES[rng.range(0, 3) as usize]),
                    Value::from(PARTITIONS[rng.range(0, 2) as usize]),
                    Value::from(rng.range(1, 3)),
                    Value::from("batch"),
                ],
                "estimator.queue_time" => {
                    let info = stack
                        .jobmon
                        .job_info(TaskId::new(task))
                        .expect("every submitted task is monitored");
                    vec![Value::from(info.site.raw()), Value::from(info.condor.raw())]
                }
                "estimator.transfer_time" => {
                    let from = rng.range(1, SITES + 1);
                    let to = from % SITES + 1;
                    vec![
                        Value::from(from),
                        Value::from(to),
                        Value::from(rng.range(1, 2_000) * 1_000_000),
                    ]
                }
                "monalisa.latest" => vec![
                    Value::from(rng.range(1, SITES + 1)),
                    Value::from("farm"),
                    Value::from(if rng.unit() < 0.5 {
                        "cpu_load"
                    } else {
                        "queue_length"
                    }),
                ],
                "history.query" => vec![Value::struct_of([
                    (
                        "predicates",
                        Value::Array(vec![
                            Value::struct_of([
                                ("column", Value::from("site")),
                                ("op", Value::from("eq")),
                                ("value", Value::from(rng.range(1, SITES + 1))),
                            ]),
                            Value::struct_of([
                                ("column", Value::from("executable")),
                                ("op", Value::from("eq")),
                                ("value", Value::from(EXECUTABLES[rng.range(0, 6) as usize])),
                            ]),
                        ]),
                    ),
                    ("limit", Value::from(20u64)),
                ])],
                other => unreachable!("unknown mix method {other}"),
            };
            let body = call_body(MIX[method].0, params);
            let request = HttpRequest::xmlrpc(body.clone(), None);
            let expected = gae::rpc::process_request(&door.host, &request, "127.0.0.1");
            let http = client::http_post(body.clone(), None, None);
            PoolEntry {
                method,
                body,
                http,
                expected,
            }
        })
        .collect()
}

/// The untimed schedule: Poisson due times at [`RATE`] and the pool
/// entry each call sends.
pub fn schedule(seed: u64, seconds: f64) -> (Vec<Duration>, Vec<usize>) {
    let mut rng = Rng::new(seed, 13);
    let mut due = Vec::new();
    let mut picks = Vec::new();
    let mut t = 0.0;
    loop {
        t += rng.exp(1.0 / RATE);
        if t >= seconds {
            break;
        }
        due.push(Duration::from_secs_f64(t));
        picks.push(rng.range(0, POOL as u64) as usize);
    }
    (due, picks)
}

/// Byte-equality against the reply computed before timing.
pub struct PoolTraffic<'a> {
    pub pool: &'a [PoolEntry],
    pub picks: &'a [usize],
    pub mismatches: u64,
}

/// Whether `got` is the expected reply: HTTP 200 and the same bytes.
pub fn reply_matches(expected: &[u8], status: u16, got: &[u8]) -> bool {
    status == 200 && got == expected
}

impl Traffic for PoolTraffic<'_> {
    fn request(&mut self, index: usize, trace: Option<u64>) -> Vec<u8> {
        let entry = &self.pool[self.picks[index]];
        match trace {
            None => entry.http.clone(),
            Some(id) => client::http_post(entry.body.clone(), None, Some(id)),
        }
    }

    fn reply(&mut self, index: usize, status: u16, body: &[u8]) -> bool {
        let ok = reply_matches(&self.pool[self.picks[index]].expected, status, body);
        if !ok {
            self.mismatches += 1;
        }
        ok
    }
}

fn gate_config() -> GateConfig {
    // One anonymous principal carries all the traffic: its bucket is
    // sized far above the offered rate so the gate admits everything
    // and only its queue is exercised.
    GateConfig {
        bucket: TokenBucketConfig::new(1e6, 1e6),
        queue: QueueConfig::new(256, SimDuration::from_secs(2)),
        ..GateConfig::default()
    }
}

pub fn setup(seed: u64) -> World {
    let stack = build_stack(seed);
    let door = server::start(&stack, gate_config(), &[], false);
    let pool = build_pool(seed, &stack, &door);
    World { stack, door, pool }
}

/// Runs the workload: set-up (timed `setups` times, median), the
/// timed phase and its output check. A traced run times an untraced
/// phase and then a traced one, each half as long, over two doors on
/// the same stack.
pub fn run(
    seed: u64,
    seconds: f64,
    traced: bool,
    setups: usize,
    calib: &Calibrator,
) -> crate::Outcome {
    let mut setup_times = Vec::new();
    let mut world = None;
    for _ in 0..setups {
        drop(world.take());
        let (w, secs) = layers::timed_setup(calib, || setup(seed));
        world = Some(w);
        setup_times.push(secs);
    }
    let world = world.expect("at least one set-up");
    let names: Vec<&str> = MIX.iter().map(|m| m.0).collect();
    let phase = |door: &Door, secs: f64, trace: bool| {
        let (due, picks) = schedule(seed, secs);
        let mut traffic = PoolTraffic {
            pool: &world.pool,
            picks: &picks,
            mismatches: 0,
        };
        let result = client::run(door.server.addr(), &due, &mut traffic, trace);
        let methods: Vec<&str> = picks.iter().map(|p| names[world.pool[*p].method]).collect();
        (result, methods, traffic.mismatches)
    };
    let mut out = crate::Outcome::default();
    let (result, _, mut mismatches) = phase(
        &world.door,
        if traced { seconds / 2.0 } else { seconds },
        false,
    );
    out.attempted = result.latency_us.len() as u64;
    out.failed = result.failed;
    out.valid = layers::generator_valid(&result);
    out.peak_rss_mb = crate::stats::peak_rss_mb();
    if traced {
        let traced_door = server::start(&world.stack, gate_config(), &[], true);
        let (tr, methods, m) = phase(&traced_door, seconds / 2.0, true);
        mismatches += m;
        out.attempted += tr.latency_us.len() as u64;
        out.failed += tr.failed;
        out.valid &= layers::generator_valid(&tr);
        let codec = layers::codec_replay(
            world
                .pool
                .iter()
                .map(|e| (names[e.method], e.body.as_slice(), e.expected.as_slice())),
        );
        layers::rpc_traced(
            &mut out.layers,
            &traced_door,
            &tr,
            &methods,
            &codec,
            &result,
            true,
        );
        out.layers.put(
            "host.scale",
            calib.scale(tr.start, tr.start + tr.elapsed),
            "ratio",
        );
        layers::generator(&mut out.layers, &tr);
        layers::stack_layers(&mut out.layers, &world.stack);
        traced_door.server.stop();
    } else {
        layers::rpc_end_to_end(&mut out.e2e, median(&setup_times), &result, calib);
    }
    if mismatches > 0 {
        eprintln!("monitor: {mismatches} replies differed from the in-process reply");
    }
    out.correct = mismatches == 0;
    world.door.server.stop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_equality_catches_a_corrupted_reply() {
        let expected = b"<?xml version=\"1.0\"?><methodResponse><params><param><value><string>Running</string></value></param></params></methodResponse>".to_vec();
        assert!(reply_matches(&expected, 200, &expected));
        let mut corrupted = expected.clone();
        let at = corrupted.len() / 2;
        corrupted[at] ^= 0x01;
        assert!(!reply_matches(&expected, 200, &corrupted));
        assert!(!reply_matches(
            &expected,
            200,
            &expected[..expected.len() - 1]
        ));
        assert!(!reply_matches(&expected, 503, &expected));
    }

    #[test]
    fn schedule_is_seeded_and_poisson_rate() {
        let (a, pa) = schedule(5, 2.0);
        let (b, pb) = schedule(5, 2.0);
        assert_eq!(a, b);
        assert_eq!(pa, pb);
        let expected = RATE * 2.0;
        let n = a.len() as f64;
        assert!((n - expected).abs() < 5.0 * expected.sqrt(), "{n} calls");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }
}
