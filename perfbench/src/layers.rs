//! Metric assembly: the end-to-end set of an untraced run and the
//! per-layer set of a traced one, each read from outside the program
//! (public accessors, spans joined by trace id, timed replays).

use crate::calib::Calibrator;
use crate::client::GenResult;
use crate::server::Door;
use crate::stats::{self, median, percentile, Report};
use gae::core::grid::ServiceStack;
use gae::obs::TraceId;
use gae::prelude::TaskStatus;
use gae::wire::{parse_call, parse_response, write_response};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Tolerance of the monitor closure check: the stage medians must sum
/// to within this share of the traced phase's `call_p50`.
pub const CLOSURE_TOLERANCE: f64 = 0.25;

/// The generator falls behind schedule beyond this p99 lateness (ms):
/// the run measured the generator, not the server, and is invalid.
pub const LATE_P99_LIMIT_MS: f64 = 20.0;

/// Every RPC method any workload calls; per-method metrics are keyed
/// by these.
pub const METHODS: [&str; 13] = [
    "jobmon.job_info",
    "jobmon.job_status",
    "estimator.estimate_runtime",
    "estimator.queue_time",
    "estimator.transfer_time",
    "monalisa.latest",
    "history.query",
    "scheduler.submit_job",
    "steering.set_priority",
    "steering.pause",
    "steering.resume",
    "steering.move",
    "steering.kill_job",
];

/// The per-layer metric names, in print order, with units. A traced
/// run prints every one of them; a layer a workload does not exercise
/// reads 0.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names: Vec<(String, &'static str)> = [
        ("aio.door_p50_us", "us"),
        ("aio.door_p90_us", "us"),
        ("aio.requests_served", "count"),
        ("aio.replies_received", "count"),
        ("wire.decode_call_us", "us"),
        ("wire.encode_reply_us", "us"),
        ("wire.reply_bytes", "bytes"),
        ("gate.wait_p50_us", "us"),
        ("gate.wait_p90_us", "us"),
        ("gate.admitted", "count"),
        ("gate.shed", "count"),
        ("gate.refused", "count"),
        ("gate.rate_limited", "count"),
        ("estimator.memo_hit_ratio", "ratio"),
        ("estimator.memo_lookups", "count"),
        ("hist.rows", "count"),
        ("hist.segments", "count"),
        ("sched.submit_p50_us", "us"),
        ("sched.submit_p90_us", "us"),
        ("sched.submits", "count"),
        ("tick.run_until_p50_ms", "ms"),
        ("tick.run_until_p90_ms", "ms"),
        ("tick.busy_s", "s"),
        ("tick.count", "count"),
        ("exec.tasks_completed", "count"),
        ("exec.tasks_failed", "count"),
        ("xfer.completed", "count"),
        ("xfer.failed", "count"),
        ("xfer.retried", "count"),
        ("xfer.useful_ratio", "ratio"),
        ("steering.moves", "count"),
        ("steering.stranded_tasks", "count"),
        ("steering.stuck_tasks", "count"),
        ("durable.commit_index", "count"),
        ("durable.store_bytes", "bytes"),
        ("durable.recover_s", "s"),
        ("repl.follower_commit_index", "count"),
        ("obs.traces_retained", "count"),
        ("gen.late_p99_ms", "ms"),
        ("host.scale", "ratio"),
        ("gen.cpu_s", "s"),
        ("call.p90_us", "us"),
        ("call.p99_us", "us"),
        ("call.p999_us", "us"),
        ("call.samples", "count"),
        ("fail_frac", "ratio"),
        ("trace.overhead_p50_frac", "ratio"),
        ("trace.overhead_cpu_frac", "ratio"),
        ("closure.stage_sum_us", "us"),
        ("closure.call_p50_us", "us"),
        ("closure.error_frac", "ratio"),
        ("sim.makespan_s", "s"),
        ("sim.mean_turnaround_s", "s"),
        ("sim.tasks", "count"),
        ("sim.digest_repeats", "count"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for m in METHODS {
        names.push((format!("rpc.dispatch_p50_us.{m}"), "us"));
        names.push((format!("rpc.dispatch_p90_us.{m}"), "us"));
    }
    for m in &METHODS[..7] {
        names.push((format!("wire.decode_us.{m}"), "us"));
        names.push((format!("wire.encode_us.{m}"), "us"));
        names.push((format!("wire.reply_bytes.{m}"), "bytes"));
    }
    names
}

/// The end-to-end metrics every workload prints, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("op_latency_us", "us"),
    ("cpu_us_per_op", "us"),
    ("ops_per_s", "1/s"),
];

fn p(samples: &[f64], q: f64) -> f64 {
    percentile(samples, q).unwrap_or(0.0)
}

/// End-to-end metrics of an RPC workload's timed phase. Latency and
/// server CPU per call are taken per window and scaled to
/// reference-host time (see [`crate::calib`]); each is the median over
/// the run's quietest quarter of windows ([`quiet_windows`]).
/// Interference from other tenants comes in bursts that the kernel's
/// scaling does not undo (waiting for a CPU is not compute), and a run
/// almost always has quiet windows.
pub fn rpc_end_to_end(report: &mut Report, setup_s: f64, r: &GenResult, calib: &Calibrator) {
    report.put("setup_s", setup_s, "s");
    let (mut p50, mut cpu, mut steal) = (Vec::new(), Vec::new(), Vec::new());
    for (w, cost) in r.windows.iter().enumerate() {
        let lat = r.window_latencies(w);
        let (from, to) = r.window_span(w);
        let scale = calib.scale(from, to);
        let completed = lat.iter().filter(|l| l.is_finite()).count() as u64;
        p50.push(p(&lat, 0.5) * scale);
        cpu.push(stats::server_cpu_us_per_call(cost.process, cost.generator, completed) * scale);
        steal.push(cost.steal);
    }
    let quiet = quiet_windows(&steal, &p50);
    let over_quiet = |v: &[f64]| median(&quiet.iter().map(|w| v[*w]).collect::<Vec<_>>());
    report.put("op_latency_us", over_quiet(&p50), "us");
    report.put("cpu_us_per_op", over_quiet(&cpu), "us");
    report.put(
        "ops_per_s",
        r.completed() as f64 / r.elapsed.as_secs_f64().max(1e-9),
        "1/s",
    );
}

/// Steal shares closer than this count as equally quiet.
const STEAL_STEP: f64 = 0.02;

/// The quietest quarter of windows (at least one): fewest CPU cycles
/// stolen by the hypervisor, in steps of [`STEAL_STEP`], and among
/// equally quiet windows the lowest `latency`. A window whose CPUs
/// were taken away measures the neighbours, however it is scaled.
pub fn quiet_windows(steal: &[f64], latency: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..steal.len()).collect();
    order.sort_by(|a, b| {
        let step = |w: usize| (steal[w] / STEAL_STEP).floor();
        step(*a)
            .total_cmp(&step(*b))
            .then(latency[*a].total_cmp(&latency[*b]))
    });
    order.truncate(steal.len().div_ceil(4).max(1));
    order
}

/// Times `f` and scales its duration to reference-host seconds.
pub fn timed_setup<T>(calib: &Calibrator, f: impl FnOnce() -> T) -> (T, f64) {
    let from = Instant::now();
    let out = f();
    let to = Instant::now();
    (
        out,
        to.duration_since(from).as_secs_f64() * calib.scale(from, to),
    )
}

/// Generator validity: how late it ran and what it cost.
pub fn generator(report: &mut Report, r: &GenResult) {
    report.put("gen.late_p99_ms", p(&r.late_us, 0.99) / 1e3, "ms");
    report.put("gen.cpu_s", r.cpu.as_secs_f64(), "s");
}

/// Whether the generator kept to its schedule.
pub fn generator_valid(r: &GenResult) -> bool {
    let late = p(&r.late_us, 0.99) / 1e3;
    if late > LATE_P99_LIMIT_MS {
        eprintln!("generator fell behind: late p99 {late:.3} ms > {LATE_P99_LIMIT_MS} ms");
        return false;
    }
    true
}

/// Codec cost per method, from replaying recorded bodies and reply
/// values through `parse_call` and `write_response` after timing.
pub struct Codec {
    /// method → (decode µs, encode µs, reply bytes), medians.
    pub per_method: BTreeMap<String, (f64, f64, f64)>,
}

impl Codec {
    pub fn cost_us(&self, method: &str) -> f64 {
        self.per_method
            .get(method)
            .map(|c| c.0 + c.1)
            .unwrap_or(0.0)
    }
}

const CODEC_REPS: usize = 15;

fn time_us(mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(CODEC_REPS);
    for _ in 0..CODEC_REPS {
        let t = Instant::now();
        f();
        times.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&times)
}

/// Replays `(method, request body, reply body)` triples.
pub fn codec_replay<'a>(entries: impl Iterator<Item = (&'a str, &'a [u8], &'a [u8])>) -> Codec {
    // method → (decode µs, encode µs, reply bytes) per replayed entry.
    type Samples = (Vec<f64>, Vec<f64>, Vec<f64>);
    let mut samples: BTreeMap<String, Samples> = BTreeMap::new();
    for (method, body, reply) in entries {
        let decode = time_us(|| {
            black_box(parse_call(black_box(body)).ok());
        });
        let Ok(response) = parse_response(reply) else {
            continue;
        };
        let encode = time_us(|| {
            black_box(write_response(black_box(&response)));
        });
        let s = samples.entry(method.to_string()).or_default();
        s.0.push(decode);
        s.1.push(encode);
        s.2.push(reply.len() as f64);
    }
    Codec {
        per_method: samples
            .into_iter()
            .map(|(m, (d, e, b))| {
                (
                    m,
                    (
                        median(&d),
                        median(&e),
                        b.iter().sum::<f64>() / b.len() as f64,
                    ),
                )
            })
            .collect(),
    }
}

/// The traced phase's RPC layers: door, dispatch, gate, codec, tails,
/// and (on monitor) the closure of the stage split.
#[allow(clippy::too_many_arguments)]
pub fn rpc_traced(
    report: &mut Report,
    door: &Door,
    r: &GenResult,
    methods: &[&str],
    codec: &Codec,
    untraced: &GenResult,
    closure: bool,
) {
    let traces = door.hub.traces();
    let mut dispatch: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut door_us = Vec::new();
    let mut transport_parts = Vec::new();
    let mut dispatch_all = Vec::new();
    let mut codec_all = Vec::new();
    let gate_waits: Vec<f64> = door
        .dispositions
        .lock()
        .expect("disposition log poisoned")
        .iter()
        .filter(|(d, _)| d == "run")
        .map(|(_, us)| *us as f64)
        .collect();
    let gate_p50 = p(&gate_waits, 0.5);
    for (i, method) in methods.iter().enumerate() {
        if !r.span_us[i].is_finite() {
            continue;
        }
        let name = format!("rpc.{method}");
        let Some(span) = traces
            .spans(TraceId::new(i as u64 + 1))
            .and_then(|spans| spans.into_iter().find(|s| s.name == name))
        else {
            continue;
        };
        let d = span.end.saturating_since(span.start).as_micros() as f64;
        dispatch.entry(method).or_default().push(d);
        door_us.push(r.span_us[i] - d);
        let c = codec.cost_us(method);
        dispatch_all.push(d);
        codec_all.push(c);
        transport_parts.push(r.span_us[i] - d - c - gate_p50);
    }
    report.put("aio.door_p50_us", p(&door_us, 0.5), "us");
    report.put("aio.door_p90_us", p(&door_us, 0.9), "us");
    report.put(
        "aio.requests_served",
        door.server.requests_served() as f64,
        "count",
    );
    report.put("aio.replies_received", r.completed() as f64, "count");
    for (m, d) in &dispatch {
        report.put(format!("rpc.dispatch_p50_us.{m}"), p(d, 0.5), "us");
        report.put(format!("rpc.dispatch_p90_us.{m}"), p(d, 0.9), "us");
    }
    // Call-weighted codec cost over the calls this phase made.
    let weights = methods.iter().filter_map(|m| codec.per_method.get(*m));
    let (mut dec, mut enc, mut bytes, mut n) = (0.0, 0.0, 0.0, 0.0);
    for (d, e, b) in weights {
        dec += d;
        enc += e;
        bytes += b;
        n += 1.0;
    }
    if n > 0.0 {
        report.put("wire.decode_call_us", dec / n, "us");
        report.put("wire.encode_reply_us", enc / n, "us");
        report.put("wire.reply_bytes", bytes / n, "bytes");
    }
    for (m, (d, e, b)) in &codec.per_method {
        report.put(format!("wire.decode_us.{m}"), *d, "us");
        report.put(format!("wire.encode_us.{m}"), *e, "us");
        report.put(format!("wire.reply_bytes.{m}"), *b, "bytes");
    }
    let stats = door.gate.stats();
    report.put("gate.wait_p50_us", gate_p50, "us");
    report.put("gate.wait_p90_us", p(&gate_waits, 0.9), "us");
    report.put("gate.admitted", stats.total_admitted() as f64, "count");
    report.put(
        "gate.shed",
        (stats.shed.iter().sum::<u64>() + stats.expired.iter().sum::<u64>()) as f64,
        "count",
    );
    let refused = door
        .dispositions
        .lock()
        .expect("disposition log poisoned")
        .iter()
        .filter(|(d, _)| d == "refused")
        .count();
    report.put("gate.refused", refused as f64, "count");
    report.put(
        "gate.rate_limited",
        stats.rate_limited.iter().sum::<u64>() as f64,
        "count",
    );

    let attempted = r.latency_us.len() as u64;
    let mut sorted = r.latency_us.clone();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latency samples are never NaN"));
    if !sorted.is_empty() {
        report.put("call.p90_us", stats::percentile_sorted(&sorted, 0.90), "us");
        report.put("call.p99_us", stats::percentile_sorted(&sorted, 0.99), "us");
        report.put(
            "call.p999_us",
            stats::percentile_sorted(&sorted, 0.999),
            "us",
        );
    }
    report.put("call.samples", attempted as f64, "count");
    report.put("fail_frac", stats::fail_frac(attempted, r.failed), "ratio");

    // Tracing overhead: this phase against the untraced phase that
    // ran the same schedule just before it.
    let base_p50 = p(&untraced.latency_us, 0.5);
    if base_p50 > 0.0 {
        report.put(
            "trace.overhead_p50_frac",
            p(&r.latency_us, 0.5) / base_p50 - 1.0,
            "ratio",
        );
    }
    let cpu = |g: &GenResult| stats::server_cpu_us_per_call(g.process_cpu, g.cpu, g.completed());
    if cpu(untraced) > 0.0 {
        report.put(
            "trace.overhead_cpu_frac",
            cpu(r) / cpu(untraced) - 1.0,
            "ratio",
        );
    }

    if closure && !dispatch_all.is_empty() {
        // Stages along the blocking path of a call: generator
        // lateness, door transport (the rest of the client span),
        // gate wait, dispatch, codec. Their medians must add up to the
        // call's median.
        let call_p50 = p(&r.latency_us, 0.5);
        let sum = p(&r.late_us, 0.5)
            + p(&transport_parts, 0.5)
            + gate_p50
            + p(&dispatch_all, 0.5)
            + p(&codec_all, 0.5);
        let error = (sum - call_p50).abs() / call_p50.max(1e-9);
        report.put("closure.stage_sum_us", sum, "us");
        report.put("closure.call_p50_us", call_p50, "us");
        report.put("closure.error_frac", error, "ratio");
        if error > CLOSURE_TOLERANCE {
            eprintln!(
                "closure: stages sum to {sum:.1} us against call p50 {call_p50:.1} us \
                 ({:.1}% > {:.0}% tolerance)",
                error * 100.0,
                CLOSURE_TOLERANCE * 100.0
            );
        }
    }
}

/// Layers read from the stack's public accessors after a run.
pub fn stack_layers(report: &mut Report, stack: &ServiceStack) {
    let (hits, misses) = stack.estimators.memo_stats();
    let lookups = hits + misses;
    report.put(
        "estimator.memo_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        },
        "ratio",
    );
    report.put("estimator.memo_lookups", lookups as f64, "count");
    let hist = stack.hist.store().stats();
    report.put("hist.rows", hist.rows as f64, "count");
    report.put(
        "hist.segments",
        (hist.sealed_segments + u64::from(hist.tail_rows > 0)) as f64,
        "count",
    );
    let snapshot = stack.jobmon.db_snapshot();
    let count = |s: TaskStatus| snapshot.iter().filter(|i| i.status == s).count() as f64;
    report.put(
        "exec.tasks_completed",
        count(TaskStatus::Completed),
        "count",
    );
    report.put("exec.tasks_failed", count(TaskStatus::Failed), "count");
    let xfer = stack.grid.xfer_metrics().counters;
    report.put("xfer.completed", xfer.completed as f64, "count");
    report.put("xfer.failed", xfer.failed as f64, "count");
    report.put("xfer.retried", xfer.retried as f64, "count");
    let attempts = xfer.completed + xfer.failed + xfer.retried;
    report.put(
        "xfer.useful_ratio",
        if attempts == 0 {
            0.0
        } else {
            xfer.completed as f64 / attempts as f64
        },
        "ratio",
    );
    report.put(
        "steering.moves",
        stack.steering.move_log().len() as f64,
        "count",
    );
    report.put(
        "obs.traces_retained",
        stack.obs().traces().len() as f64,
        "count",
    );
}

/// Host-time distribution of `run_until` calls.
pub fn ticks(report: &mut Report, tick_ms: &[f64]) {
    report.put("tick.run_until_p50_ms", p(tick_ms, 0.5), "ms");
    report.put("tick.run_until_p90_ms", p(tick_ms, 0.9), "ms");
    report.put("tick.busy_s", tick_ms.iter().sum::<f64>() / 1e3, "s");
    report.put("tick.count", tick_ms.len() as f64, "count");
}

/// Fills every per-layer metric a traced run did not report with 0,
/// in the declared order.
pub fn complete_per_layer(report: &Report) -> Report {
    let mut full = Report::default();
    for (name, unit) in per_layer_names() {
        full.put(name.clone(), report.get(&name).unwrap_or(0.0), unit);
    }
    full
}

/// Total size of the files under `dir`.
pub fn dir_bytes(dir: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_prefer_little_steal_then_low_latency() {
        let steal = [0.0, 0.30, 0.005, 0.01, 0.0, 0.25, 0.0, 0.0];
        let latency = [300.0, 100.0, 150.0, 120.0, 200.0, 90.0, 250.0, 400.0];
        // Two of eight windows: the ones under 2 % steal with the
        // lowest latency; the stolen-from windows are never picked,
        // however fast they look.
        assert_eq!(quiet_windows(&steal, &latency), vec![3, 2]);
        assert_eq!(quiet_windows(&[0.5], &[1.0]), vec![0]);
    }
}
