//! `gae-perfbench` — the repository's benchmark.
//!
//! ```text
//! gae-perfbench --workload <monitor|steer|grid-sim> --seed N --seconds S --trace <0|1>
//! ```
//!
//! Builds the production service stack in-process through its public
//! constructors, drives it, checks every output, and prints one JSON
//! line: the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! of a separate traced run (`--trace 1`). Exits non-zero when any
//! output check fails.

mod calib;
mod client;
mod gridsim;
mod layers;
mod monitor;
mod rng;
mod server;
mod stats;
mod steer;

use stats::Report;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// The generator kept to its schedule (RPC workloads).
    pub valid: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `VmHWM` when the timed phase ended, before the output checks.
    pub peak_rss_mb: f64,
    pub e2e: Report,
    pub layers: Report,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gae-perfbench: {e}");
            eprintln!("usage: gae-perfbench --workload <monitor|steer|grid-sim> --seed N --seconds S --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Stores the run writes live under the working directory and are
    // removed when it ends.
    let work = std::path::PathBuf::from(format!(".bench_work/{}", std::process::id()));
    let calib = calib::Calibrator::start();
    let mut out = match args.workload.as_str() {
        "monitor" => monitor::run(args.seed, args.seconds, args.trace, SETUPS, &calib),
        "steer" => steer::run(args.seed, args.seconds, args.trace, SETUPS, &work, &calib),
        "grid-sim" => gridsim::run(args.seed, args.seconds, args.trace, SETUPS, &work, &calib),
        other => {
            eprintln!("gae-perfbench: unknown workload {other:?}");
            std::process::exit(2);
        }
    };
    drop(calib);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");
    let metrics = if args.trace {
        layers::complete_per_layer(&out.layers)
    } else {
        out.e2e.put("peak_rss_mb", out.peak_rss_mb, "MB");
        let mut ordered = Report::default();
        for (name, unit) in layers::END_TO_END {
            let value = out
                .e2e
                .get(name)
                .unwrap_or_else(|| panic!("workload {} did not report {name}", args.workload));
            ordered.put(name, value, unit);
        }
        ordered
    };
    let ok = out.correct && out.valid;
    println!("{}", metrics.to_json(ok, out.attempted, out.failed));
    if !ok {
        std::process::exit(1);
    }
}
