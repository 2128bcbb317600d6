//! Host-speed calibration.
//!
//! The benchmark's hosts are shared: other tenants on the same cores
//! change how fast a fixed piece of code runs by tens of percent over
//! seconds. A calibration thread times the CPU cost of a fixed,
//! cache-bound kernel every [`PERIOD`] (about 2 % of one CPU) for the
//! whole run. Time figures
//! are reported in reference-host units: each window's raw figure is
//! scaled by [`REFERENCE_US`] over the kernel's median time within
//! that window, so a host that runs the kernel 20 % slower scales the
//! window's times down by the same share. A change to the program does
//! not touch the kernel, so it still moves the scaled figures by its
//! own share.

use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Pause between kernel runs.
pub const PERIOD: Duration = Duration::from_millis(50);
/// The kernel's time on the reference host (a quiet 2-CPU container).
pub const REFERENCE_US: f64 = 1_200.0;
/// Entries in the kernel's table: 256 KiB, more than an L1 cache and
/// less than an L2 cache holds.
const TABLE_LEN: usize = 64 << 10;
const KERNEL_STEPS: usize = 100_000;

/// A table of indices forming one cycle through every entry (Sattolo's
/// shuffle from a fixed seed), so a walk never settles into a short loop.
fn cycle_table() -> Vec<u32> {
    let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in (1..TABLE_LEN).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
        table.swap(i, (x % i as u64) as usize);
    }
    table
}

/// The fixed kernel: a dependent walk through the table. Each step is
/// a load whose address depends on the one before, the kind of cache
/// traffic the services' parsing, lookups and encoding make; a
/// register-only loop missed the slowdowns other tenants' cache use
/// causes.
fn kernel(table: &[u32]) -> u64 {
    let mut at = 0u32;
    let mut sum = 0u64;
    for _ in 0..black_box(KERNEL_STEPS) {
        at = table[at as usize];
        sum = sum.wrapping_add(u64::from(at));
    }
    sum
}

type Samples = Arc<Mutex<Vec<(Instant, f64)>>>;

/// A running calibration thread.
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    samples: Samples,
    thread: Option<JoinHandle<()>>,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let samples: Samples = Arc::default();
        let thread = {
            let (stop, samples) = (stop.clone(), samples.clone());
            std::thread::spawn(move || {
                let table = cycle_table();
                while !stop.load(Ordering::Acquire) {
                    // CPU time, not wall time: waiting for a core behind
                    // the program's own threads is not a slower host.
                    let (t, cpu) = (Instant::now(), crate::stats::thread_cpu());
                    black_box(kernel(black_box(&table)));
                    let us = crate::stats::thread_cpu().saturating_sub(cpu).as_secs_f64() * 1e6;
                    samples
                        .lock()
                        .expect("calibration log poisoned")
                        .push((t, us));
                    std::thread::sleep(PERIOD);
                }
            })
        };
        Calibrator {
            stop,
            samples,
            thread: Some(thread),
        }
    }

    /// The factor that turns a time measured over `[from, to]` into
    /// reference-host time: [`REFERENCE_US`] over the kernel's median
    /// time in the interval (the nearest samples when it holds none).
    pub fn scale(&self, from: Instant, to: Instant) -> f64 {
        let samples = self.samples.lock().expect("calibration log poisoned");
        let mut inside: Vec<f64> = samples
            .iter()
            .filter(|(at, _)| *at >= from && *at <= to)
            .map(|(_, us)| *us)
            .collect();
        if inside.len() < 3 {
            // Too short an interval: the samples closest to its middle.
            let mid = from + to.saturating_duration_since(from) / 2;
            let mut near: Vec<(Duration, f64)> = samples
                .iter()
                .map(|(at, us)| (at.max(&mid).duration_since(*at.min(&mid)), *us))
                .collect();
            near.sort_by_key(|n| n.0);
            inside = near.iter().take(5).map(|n| n.1).collect();
        }
        let kernel_us = crate::stats::median(&inside);
        if kernel_us > 0.0 {
            REFERENCE_US / kernel_us
        } else {
            1.0
        }
    }
}

impl Drop for Calibrator {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_table_is_one_cycle() {
        let table = cycle_table();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = table[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, TABLE_LEN);
    }

    #[test]
    fn scale_is_reference_over_measured() {
        let c = Calibrator::start();
        let from = Instant::now();
        std::thread::sleep(PERIOD * 6);
        let to = Instant::now();
        let s = c.scale(from, to);
        assert!(s.is_finite() && s > 0.0, "{s}");
        // An interval with no samples of its own borrows its neighbours'.
        let now = Instant::now();
        assert!(c.scale(now, now) > 0.0);
    }
}
