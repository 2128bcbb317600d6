//! Regenerates **Figure 6**: response times for queries to the Job
//! Monitoring Service as parallel clients grow (1, 2, 3, 5, 25, 50,
//! 100).
//!
//! Runs over real loopback TCP with the paper-era service time
//! emulated (see `gae_bench::fig6` docs); pass `--raw` to measure the
//! un-delayed Rust stack instead.
//!
//! ```text
//! cargo run -p gae-bench --bin fig6 --release
//! cargo run -p gae-bench --bin fig6 --release -- --raw
//! ```

use gae_bench::fig6::{figure6, Fig6Config, PAPER_CLIENT_COUNTS};

fn main() {
    let raw = std::env::args().any(|a| a == "--raw");
    let config = if raw {
        Fig6Config {
            service_delay_ms: 0,
            ..Fig6Config::default()
        }
    } else {
        Fig6Config::default()
    };
    println!("== Figure 6: Job Monitoring Service response times ==");
    println!(
        "transport: XML-RPC over HTTP over loopback TCP, gated reactor front door; \
         {} workers; {} requests/client; emulated service time {} ms\n",
        config.workers, config.requests_per_client, config.service_delay_ms
    );
    println!(
        "{:>16}  {:>22}  {:>18}  {:>4}",
        "parallel clients", "avg response time (ms)", "throughput (req/s)", "shed"
    );
    let rows = figure6(&PAPER_CLIENT_COUNTS, config);
    for row in &rows {
        println!(
            "{:>16}  {:>22.2}  {:>18.0}  {:>4}",
            row.clients, row.mean_response_ms, row.throughput_rps, row.shed
        );
    }
    println!(
        "\npaper's series (Windows-XP JClarens, 2005): \
         1→~10ms, 5→~15ms, 25→~30ms, 50→~40ms, 100→~65ms"
    );
    println!(
        "expected shape: flat while clients ≤ workers, then a roughly \
         linear climb as requests queue."
    );
}
