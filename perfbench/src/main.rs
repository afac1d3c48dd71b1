//! The repository benchmark: one seeded workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload proxy_hit --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every workload checks its outputs, prints the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`) as the last line of
//! standard output, and exits non-zero if any check failed. Workloads and
//! metrics are described in `perfbench/WORKLOADS.md`.

mod client;
mod floor;
mod json;
mod loadgen;
mod proxy_hit;
mod proxy_joint;
mod sim_sessions;
mod stats;
mod trace;

use json::Metric;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics: name and unit, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("delay_p50_ms", "ms"),
    ("delay_tail_ms", "ms"),
];

/// Per-layer metrics: name and unit, in `BENCHMARK.json` order. A workload
/// that bypasses a layer reports zero work for it.
const PER_LAYER: [(&str, &str); 41] = [
    ("pool.queue_wait_us", "us"),
    ("pool.peak_queue_depth", "count"),
    ("proxy.connect_us", "us"),
    ("proxy.header_p50_us", "us"),
    ("proxy.header_p99_us", "us"),
    ("proxy.body_p50_us", "us"),
    ("proxy.body_p99_us", "us"),
    ("proxy.commit_p50_us", "us"),
    ("proxy.commit_p99_us", "us"),
    ("proxy.request_p50_us", "us"),
    ("proxy.fixed_p50_us", "us"),
    ("proxy.startup_mean_ms", "ms"),
    ("proxy.rps_at_slo", "1/s"),
    ("proxy.floor_ratio", "ratio"),
    ("floor.rps_at_slo", "1/s"),
    ("floor.capacity_per_s", "1/s"),
    ("floor.p50_us", "us"),
    ("cache.traffic_reduction", "ratio"),
    ("engine.fill_ratio", "ratio"),
    ("engine.objects", "count"),
    ("store.grant_gap_bytes", "bytes"),
    ("origin.bytes", "bytes"),
    ("origin.retries", "count"),
    ("origin.resumes", "count"),
    ("netmodel.estimate_ratio", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("workload.generate_s", "s"),
    ("netmodel.provider_generate_s", "s"),
    ("session.fault_timeline_s", "s"),
    ("session.core_self_s", "s"),
    ("session.events", "count"),
    ("session.outage_edges", "count"),
    ("session.peak_viewers", "count"),
    ("netmodel.capacity_calls", "count"),
    ("netmodel.capacity_s", "s"),
    ("engine.on_access_calls", "count"),
    ("engine.on_access_s", "s"),
    ("engine.evictions", "count"),
    ("process.peak_rss_mb", "MB"),
    ("trace.overhead_us", "us"),
    ("trace.spans", "count"),
];

/// Operation counts and failed checks, shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (requests sent, simulation runs made).
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first few failure messages, for the error stream.
    pub errors: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation and its outcome.
    pub fn record<T>(&mut self, outcome: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e.clone());
        }
    }

    /// Counts a failed check that is not tied to one operation (an
    /// invariant checked after the run). It counts as a failed attempt.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.attempted += 1;
            self.fail(what());
        }
    }

    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message);
        }
    }
}

/// What a workload run produced: its tally and metrics by name.
#[derive(Debug, Default)]
pub struct Report {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// Metric values by name; units come from the tables above.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records metric `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Keeps every processor busy for `secs` seconds. After idling, the
/// host's virtual processors ran at about half speed for the first second
/// of load, so a run that started cold read up to half again slower than
/// the next; set-up and timing start after this.
fn warm_processors(secs: f64) {
    let until = std::time::Instant::now() + std::time::Duration::from_secs_f64(secs);
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..n {
            scope.spawn(|| {
                let mut x = 1u64;
                while std::time::Instant::now() < until {
                    for _ in 0..10_000 {
                        x = std::hint::black_box(
                            x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1),
                        );
                    }
                }
            });
        }
    });
}

/// Client threads and connections: at most two, and never more than the
/// processors available, so the load generator cannot outnumber them.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload proxy_hit|proxy_joint|sim_sessions \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    warm_processors(1.0);
    let mut report = match args.workload.as_str() {
        "proxy_hit" => proxy_hit::run(args.seed, args.seconds, args.trace),
        "proxy_joint" => proxy_joint::run(args.seed, args.seconds, args.trace),
        "sim_sessions" => sim_sessions::run(args.seed, args.seconds, args.trace),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.set("process.peak_rss_mb", peak_rss_mb());

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        // Per-layer rows a workload has no work for read zero; an
        // end-to-end row must always be measured.
        let value = match report.metrics.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        report.tally.check(value.is_finite(), || {
            format!("metric {name} is not a finite number: {value}")
        });
        metrics.push(Metric {
            name: name.to_string(),
            unit,
            value,
        });
    }
    for (name, value) in &report.metrics {
        eprintln!("  {name:<30} {value}");
    }
    let tally = &report.tally;
    for e in &tally.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{}",
        json::result_line(correct, tally.attempted, tally.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = spec.matches("\"unit\": ").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn tally_counts_attempts_and_failures() {
        let mut tally = Tally::default();
        tally.record(&Ok::<(), String>(()));
        tally.record(&Err::<(), String>("short payload".into()));
        tally.check(true, || unreachable!());
        tally.check(false, || "store above grant".into());
        assert_eq!((tally.attempted, tally.failed), (3, 2));
        assert_eq!(tally.errors, ["short payload", "store above grant"]);
    }
}
