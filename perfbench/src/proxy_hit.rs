//! `proxy_hit`: the fully warm hit path.
//!
//! An unthrottled origin, the integral-frequency policy and a capacity far
//! above the catalog: after one verified warm-up pass every object is
//! cached whole, so each timed request is accept, pool hand-off, parse,
//! store lookup, prefix write and commit, with no origin relay, tail
//! retention, eviction or estimator movement. The same phases run first
//! against the bare floor server, then against the proxy: an open loop at
//! a fixed rate, a closed loop on every client connection, and an
//! open-loop ladder of rising rates.
//!
//! The end-to-end delays are read from the closed loop. An open loop at a
//! fixed rate reads the same delays while the host keeps its speed, but a
//! slow spell of the host overloads the proxy and the backlog moved the
//! median a hundredfold in one run of ten; the closed loop slows with the
//! host instead.

use crate::client::{self, Fetch, Record};
use crate::floor::FloorServer;
use crate::loadgen::{poisson_dues, run_closed_loop, run_open_loop};
use crate::stats;
use crate::{client_threads, Report, Tally};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_cache::policy::PolicyKind;
use sc_proxy::{
    CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig, StreamingClient,
};
use std::net::SocketAddr;
use std::time::Instant;

/// Catalog size; objects are `clip-0` … `clip-511`.
const OBJECTS: u32 = 512;
/// Object size, as in `bench_proxy`.
const OBJECT_BYTES: u64 = 16 * 1024;
const BITRATE_BPS: f64 = 1e6;
/// Cache capacity, far above the 8 MB catalog.
const CAPACITY_BYTES: f64 = 1e12;
/// Fresh servers started (and warmed) per run; the median start-up time
/// is reported and the last set is measured.
const SETUP_REPEATS: usize = 3;
/// Latency limit on the p99, timed from when each request was due.
const SLO_SECS: f64 = 1e-3;
/// Block length of the delay tail: 100 requests, about 5 ms of the closed
/// loop, support a p90 (ten samples beyond it); a stall of the host covers
/// a minority of the blocks, and the median over blocks passes over it.
const TAIL_BLOCK: usize = 100;
/// Block length of a rung's p99 (see [`stats::block_quantile`]): the
/// smallest block with ten samples beyond its p99.
const RUNG_BLOCK: usize = 1_000;
/// The fixed offered rate, about 40% of the proxy's capacity on a 2-vCPU
/// virtual machine, that the traced stage split and the pool wait are read
/// at; it is also one rung of the ladder.
const FIXED_RATE: f64 = 8_000.0;
/// The ladder's further rungs, in requests per second. The top ones are
/// above what two connections get from the floor.
const LADDER: [f64; 7] = [
    6_000.0, 10_000.0, 12_000.0, 14_000.0, 16_000.0, 20_000.0, 24_000.0,
];
/// Shares of `--seconds` each server (floor, then proxy) gets for the fixed
/// rate, the closed loop and each further rung.
const FIXED_SHARE: f64 = 0.15;
const CLOSED_SHARE: f64 = 0.1;
const RUNG_SHARE: f64 = 0.035;
/// Window of the closed-loop rate (see [`stats::windowed_rate`]).
const WINDOW_SECS: f64 = 0.1;
/// Every request whose index is a multiple of this has its payload
/// verified byte for byte, after its timestamps are taken; the rest check
/// status and length. Checking a 16 KB payload takes about as long as two
/// requests, so a denser sample would slow the load generator.
const VERIFY_EVERY: usize = 64;

/// The delay a hit-path client sees: due time to last byte.
fn last_byte(f: &Fetch) -> f64 {
    f.at.last_byte
}

fn names() -> Vec<String> {
    (0..OBJECTS).map(|i| format!("clip-{i}")).collect()
}

/// The servers of one run.
struct Bed {
    // Field order is drop order: the proxy stops before its origin.
    proxy: CachingProxy,
    _origin: OriginServer,
    floor: FloorServer,
}

/// Starts origin, proxy and floor, and warms the proxy with one sequential
/// pass that verifies every byte.
fn set_up(names: &[String], tally: &mut Tally) -> Result<Bed, String> {
    let origin = OriginServer::start(OriginConfig {
        objects: names
            .iter()
            .map(|n| ObjectSpec::new(n.clone(), OBJECT_BYTES, BITRATE_BPS))
            .collect(),
        rate_limit_bps: 0.0,
    })
    .map_err(|e| format!("origin start: {e}"))?;
    let mut config = ProxyConfig::new(origin.addr(), CAPACITY_BYTES);
    config.policy = PolicyKind::IntegralFrequency;
    let proxy = CachingProxy::start(config).map_err(|e| format!("proxy start: {e}"))?;
    let client = StreamingClient::new();
    for name in names {
        let outcome = match client.fetch(proxy.addr(), name) {
            Ok(r) if !r.content_ok => Err(format!("warm-up {name}: payload mismatch")),
            Ok(r) if r.bytes != OBJECT_BYTES => Err(format!("warm-up {name}: {} bytes", r.bytes)),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("warm-up {name}: {e}")),
        };
        tally.record(&outcome);
    }
    let cached = proxy.stats().cached_bytes;
    let want = u64::from(OBJECTS) * OBJECT_BYTES;
    tally.check(cached == want, || {
        format!("warm-up cached {cached} bytes, expected {want}")
    });
    let floor = FloorServer::start(names, OBJECT_BYTES, BITRATE_BPS, client_threads())
        .map_err(|e| format!("floor start: {e}"))?;
    Ok(Bed {
        proxy,
        _origin: origin,
        floor,
    })
}

/// Sends `count` Poisson arrivals at `rate` to `addr`, requesting catalog
/// objects uniformly at random from `rng`.
fn rung(
    addr: SocketAddr,
    names: &[String],
    rate: f64,
    count: usize,
    rng: &mut StdRng,
    trace: bool,
) -> Vec<Record> {
    let dues = poisson_dues(rng, rate, count);
    let picks: Vec<usize> = (0..count).map(|_| rng.gen_range(0..names.len())).collect();
    run_open_loop(&dues, client_threads(), |i, due| {
        let mut buf = [0u8; OBJECT_BYTES as usize];
        client::get(
            addr,
            &names[picks[i]],
            due,
            OBJECT_BYTES,
            i % VERIFY_EVERY == 0,
            trace && client::traced(i),
            &mut buf,
        )
    })
}

/// Outcome of one ladder rung.
#[derive(Debug, Clone, Copy)]
struct RungResult {
    rate: f64,
    /// Blocked p99 delay (see [`stats::block_quantile`]), due time to last
    /// byte.
    p99: f64,
    /// Whether the generator ended the rung further behind than the limit.
    backlog: bool,
}

impl RungResult {
    fn passes(&self) -> bool {
        self.p99 <= SLO_SECS && !self.backlog
    }
}

fn judge(rate: f64, records: &[Record]) -> RungResult {
    // A failed request misses the limit.
    let delays: Vec<f64> = records
        .iter()
        .map(|r| r.out.as_ref().map_or(f64::INFINITY, last_byte))
        .collect();
    // A backlog that grows over the rung keeps the generator late through
    // its last quarter; a brief stall of the host does not.
    let tail = &records[records.len() - records.len() / 4..];
    let late: Vec<f64> = tail.iter().map(|r| r.late_secs).collect();
    RungResult {
        rate,
        p99: stats::block_quantile(&delays, 0.99, RUNG_BLOCK),
        backlog: stats::median(&late) > SLO_SECS,
    }
}

/// The highest rate meeting the limit. Starting from the highest passing
/// rung (a stall of the host can fail a lower one, but cannot make a rung
/// pass), the rate is interpolated towards the next rung in log p99, so it
/// moves smoothly rather than by whole rungs. When no rung passes, the
/// first rung's rate is scaled down by how far its p99 missed.
fn rate_at_slo(rungs: &[RungResult]) -> f64 {
    let Some(k) = rungs.iter().rposition(RungResult::passes) else {
        return rungs
            .first()
            .map_or(0.0, |r| r.rate * (SLO_SECS / r.p99).min(1.0));
    };
    let lo = rungs[k];
    let Some(hi) = rungs.get(k + 1) else {
        return lo.rate;
    };
    let frac = if hi.p99.is_finite() && !hi.backlog {
        ((SLO_SECS.ln() - lo.p99.ln()) / (hi.p99.ln() - lo.p99.ln())).clamp(0.0, 1.0)
    } else {
        0.0
    };
    lo.rate + (hi.rate - lo.rate) * frac
}

/// Records every outcome in `tally` and returns how many succeeded.
fn tally_all<'a>(
    tally: &mut Tally,
    outcomes: impl Iterator<Item = &'a Result<Fetch, String>>,
) -> u64 {
    outcomes
        .map(|out| {
            tally.record(out);
            u64::from(out.is_ok())
        })
        .sum()
}

/// What the load phases after the fixed rate produced against one server.
struct Load {
    /// Mean windowed closed-loop rate, requests per second.
    capacity: f64,
    /// Closed-loop delays, send to last byte, in completion order.
    delays: Vec<f64>,
    /// Verdict of every further rung, in rate order.
    rungs: Vec<RungResult>,
    /// Requests answered in full.
    completed: u64,
}

/// The random stream of phase `k`, identical for floor and proxy.
fn stream(seed: u64, k: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(1_000_003).wrapping_add(k))
}

/// The fixed-rate phase against `addr`.
fn fixed_phase(
    addr: SocketAddr,
    names: &[String],
    seed: u64,
    seconds: f64,
    trace: bool,
) -> Vec<Record> {
    let n = (FIXED_RATE * seconds * FIXED_SHARE).round().max(1_000.0) as usize;
    rung(addr, names, FIXED_RATE, n, &mut stream(seed, 0), trace)
}

/// The closed loop on every client connection, then the further rungs.
fn load_phases(
    addr: SocketAddr,
    names: &[String],
    seed: u64,
    seconds: f64,
    tally: &mut Tally,
) -> Load {
    let mut rng = stream(seed, 1);
    let picks: Vec<usize> = (0..4096).map(|_| rng.gen_range(0..names.len())).collect();
    let closed_secs = seconds * CLOSED_SHARE;
    let closed = run_closed_loop(client_threads(), closed_secs, |i| {
        let mut buf = [0u8; OBJECT_BYTES as usize];
        let name = &names[picks[i % picks.len()]];
        let verify = i % VERIFY_EVERY == 0;
        client::get(
            addr,
            name,
            Instant::now(),
            OBJECT_BYTES,
            verify,
            false,
            &mut buf,
        )
    });
    let mut completed = tally_all(tally, closed.iter().map(|(_, out)| out));
    let (done, delays): (Vec<f64>, Vec<f64>) = closed
        .iter()
        .filter_map(|(t, out)| out.as_ref().ok().map(|f| (*t, last_byte(f))))
        .unzip();
    let capacity = stats::windowed_rate(&done, WINDOW_SECS, closed_secs);

    let mut rungs = Vec::with_capacity(LADDER.len());
    for (k, &rate) in LADDER.iter().enumerate() {
        // At least 1,000 requests, so the p99 has ten samples beyond it.
        let n = (rate * seconds * RUNG_SHARE).round().max(1_000.0) as usize;
        let records = rung(addr, names, rate, n, &mut stream(seed, k as u64 + 2), false);
        completed += tally_all(tally, records.iter().map(|r| &r.out));
        rungs.push(judge(rate, &records));
    }
    eprintln!("  {addr} closed loop {capacity:.0}/s");
    Load {
        capacity,
        delays,
        rungs,
        completed,
    }
}

/// The ladder's verdicts, the fixed rate's included, in rate order.
fn ladder(addr: SocketAddr, fixed: &[Record], load: &Load) -> Vec<RungResult> {
    let mut rungs = load.rungs.clone();
    rungs.push(judge(FIXED_RATE, fixed));
    rungs.sort_by(|a, b| a.rate.total_cmp(&b.rate));
    for r in &rungs {
        eprintln!(
            "  {addr} {:>6.0}/s  p99 {:>8.3} ms{}",
            r.rate,
            r.p99 * 1e3,
            if r.backlog { "  backlog" } else { "" }
        );
    }
    rungs
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let names = names();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut bed = None;
    for _ in 0..SETUP_REPEATS {
        // Stop the previous set before timing the next.
        drop(bed.take());
        let started = Instant::now();
        match set_up(&names, &mut report.tally) {
            Ok(b) => bed = Some(b),
            Err(e) => {
                report.tally.record(&Err::<(), _>(e));
                return report;
            }
        }
        setups.push(started.elapsed().as_secs_f64());
    }
    let bed = bed.expect("at least one set-up ran");
    report.set("setup_s", stats::median(&setups));

    let floor_fixed = fixed_phase(bed.floor.addr(), &names, seed, seconds, false);
    tally_all(&mut report.tally, floor_fixed.iter().map(|r| &r.out));
    let floor = load_phases(bed.floor.addr(), &names, seed, seconds, &mut report.tally);

    let before = bed.proxy.stats();
    let fixed = fixed_phase(bed.proxy.addr(), &names, seed, seconds, trace);
    let after_fixed = bed.proxy.stats();
    let completed = tally_all(&mut report.tally, fixed.iter().map(|r| &r.out));
    client::check_count(&mut report, &before, &after_fixed, completed);
    let proxy = load_phases(bed.proxy.addr(), &names, seed, seconds, &mut report.tally);
    client::check_count(
        &mut report,
        &after_fixed,
        &bed.proxy.stats(),
        proxy.completed,
    );
    client::check_contents(&mut report, &bed.proxy, CAPACITY_BYTES);

    report.set("throughput_per_s", proxy.capacity);
    if let Some(s) = stats::Summary::of(&proxy.delays) {
        let q = stats::tail_quantile(TAIL_BLOCK).expect("a block supports a tail quantile");
        report.set("delay_p50_ms", s.p50 * 1e3);
        report.set(
            "delay_tail_ms",
            stats::block_quantile(&proxy.delays, q, TAIL_BLOCK) * 1e3,
        );
    }

    if trace {
        let rps = rate_at_slo(&ladder(bed.proxy.addr(), &fixed, &proxy));
        let floor_rps = rate_at_slo(&ladder(bed.floor.addr(), &floor_fixed, &floor));
        report.set("proxy.rps_at_slo", rps);
        report.set("floor.rps_at_slo", floor_rps);
        report.set("floor.capacity_per_s", floor.capacity);
        report.set("proxy.floor_ratio", proxy.capacity / floor.capacity);
        for (name, records) in [
            ("proxy.fixed_p50_us", &fixed),
            ("floor.p50_us", &floor_fixed),
        ] {
            if let Some((p50, _, _)) = client::delays(records, last_byte, TAIL_BLOCK) {
                report.set(name, p50 * 1e6);
            }
        }
        client::layer_metrics(&mut report, &after_fixed, &before, &fixed, last_byte);
        client::finish_trace(&mut report, &fixed, "proxy_hit", seed);
    }
    report
}
