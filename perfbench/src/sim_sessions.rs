//! `sim_sessions`: one session-mode simulation run on a single thread.
//!
//! PB with a 10% cache over 1,000 objects and 20,000 sessions, constant
//! bandwidth variability and seeded path outages (MTBF 900 s, MTTR 300 s,
//! 2% residual capacity). Nearly all of a run is the session core's own
//! time: the re-share on every event and the scan of every session at
//! each outage edge. The cache engine and the bandwidth model take about
//! 1%, and no proxy code runs.
//!
//! The untraced run times `SessionWorker::run` as a caller would, on a few
//! inputs drawn from the run's seed. The traced run rebuilds the first
//! input's run from the simulator's public pieces, with timed hooks and a
//! timed capacity closure, and its output must be bitwise equal to the
//! untraced one.

use crate::stats;
use crate::trace::Trace;
use crate::Report;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{CacheEngine, ObjectMeta};
use sc_sim::exec::{bandwidth_seed, fault_seed};
use sc_sim::session::{simulate_sessions_with_faults, PathFaultTimeline};
use sc_sim::{
    BandwidthProvider, EstimatorBank, PathFaultModel, SessionHooks, SessionMetrics, SessionSpec,
    SessionWorker, SharedWorkload, SimulationConfig, VariabilityKind,
};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;

/// Input generations timed per run for the set-up metric. One takes a few
/// milliseconds, so the median of many keeps a stall from moving it.
const SETUP_REPEATS: usize = 15;
/// Inputs simulated per run, each from its own seed. One input's run time
/// moves by a fifth from seed to seed, as the number of outage edges
/// follows the horizon its longest session sets; a run reports the sum
/// over the inputs.
const INPUTS: u64 = 3;
/// Fewest simulation runs of each input, however long they take: a repeat
/// is compared bitwise with the first run.
const MIN_RUNS: usize = 2;

/// Seed of input `k` of the run with seed `seed`; distinct runs get
/// distinct inputs.
fn input_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_mul(INPUTS).wrapping_add(k)
}

fn config() -> SimulationConfig {
    let mut config = SimulationConfig::paper_default();
    config.workload.catalog.objects = 1_000;
    config.workload.trace.requests = 20_000;
    config.policy = PolicyKind::PartialBandwidth;
    config.variability = VariabilityKind::Constant;
    config.path_faults = Some(PathFaultModel {
        mtbf_secs: 900.0,
        mttr_secs: 300.0,
        residual_capacity_fraction: 0.02,
    });
    config.with_cache_fraction(0.1)
}

fn specs(shared: &SharedWorkload) -> Vec<SessionSpec> {
    shared
        .trace
        .session_arrivals(&shared.catalog)
        .into_iter()
        .map(|s| SessionSpec {
            path: s.object.as_u32(),
            arrival_secs: s.time_secs,
            duration_secs: s.duration_secs,
            rate_bps: s.bitrate_bps,
            size_bytes: s.size_bytes,
        })
        .collect()
}

/// The inputs of one run besides the workload, drawn exactly as
/// `SessionWorker::run` draws them.
fn provider(config: &SimulationConfig, shared: &SharedWorkload, seed: u64) -> BandwidthProvider {
    let mut rng = StdRng::seed_from_u64(bandwidth_seed(seed));
    let horizon = shared.trace.requests().last().map_or(0.0, |r| r.time_secs);
    BandwidthProvider::generate_with_model(
        shared.catalog.len(),
        config.variability,
        config.bandwidth_model,
        horizon,
        &mut rng,
    )
}

fn timeline(
    config: &SimulationConfig,
    shared: &SharedWorkload,
    specs: &[SessionSpec],
    seed: u64,
) -> PathFaultTimeline {
    let horizon = specs
        .iter()
        .map(|s| s.arrival_secs + s.duration_secs)
        .fold(0.0_f64, f64::max);
    let model = config
        .path_faults
        .expect("the workload injects path faults");
    PathFaultTimeline::generate(shared.catalog.len(), horizon, model, fault_seed(seed))
}

/// Checks that hold for any run: origin egress bins sum to the origin
/// bytes, and viewer-seconds equal the summed playback durations.
fn check_conservation(report: &mut Report, m: &SessionMetrics, specs: &[SessionSpec]) {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0);
    let binned: f64 = m.egress_bins_bytes.iter().sum();
    report.tally.check(close(binned, m.origin_bytes_total), || {
        format!(
            "egress bins sum to {binned}, origin bytes are {}",
            m.origin_bytes_total
        )
    });
    let durations: f64 = specs.iter().map(|s| s.duration_secs).sum();
    report.tally.check(close(m.viewer_seconds, durations), || {
        format!(
            "viewer-seconds {} differ from summed durations {durations}",
            m.viewer_seconds
        )
    });
}

/// The cache and estimator hooks of a session run, as `SessionWorker`
/// wires them, timed from the outside.
struct TimedHooks<'a> {
    cache: &'a mut CacheEngine<Box<dyn UtilityPolicy + Send + Sync>>,
    estimators: &'a mut EstimatorBank,
    provider: &'a BandwidthProvider,
    metas: &'a [ObjectMeta],
    /// Wall time inside the hooks, engine access included.
    hook_secs: f64,
    access_calls: u64,
    access_secs: f64,
}

impl SessionHooks for TimedHooks<'_> {
    fn on_arrival(&mut self, _index: usize, spec: &SessionSpec, share_bps: f64) -> f64 {
        let entered = Instant::now();
        let path = spec.path as usize;
        let oracle = self.provider.estimated_bps(path);
        let estimated = self.estimators.decision_bps(path, oracle, share_bps);
        let accessed = Instant::now();
        let outcome = self
            .cache
            .on_access_slot(spec.path, &self.metas[path], estimated);
        let done = Instant::now();
        self.access_calls += 1;
        self.access_secs += (done - accessed).as_secs_f64();
        self.hook_secs += (done - entered).as_secs_f64();
        outcome.cached_bytes_before
    }

    fn on_transfer_complete(&mut self, _index: usize, spec: &SessionSpec, throughput_bps: f64) {
        let entered = Instant::now();
        self.estimators
            .observe_transfer(spec.path as usize, throughput_bps);
        self.hook_secs += entered.elapsed().as_secs_f64();
    }
}

/// Rebuilds one `SessionWorker::run` from public pieces with every layer
/// boundary timed, records the per-layer metrics and spans, and returns
/// the run's metrics.
fn traced_run(
    report: &mut Report,
    spans: &mut Trace,
    config: &SimulationConfig,
    seed: u64,
) -> SessionMetrics {
    let origin = Instant::now();
    let at = |t: Instant| (t - origin).as_secs_f64();
    let shared = SharedWorkload::generate(&config.workload, seed).expect("valid workload");
    let generated = Instant::now();
    let specs = specs(&shared);
    let provider = provider(config, &shared, seed);
    let provided = Instant::now();
    let faults = timeline(config, &shared, &specs, seed);
    let timed = Instant::now();
    let n = shared.catalog.len();
    let mut estimators = EstimatorBank::new(config.estimator, n);
    let mut cache =
        CacheEngine::new(config.cache_size_bytes, config.policy.build()).expect("valid capacity");
    cache.ensure_slots(n);
    let mut hooks = TimedHooks {
        cache: &mut cache,
        estimators: &mut estimators,
        provider: &provider,
        metas: shared.metas(),
        hook_secs: 0.0,
        access_calls: 0,
        access_secs: 0.0,
    };
    let (capacity_calls, capacity_secs) = (Cell::new(0u64), Cell::new(0.0f64));
    let started = Instant::now();
    let out = simulate_sessions_with_faults(
        &specs,
        n,
        |path, time| {
            let entered = Instant::now();
            let c = provider.capacity_bps(path, time);
            capacity_calls.set(capacity_calls.get() + 1);
            capacity_secs.set(capacity_secs.get() + entered.elapsed().as_secs_f64());
            c
        },
        &mut hooks,
        config.session_egress_bins,
        Some(&faults),
    );
    let finished = Instant::now();
    let wall = (finished - started).as_secs_f64();

    spans.push(0, "run", "", 0.0, at(finished));
    spans.push(0, "workload.generate", "run", 0.0, at(generated));
    spans.push(
        0,
        "netmodel.provider_generate",
        "run",
        at(generated),
        at(provided),
    );
    spans.push(0, "session.fault_timeline", "run", at(provided), at(timed));
    spans.push(0, "session.simulate", "run", at(started), at(finished));

    let edges: usize = (0..n).map(|p| 2 * faults.outages(p).len()).sum();
    let transferring = out
        .finals
        .iter()
        .filter(|f| f.downloaded_bytes > 0.0)
        .count();
    report.set("workload.generate_s", (generated - origin).as_secs_f64());
    report.set(
        "netmodel.provider_generate_s",
        (provided - generated).as_secs_f64(),
    );
    report.set("session.fault_timeline_s", (timed - provided).as_secs_f64());
    report.set(
        "session.core_self_s",
        wall - hooks.hook_secs - capacity_secs.get(),
    );
    report.set(
        "session.events",
        (2 * specs.len() + transferring + edges) as f64,
    );
    report.set("session.outage_edges", edges as f64);
    report.set(
        "session.peak_viewers",
        out.metrics.peak_concurrent_viewers as f64,
    );
    report.set("netmodel.capacity_calls", capacity_calls.get() as f64);
    report.set("netmodel.capacity_s", capacity_secs.get());
    report.set("engine.on_access_calls", hooks.access_calls as f64);
    report.set("engine.on_access_s", hooks.access_secs);
    report.set("engine.evictions", cache.stats().evictions as f64);
    report.set(
        "cache.traffic_reduction",
        out.metrics.traffic_reduction_ratio,
    );
    check_conservation(report, &out.metrics, &specs);
    out.metrics
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let config = config();

    // Set-up: the run's inputs, generated several times.
    let seeds: Vec<u64> = (0..INPUTS).map(|k| input_seed(seed, k)).collect();
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        inputs = seeds
            .iter()
            .map(|&seed| {
                let workload =
                    SharedWorkload::generate(&config.workload, seed).expect("valid workload");
                let specs = specs(&workload);
                std::hint::black_box((
                    provider(&config, &workload, seed),
                    timeline(&config, &workload, &specs, seed),
                ));
                (Arc::new(workload), specs)
            })
            .collect();
        setups.push(started.elapsed().as_secs_f64());
    }
    report.set("setup_s", stats::median(&setups));

    let workers: Vec<SessionWorker> = seeds
        .iter()
        .zip(&inputs)
        .map(|(&seed, (shared, _))| SessionWorker::with_workload(config, seed, Arc::clone(shared)))
        .collect();
    // The inputs take turns; the traced run makes one untraced run of the
    // first input to compare with.
    let mut walls: Vec<Vec<f64>> = vec![Vec::new(); workers.len()];
    let mut firsts: Vec<Option<String>> = vec![None; workers.len()];
    let measuring = Instant::now();
    for k in (0..workers.len()).cycle() {
        let started = Instant::now();
        let result = workers[k].run();
        walls[k].push(started.elapsed().as_secs_f64());
        let outcome = result
            .map_err(|e| format!("simulation run: {e}"))
            .and_then(|r| {
                // Debug formatting prints every float in its shortest exact
                // form, so equal strings mean bitwise-equal metrics.
                let repr = format!("{:?}", r.metrics);
                match &firsts[k] {
                    None => {
                        check_conservation(&mut report, &r.metrics, &inputs[k].1);
                        firsts[k] = Some(repr);
                        Ok(())
                    }
                    Some(f) if *f == repr => Ok(()),
                    Some(_) => Err("a repeated run's metrics differ from the first run's".into()),
                }
            });
        report.tally.record(&outcome);
        let enough = walls.iter().all(|w| w.len() >= MIN_RUNS)
            && measuring.elapsed().as_secs_f64() >= seconds;
        if trace || enough {
            break;
        }
    }
    // Each input's median run, summed over the inputs that ran.
    let ran: Vec<usize> = (0..walls.len()).filter(|&k| !walls[k].is_empty()).collect();
    let secs: f64 = ran.iter().map(|&k| stats::median(&walls[k])).sum();
    let sessions: usize = ran.iter().map(|&k| inputs[k].1.len()).sum();
    report.set("throughput_per_s", sessions as f64 / secs);
    // A few runs per input support no tail percentile; the tail falls back
    // to the median.
    let per_run_ms = secs / ran.len() as f64 * 1e3;
    report.set("delay_p50_ms", per_run_ms);
    report.set("delay_tail_ms", per_run_ms);

    if trace {
        let mut spans = Trace::default();
        let started = Instant::now();
        let traced = traced_run(&mut report, &mut spans, &config, seeds[0]);
        let traced_secs = started.elapsed().as_secs_f64();
        let outcome = match &firsts[0] {
            Some(f) if *f == format!("{traced:?}") => Ok(()),
            _ => Err("the traced run's metrics differ from SessionWorker::run's".to_string()),
        };
        report.tally.record(&outcome);
        // The traced run also generates its workload, which the untraced
        // run was handed ready-made.
        let generate = report
            .metrics
            .get("workload.generate_s")
            .copied()
            .unwrap_or(0.0);
        report.set(
            "trace.overhead_us",
            (traced_secs - generate - walls[0][0]) * 1e6,
        );
        report.set("trace.spans", spans.len() as f64);
        let written = spans.write("sim_sessions", seed);
        report.tally.check(written.is_ok(), || {
            format!("writing the trace: {:?}", written.err())
        });
    }
    report
}
