//! `proxy_joint`: the paper's scenario, joint cache/origin delivery.
//!
//! The default proxy configuration (PB policy, one engine shard per
//! worker) in front of an origin whose per-connection rate is half the
//! objects' bit-rate, with a cache of a fifth of the catalog's bytes.
//! Zipf-popular requests arrive open-loop; the first half of the requests
//! warms the cache, sent back to back, and the second half is measured.
//! Every request opens the origin, relays a tail through the ring, retains
//! part of it, feeds the estimator and commits an engine decision, so this
//! workload writes where `proxy_hit` only reads.
//!
//! The objects keep the `clip-<i>` names and the proxy its default
//! sharding: `engine.fill_ratio` shows how much of the capacity the shard
//! routing lets the cache use.

use crate::client::{self, Fetch, Record};
use crate::loadgen::{poisson_dues, run_open_loop};
use crate::stats;
use crate::{client_threads, Report};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sc_proxy::{CachingProxy, ObjectSpec, OriginConfig, OriginServer, ProxyConfig};
use sc_workload::ZipfLike;
use std::time::Instant;

const OBJECTS: usize = 512;
const OBJECT_BYTES: u64 = 64 * 1024;
/// Object bit-rate: 8 MB/s, twice the origin path rate, so PB keeps half
/// of each admitted object.
const BITRATE_BPS: f64 = 8e6;
/// Per-connection origin rate: the constrained path.
const PATH_BPS: f64 = 4e6;
/// Cache capacity as a share of catalog bytes.
const CACHE_SHARE: f64 = 0.2;
/// Popularity skew of the paper's workload.
const ZIPF_ALPHA: f64 = 0.73;
/// Offered rate. Each request holds a client connection for 8–16 ms, so
/// at this rate one arrival in twenty finds both connections busy and
/// waits. At 50/s one in five waited: the p90 then read the load
/// generator's own queue, and a slow spell of the host, lengthening every
/// hold, moved it by a third between runs of the same seed.
const RATE_PER_S: f64 = 20.0;
/// Block length of the delay tail: 200 requests, ten seconds of arrivals,
/// support a p90 with twenty samples beyond it.
const TAIL_BLOCK: usize = 200;
/// Proxy starts per run; the median start time is reported.
const SETUP_REPEATS: usize = 3;
/// Every request whose index is a multiple of this has its payload
/// verified byte for byte, after its timestamps are taken; every warm-up
/// byte is verified.
const VERIFY_EVERY: usize = 16;

/// The delay a viewer sees: startup delay counted from the due time.
fn startup(f: &Fetch) -> f64 {
    f.startup_secs
}

fn capacity_bytes() -> f64 {
    CACHE_SHARE * (OBJECTS as u64 * OBJECT_BYTES) as f64
}

struct Bed {
    // Field order is drop order: the proxy stops before its origin.
    proxy: CachingProxy,
    _origin: OriginServer,
}

fn start(names: &[String]) -> Result<Bed, String> {
    let origin = OriginServer::start(OriginConfig {
        objects: names
            .iter()
            .map(|n| ObjectSpec::new(n.clone(), OBJECT_BYTES, BITRATE_BPS))
            .collect(),
        rate_limit_bps: PATH_BPS,
    })
    .map_err(|e| format!("origin start: {e}"))?;
    let proxy = CachingProxy::start(ProxyConfig::new(origin.addr(), capacity_bytes()))
        .map_err(|e| format!("proxy start: {e}"))?;
    Ok(Bed {
        proxy,
        _origin: origin,
    })
}

/// The catalog's names and who asks for what.
struct Demand {
    names: Vec<String>,
    popularity: ZipfLike,
    /// Catalog index of the object at each popularity rank (rank 1 first).
    by_rank: Vec<usize>,
}

impl Demand {
    /// The catalog, with the rank of each object drawn from `rng`.
    fn new(rng: &mut StdRng) -> Demand {
        let mut by_rank: Vec<usize> = (0..OBJECTS).collect();
        for i in (1..OBJECTS).rev() {
            by_rank.swap(i, rng.gen_range(0..=i));
        }
        Demand {
            names: (0..OBJECTS).map(|i| format!("clip-{i}")).collect(),
            popularity: ZipfLike::new(OBJECTS, ZIPF_ALPHA).expect("valid Zipf parameters"),
            by_rank,
        }
    }

    /// Sends `count` requests for Zipf-popular objects to `bed`: Poisson
    /// arrivals when `paced`, otherwise back to back with every byte
    /// verified.
    fn send(
        &self,
        bed: &Bed,
        rng: &mut StdRng,
        count: usize,
        paced: bool,
        trace: bool,
    ) -> Vec<Record> {
        let verify_all = !paced;
        let dues = if paced {
            poisson_dues(rng, RATE_PER_S, count)
        } else {
            vec![0.0; count]
        };
        let picks: Vec<&str> = (0..count)
            .map(|_| self.names[self.by_rank[self.popularity.sample(rng) - 1]].as_str())
            .collect();
        let addr = bed.proxy.addr();
        run_open_loop(&dues, client_threads(), |i, due| {
            let mut buf = vec![0u8; OBJECT_BYTES as usize];
            let verify = verify_all || i % VERIFY_EVERY == 0;
            client::get(
                addr,
                picks[i],
                due,
                OBJECT_BYTES,
                verify,
                trace && client::traced(i),
                &mut buf,
            )
        })
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Report {
    let mut report = Report::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let demand = Demand::new(&mut rng);
    let count = (RATE_PER_S * seconds).round().max(1.0) as usize;

    let mut starts = Vec::with_capacity(SETUP_REPEATS);
    let mut bed = None;
    for _ in 0..SETUP_REPEATS {
        drop(bed.take());
        let started = Instant::now();
        match start(&demand.names) {
            Ok(b) => bed = Some(b),
            Err(e) => {
                report.tally.record(&Err::<(), _>(e));
                return report;
            }
        }
        starts.push(started.elapsed().as_secs_f64());
    }
    let bed = bed.expect("at least one start ran");

    // Warm-up: the first half of the requests, back to back, every byte
    // verified. The cache's state depends on the order of the requests,
    // not on their pace.
    let warm_started = Instant::now();
    let warm = demand.send(&bed, &mut rng, count, false, false);
    for r in &warm {
        report.tally.record(&r.out);
    }
    report.set(
        "setup_s",
        stats::median(&starts) + warm_started.elapsed().as_secs_f64(),
    );

    let before = bed.proxy.stats();
    let measured_started = Instant::now();
    let records = demand.send(&bed, &mut rng, count, true, trace);
    let measured_secs = measured_started.elapsed().as_secs_f64();
    let after = bed.proxy.stats();
    let mut completed = 0;
    for r in &records {
        report.tally.record(&r.out);
        completed += u64::from(r.out.is_ok());
    }
    client::check_count(&mut report, &before, &after, completed);
    client::check_contents(&mut report, &bed.proxy, capacity_bytes());
    report.set("throughput_per_s", completed as f64 / measured_secs);
    let (p50, mean, tail) =
        client::delays(&records, startup, TAIL_BLOCK).unwrap_or((f64::NAN, f64::NAN, f64::NAN));
    report.set("delay_p50_ms", p50 * 1e3);
    report.set("delay_tail_ms", tail * 1e3);

    if trace {
        report.set("proxy.startup_mean_ms", mean * 1e3);
        report.set(
            "netmodel.estimate_ratio",
            after.estimated_origin_bps / PATH_BPS,
        );
        client::layer_metrics(&mut report, &after, &before, &records, startup);
        client::finish_trace(&mut report, &records, "proxy_joint", seed);
    }
    report
}
