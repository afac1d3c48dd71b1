//! The caching proxy: prefix caching plus joint cache/origin delivery.
//!
//! The request path is built for throughput (see `ARCHITECTURE.md`, "Proxy
//! data path"): a fixed worker pool drains a bounded accept queue, origin
//! connections are bounded by a counting semaphore, the origin tail streams
//! through a fixed-size reusable chunk ring (retaining only the prefix the
//! policy may admit, never the whole object), and the cached bytes live in
//! a slot-indexed [`SlotTable`] inside each engine shard, reconciled from
//! the shard's O(changes) delta log under the shard's own lock.
//!
//! A request runs in named stages: [`parse`] → [`lookup`] (one shard
//! lock) → [`open`] (the origin, if the prefix does not cover the object)
//! → [`relay`] (header, prefix, then the origin tail through the ring) →
//! [`commit`] (the estimator, then one shard lock for the engine decision
//! and the table update).
//!
//! On top of that sits the overload layer (see `ARCHITECTURE.md`,
//! "Overload & admission control"): queued connections carry enqueue
//! timestamps and are shed with `BUSY` once their wait blows
//! [`ProxyConfig::queue_deadline`], an optional in-flight cap sheds
//! drop-oldest at admission, client sockets get per-write timeouts and an
//! optional per-client token bucket so a slow reader cannot pin a worker,
//! and the `STATS` verb dumps every counter as one JSON line.

use crate::content::verify_content;
use crate::error::ProxyError;
use crate::pool::{AcceptQueue, InFlightSlot, OriginBudget, OriginPermit, PushOutcome};
use crate::protocol::{
    read_command, read_response, write_request, write_response, Command, Request, Response,
};
use crate::ratelimit::RateLimiter;
use crate::retry::{BreakerConfig, BreakerState, CircuitBreaker, RetryPolicy};
use crate::table::{Object, SlotTable};
use bytes::Bytes;
use parking_lot::Mutex;
use sc_cache::fx::FxHasher;
use sc_cache::policy::{PolicyKind, UtilityPolicy};
use sc_cache::{ObjectKey, ObjectMeta, ShardedEngine};
use sc_netmodel::{BandwidthEstimator, EwmaEstimator};
use std::hash::Hasher as _;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Size of each worker's reusable relay chunk buffer (the "ring"): origin
/// tails stream through this fixed window, so relay memory per request is
/// `RING_BYTES` plus whatever prefix the policy may admit — never the whole
/// object.
const RING_BYTES: usize = 64 * 1024;

/// Safety margin on the conservative bandwidth lower bound used to size the
/// tail-retention buffer: the retention cap is computed as the policy
/// target at 90% of the bound, so estimator movement during the transfer
/// cannot strand the stored prefix short of the engine's eventual grant.
const RETAIN_BANDWIDTH_SLACK: f64 = 0.9;

/// Configuration of the caching proxy.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Address of the origin server to fetch misses from.
    pub origin_addr: SocketAddr,
    /// Cache capacity in bytes.
    pub cache_capacity_bytes: f64,
    /// The cache-management policy (PB by default).
    pub policy: PolicyKind,
    /// Bandwidth assumed towards the origin before any transfer has been
    /// observed (bytes per second). Subsequent transfers feed an EWMA
    /// estimator (passive measurement, Section 2.7 of the paper).
    pub assumed_origin_bps: f64,
    /// Number of request-handler threads in the worker pool (must be ≥ 1).
    pub worker_threads: usize,
    /// Capacity of the bounded accept queue between the accept thread and
    /// the workers (must be ≥ 1). A full queue blocks the accept thread,
    /// pushing backpressure into the OS listen backlog.
    pub accept_queue_len: usize,
    /// Maximum concurrent connections to the origin server (0 = unlimited).
    pub max_origin_connections: usize,
    /// Number of independent cache-engine shards (0 = one per worker
    /// thread). Each shard has its own lock, utility heap and byte budget
    /// (the capacity is split evenly), so workers serving objects that hash
    /// to different shards never contend on the cache. `1` reproduces the
    /// single-engine proxy exactly.
    pub engine_shards: usize,
    /// Per-attempt timeout for dialing the origin (must be non-zero).
    pub connect_timeout: Duration,
    /// Per-read timeout on origin sockets (must be non-zero): a stalled
    /// "slow-loris" origin surfaces as a read error instead of wedging a
    /// worker, and the resilient path reconnects mid-stream.
    pub origin_read_timeout: Duration,
    /// Retry/backoff bounds for origin opens (attempts, pauses and the
    /// total deadline budget; see [`RetryPolicy`]).
    pub retry: RetryPolicy,
    /// Circuit-breaker thresholds for the origin path (see
    /// [`BreakerConfig`]; a zero failure threshold disables the breaker).
    pub breaker: BreakerConfig,
    /// Maximum time a connection may sit in the accept queue before a
    /// worker picks it up. A request whose queue wait exceeded this is
    /// already past its latency budget, so the worker sheds it with a
    /// `BUSY <retry-after-ms>` answer instead of serving a response
    /// nobody is waiting for. `Duration::ZERO` disables the deadline.
    pub queue_deadline: Duration,
    /// Hard cap on admitted requests in flight (queued plus being
    /// handled); 0 = unbounded. At the cap, admission sheds deterministic
    /// drop-oldest: the oldest queued connection is answered `BUSY` to
    /// admit the newcomer (the newest arrival is the one most likely to
    /// still be listening), and with nothing queued the newcomer itself
    /// is shed.
    pub max_in_flight: usize,
    /// Per-write timeout on client sockets. A stalled or wedged reader
    /// turns into a write error after at most this long, counted in
    /// `client_timeouts`, instead of pinning a worker indefinitely.
    /// `Duration::ZERO` disables the timeout.
    pub client_write_timeout: Duration,
    /// Per-client token-bucket rate limit in bytes per second (0 =
    /// unlimited): bounds how fast any single client may drain the proxy,
    /// so one greedy reader cannot starve the pool.
    pub client_rate_limit_bps: f64,
}

impl ProxyConfig {
    /// A PB-policy proxy in front of `origin_addr` with the given capacity.
    pub fn new(origin_addr: SocketAddr, cache_capacity_bytes: f64) -> Self {
        ProxyConfig {
            origin_addr,
            cache_capacity_bytes,
            policy: PolicyKind::PartialBandwidth,
            assumed_origin_bps: 64_000.0,
            worker_threads: 8,
            accept_queue_len: 1024,
            max_origin_connections: 32,
            engine_shards: 0,
            connect_timeout: Duration::from_secs(1),
            origin_read_timeout: Duration::from_secs(5),
            retry: RetryPolicy::default(),
            breaker: BreakerConfig::default(),
            queue_deadline: Duration::from_secs(30),
            max_in_flight: 0,
            client_write_timeout: Duration::from_secs(10),
            client_rate_limit_bps: 0.0,
        }
    }

    /// The retry pause suggested with a `BUSY` answer: half the queue
    /// deadline (clamped to at least 1 ms), so a retrying client lands
    /// when roughly half of today's backlog has drained. With the
    /// deadline disabled (cap-driven sheds only) a flat 100 ms is used.
    fn busy_retry_after_ms(&self) -> u64 {
        if self.queue_deadline.is_zero() {
            return 100;
        }
        (self.queue_deadline.as_millis() as u64 / 2).max(1)
    }
}

/// Per-proxy cache statistics exposed for observability and tests.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProxyStats {
    /// Requests handled.
    pub requests: u64,
    /// Bytes served to clients straight from cached prefixes.
    pub bytes_from_cache: u64,
    /// Bytes relayed from the origin server.
    pub bytes_from_origin: u64,
    /// Current number of objects with a cached prefix.
    pub cached_objects: usize,
    /// Current bytes held in cached prefixes.
    pub cached_bytes: u64,
    /// Latest estimate of the origin-path bandwidth in bytes per second.
    pub estimated_origin_bps: f64,
    /// Largest tail-retention buffer any single request has resided in
    /// memory. Together with the fixed per-worker relay ring
    /// (`RING_BYTES`), this bounds per-request memory: it tracks the prefix
    /// the policy could admit, not the object size.
    pub peak_tail_bytes: u64,
    /// Origin connection attempts made after a failed one (retries within
    /// one open, across all requests).
    pub origin_retries: u64,
    /// Mid-stream reconnects that successfully resumed a transfer after a
    /// reset, truncation or stall.
    pub origin_resumes: u64,
    /// Cumulative backoff time slept before origin retries, in
    /// microseconds.
    pub origin_backoff_micros: u64,
    /// Circuit-breaker state transitions since the proxy started.
    pub breaker_transitions: u64,
    /// Requests served *degraded*: the origin was unavailable and the
    /// response carried only the policy-cached prefix, flagged on the wire.
    pub degraded_hits: u64,
    /// Requests shed under overload with a `BUSY` answer: in-flight-cap
    /// evictions at admission plus queue-deadline misses in the workers.
    pub shed_requests: u64,
    /// Cumulative accept-queue wait over all dequeued connections, in
    /// microseconds (shed or served alike).
    pub queue_wait_micros: u64,
    /// High-water mark of the accept-queue depth (connections waiting for
    /// a worker, excluding those already being handled).
    pub peak_queue_depth: u64,
    /// Client connections dropped because a write to them timed out: the
    /// reader was too slow (or gone) and holding on would pin a worker.
    pub client_timeouts: u64,
}

impl ProxyStats {
    /// The stats as one line of hand-rolled JSON — the payload of the
    /// `STATS` protocol verb, so load tests and operators can scrape
    /// counters without process introspection.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"bytes_from_cache\": {}, \"bytes_from_origin\": {}, \
             \"cached_objects\": {}, \"cached_bytes\": {}, \"estimated_origin_bps\": {}, \
             \"peak_tail_bytes\": {}, \"origin_retries\": {}, \"origin_resumes\": {}, \
             \"origin_backoff_micros\": {}, \"breaker_transitions\": {}, \
             \"degraded_hits\": {}, \"shed_requests\": {}, \"queue_wait_micros\": {}, \
             \"peak_queue_depth\": {}, \"client_timeouts\": {}}}",
            self.requests,
            self.bytes_from_cache,
            self.bytes_from_origin,
            self.cached_objects,
            self.cached_bytes,
            self.estimated_origin_bps,
            self.peak_tail_bytes,
            self.origin_retries,
            self.origin_resumes,
            self.origin_backoff_micros,
            self.breaker_transitions,
            self.degraded_hits,
            self.shed_requests,
            self.queue_wait_micros,
            self.peak_queue_depth,
            self.client_timeouts,
        )
    }
}

#[derive(Debug)]
struct ProxyState {
    config: ProxyConfig,
    /// N-way sharded cache engine: requests for objects in different shards
    /// take different locks, so the cache decision is no longer a global
    /// serialization point across the worker pool. Each shard's
    /// [`SlotTable`] — names, metadata and prefix bytes, indexed by the
    /// shard's slot handles — lives under that shard's lock.
    engine: ShardedEngine<Box<dyn UtilityPolicy + Send + Sync>, SlotTable>,
    estimator: Mutex<EwmaEstimator>,
    /// The accept queue, shared with the accept thread and workers: it is
    /// part of the state so both the stats snapshot and the `STATS` verb
    /// can read the shed/wait/depth counters it maintains.
    queue: Arc<AcceptQueue>,
    origin_budget: OriginBudget,
    /// Per-origin circuit breaker guarding every dial-out.
    breaker: CircuitBreaker,
    /// Monotonic nonce decorrelating concurrent requests' backoff jitter.
    open_nonce: AtomicU64,
    /// Hot request counters, updated lock-free with relaxed atomics (the
    /// per-request stats critical section is gone).
    requests: AtomicU64,
    bytes_from_cache: AtomicU64,
    bytes_from_origin: AtomicU64,
    peak_tail_bytes: AtomicU64,
    origin_retries: AtomicU64,
    origin_resumes: AtomicU64,
    origin_backoff_micros: AtomicU64,
    degraded_hits: AtomicU64,
    client_timeouts: AtomicU64,
}

impl ProxyState {
    /// A consistent-enough snapshot of every counter: the hot counters are
    /// read lock-free; the cached totals take each shard lock once and the
    /// estimator its own. Used both by [`CachingProxy::stats`] and the
    /// `STATS` verb.
    fn snapshot(&self) -> ProxyStats {
        let (cached_objects, cached_bytes) = (0..self.engine.shard_count())
            .map(|i| {
                self.engine
                    .with_shard_index(i, |_, table| (table.objects(), table.bytes()))
            })
            .fold((0, 0), |(n, b), (tn, tb)| (n + tn, b + tb));
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            bytes_from_cache: self.bytes_from_cache.load(Ordering::Relaxed),
            bytes_from_origin: self.bytes_from_origin.load(Ordering::Relaxed),
            cached_objects,
            cached_bytes,
            estimated_origin_bps: self
                .estimator
                .lock()
                .estimate_bps()
                .unwrap_or(self.config.assumed_origin_bps),
            peak_tail_bytes: self.peak_tail_bytes.load(Ordering::Relaxed),
            origin_retries: self.origin_retries.load(Ordering::Relaxed),
            origin_resumes: self.origin_resumes.load(Ordering::Relaxed),
            origin_backoff_micros: self.origin_backoff_micros.load(Ordering::Relaxed),
            breaker_transitions: self.breaker.transitions(),
            degraded_hits: self.degraded_hits.load(Ordering::Relaxed),
            shed_requests: self.queue.shed_count(),
            queue_wait_micros: self.queue.total_wait_micros(),
            peak_queue_depth: self.queue.peak_depth(),
            client_timeouts: self.client_timeouts.load(Ordering::Relaxed),
        }
    }
}

/// A running caching proxy backed by a fixed worker pool.
///
/// The proxy serves whatever prefix of the requested object it holds at
/// LAN speed, streams the remainder from the origin over the (rate-limited)
/// WAN path through a fixed-size relay ring, updates its bandwidth estimate
/// from the observed origin throughput, and lets the configured
/// [`PolicyKind`] decide how large a prefix of the object to retain.
/// Shutdown is graceful: queued and in-flight requests are drained before
/// the workers exit.
#[derive(Debug)]
pub struct CachingProxy {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    state: Arc<ProxyState>,
}

impl CachingProxy {
    /// Binds to an ephemeral localhost port, spawns the worker pool and
    /// starts accepting clients.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InvalidConfig`] for a negative capacity, a
    /// zero-sized worker pool or accept queue, and [`ProxyError::Io`] if
    /// binding fails.
    pub fn start(config: ProxyConfig) -> Result<Self, ProxyError> {
        if config.worker_threads == 0 {
            return Err(ProxyError::InvalidConfig(
                "worker_threads",
                "the worker pool needs at least one thread".into(),
            ));
        }
        if config.accept_queue_len == 0 {
            return Err(ProxyError::InvalidConfig(
                "accept_queue_len",
                "the accept queue needs a non-zero capacity".into(),
            ));
        }
        if config.connect_timeout.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "connect_timeout",
                "origin dials need a non-zero timeout".into(),
            ));
        }
        if config.origin_read_timeout.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "origin_read_timeout",
                "origin reads need a non-zero timeout".into(),
            ));
        }
        if config.retry.max_attempts == 0 {
            return Err(ProxyError::InvalidConfig(
                "retry.max_attempts",
                "at least one origin attempt is required".into(),
            ));
        }
        if config.retry.deadline.is_zero() {
            return Err(ProxyError::InvalidConfig(
                "retry.deadline",
                "the retry deadline budget must be non-zero".into(),
            ));
        }
        if config.client_rate_limit_bps.is_nan() {
            return Err(ProxyError::InvalidConfig(
                "client_rate_limit_bps",
                "the client rate limit must be a number (0 disables it)".into(),
            ));
        }
        let shards = if config.engine_shards == 0 {
            config.worker_threads
        } else {
            config.engine_shards
        };
        let engine = ShardedEngine::with_tables(config.cache_capacity_bytes, shards, || {
            config.policy.build()
        })
        .map_err(|e| ProxyError::InvalidConfig("cache_capacity_bytes", e.to_string()))?;
        // The proxy reconciles its slot tables from the engine's delta log;
        // the simulator (which shares the engine) leaves tracking off.
        engine.set_delta_tracking(true);
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let queue = Arc::new(AcceptQueue::new(
            config.accept_queue_len,
            config.max_in_flight,
        ));
        let state = Arc::new(ProxyState {
            engine,
            estimator: Mutex::new(EwmaEstimator::new(0.3)),
            queue: Arc::clone(&queue),
            origin_budget: OriginBudget::new(config.max_origin_connections),
            breaker: CircuitBreaker::new(config.breaker),
            open_nonce: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            bytes_from_cache: AtomicU64::new(0),
            bytes_from_origin: AtomicU64::new(0),
            peak_tail_bytes: AtomicU64::new(0),
            origin_retries: AtomicU64::new(0),
            origin_resumes: AtomicU64::new(0),
            origin_backoff_micros: AtomicU64::new(0),
            degraded_hits: AtomicU64::new(0),
            client_timeouts: AtomicU64::new(0),
            config,
        });

        let workers = (0..state.config.worker_threads)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || {
                    let mut scratch = WorkerScratch::new(state.config.policy);
                    while let Some(conn) = state.queue.pop() {
                        let _slot = InFlightSlot::new(&state.queue);
                        let wait = conn.enqueued_at.elapsed();
                        state.queue.record_wait(wait);
                        let deadline = state.config.queue_deadline;
                        if !deadline.is_zero() && wait > deadline {
                            // The client has waited past its latency
                            // budget: shedding now is cheaper for both
                            // sides than serving a stale request.
                            state.queue.record_shed();
                            shed_with_busy(conn.stream, state.config.busy_retry_after_ms());
                            continue;
                        }
                        let _ = handle_client(conn.stream, &state, &mut scratch);
                    }
                })
            })
            .collect();

        let accept_state = Arc::clone(&state);
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        let retry_after = accept_state.config.busy_retry_after_ms();
                        match accept_state.queue.push(stream) {
                            PushOutcome::Closed => break,
                            PushOutcome::Queued { shed } => {
                                if let Some(old) = shed {
                                    shed_with_busy(old.stream, retry_after);
                                }
                            }
                            PushOutcome::ShedIncoming(stream) => {
                                shed_with_busy(stream, retry_after);
                            }
                        }
                    }
                    Err(_) => break,
                }
            }
            // If the accept loop dies, let the workers drain and park
            // rather than wait forever on a queue nobody fills.
            accept_state.queue.close();
        });
        Ok(CachingProxy {
            addr,
            shutdown,
            accept_thread: Some(accept_thread),
            workers,
            state,
        })
    }

    /// The address streaming clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A snapshot of the proxy's statistics. The hot counters are read
    /// lock-free; the cached totals and the estimator take locks.
    pub fn stats(&self) -> ProxyStats {
        self.state.snapshot()
    }

    /// Current state of the origin circuit breaker.
    pub fn breaker_state(&self) -> BreakerState {
        self.state.breaker.state()
    }

    /// Number of cache-engine shards this proxy is running with.
    pub fn engine_shards(&self) -> usize {
        self.state.engine.shard_count()
    }

    /// Bytes of `name` currently cached.
    pub fn cached_prefix_len(&self, name: &str) -> usize {
        lookup(&self.state, key_for(name), name).map_or(0, |object| object.prefix.len())
    }

    /// Snapshot of the cached objects as `(name, engine_bytes,
    /// store_bytes)` triples, in unspecified order — the engine's granted
    /// allocation next to the prefix bytes the proxy actually holds, for
    /// observability and byte-accounting tests.
    pub fn contents(&self) -> Vec<(String, f64, usize)> {
        let mut all = Vec::new();
        for shard in 0..self.state.engine.shard_count() {
            self.state.engine.with_shard_index(shard, |engine, table| {
                all.extend(engine.contents().into_iter().map(|(key, granted)| {
                    match engine.slot_of(key).and_then(|slot| table.get(slot)) {
                        Some(entry) => (entry.name.clone(), granted, entry.object.prefix.len()),
                        None => (String::new(), granted, 0),
                    }
                }));
            });
        }
        all
    }

    /// Requests shutdown, drains queued and in-flight requests, and joins
    /// the accept thread and every worker.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Refuse new connections (this also unblocks an accept thread stuck
        // on a full queue), then nudge the accept loop awake.
        self.state.queue.close();
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // Workers drain whatever was queued before the close, then exit.
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for CachingProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Per-worker reusable buffers and a private policy instance: everything a
/// request needs that should not be reallocated per request or fetched
/// under a shared lock.
struct WorkerScratch {
    /// Fixed-size relay ring: every origin chunk passes through here.
    chunk: Vec<u8>,
    /// Tail-retention buffer, capped at the prefix the policy may admit.
    retained: Vec<u8>,
    /// Stateless policy clone used to size the retention cap without
    /// touching the engine lock from the relay loop.
    policy: Box<dyn UtilityPolicy + Send + Sync>,
}

impl WorkerScratch {
    fn new(policy: PolicyKind) -> Self {
        WorkerScratch {
            chunk: vec![0u8; RING_BYTES],
            retained: Vec::new(),
            policy: policy.build(),
        }
    }
}

/// Stable mapping from object names to cache keys: the same Fx mix the
/// engine's key→slot interning map uses (`sc_cache::fx`), applied to the
/// name bytes. Keys only need to be stable within one proxy process.
fn key_for(name: &str) -> ObjectKey {
    let mut hasher = FxHasher::default();
    hasher.write(name.as_bytes());
    ObjectKey::new(hasher.finish())
}

/// Tail bytes worth retaining for the cache, given the conservative
/// bandwidth lower bound `b_lo`: the policy's target allocation at
/// slightly-below `b_lo`, minus the prefix already stored. Policy targets
/// are non-increasing in bandwidth and this request's own observation
/// lands the EWMA between the prior estimate and the observed throughput,
/// so a cap computed from a running minimum of those two quantities covers
/// the engine's eventual grant in the common case. It is best-effort, not
/// a guarantee: an origin stall after retention already stopped, or
/// concurrent transfers dragging the shared estimator lower, can leave the
/// grant larger than what was retained. The [`commit`] stage then stores
/// only the bytes in hand (stored bytes never exceed the grant — the
/// tolerated direction of drift) and the prefix catches up on the object's
/// next request, which fetches from the shorter stored offset.
fn retain_cap(
    policy: &(dyn UtilityPolicy + Send + Sync),
    meta: &ObjectMeta,
    b_lo: f64,
    prefix_bytes: usize,
) -> usize {
    let size = meta.size_bytes();
    let target = policy
        .target_bytes(meta, (b_lo * RETAIN_BANDWIDTH_SLACK).max(0.0))
        .clamp(0.0, size);
    (target.ceil() as usize).saturating_sub(prefix_bytes)
}

/// Answers a shed connection with `BUSY <retry-after-ms>` and closes it.
/// The write is bounded by a short timeout (and errors are ignored): a
/// peer that is already gone or wedged must not pin the shedding thread.
fn shed_with_busy(stream: TcpStream, retry_after_ms: u64) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let mut writer = BufWriter::new(stream);
    let _ = write_response(&mut writer, &Response::Busy { retry_after_ms });
}

/// Classifies a failed client-socket write: a timed-out write means the
/// reader is too slow (or gone), which is counted and surfaced as
/// [`ProxyError::ClientTimeout`]; everything else passes through.
fn client_err(state: &ProxyState, err: ProxyError) -> ProxyError {
    if let ProxyError::Io(e) = &err {
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) {
            state.client_timeouts.fetch_add(1, Ordering::Relaxed);
            return ProxyError::ClientTimeout;
        }
    }
    err
}

/// Writes payload bytes to the client in ring-sized chunks, paced by the
/// per-client token bucket and with write failures classified through
/// [`client_err`].
fn write_paced(
    state: &ProxyState,
    writer: &mut BufWriter<TcpStream>,
    bytes: &[u8],
    pace: &mut RateLimiter,
) -> Result<(), ProxyError> {
    for chunk in bytes.chunks(RING_BYTES) {
        pace.acquire(chunk.len());
        writer
            .write_all(chunk)
            .map_err(|e| client_err(state, ProxyError::Io(e)))?;
    }
    writer
        .flush()
        .map_err(|e| client_err(state, ProxyError::Io(e)))?;
    Ok(())
}

/// Serves one client connection through the request stages: parse →
/// lookup → origin open → relay → commit.
fn handle_client(
    stream: TcpStream,
    state: &ProxyState,
    scratch: &mut WorkerScratch,
) -> Result<(), ProxyError> {
    let Some((name, mut writer)) = parse(stream, state)? else {
        return Ok(());
    };
    // Per-client pacing: one token bucket per connection, so a greedy
    // client is bounded without penalizing its neighbours.
    let mut pace = RateLimiter::new(state.config.client_rate_limit_bps);
    let key = key_for(&name);
    let cached = lookup(state, key, &name);
    let opened = open(state, &name, cached, &mut writer)?;
    let degraded = opened.degraded;
    let relayed = relay(state, scratch, &name, key, opened, &mut writer, &mut pace)?;
    if degraded {
        // Degraded hit: the range-correct prefix is all the client gets.
        // Cache state, metadata and the bandwidth estimator are left
        // untouched — an outage should not perturb what the policy learned
        // from healthy transfers.
        state.requests.fetch_add(1, Ordering::Relaxed);
        state
            .bytes_from_cache
            .fetch_add(relayed.object.prefix.len() as u64, Ordering::Relaxed);
        state.degraded_hits.fetch_add(1, Ordering::Relaxed);
        return Ok(());
    }
    commit(state, scratch, &name, key, &relayed);
    Ok(())
}

/// Parse stage: sets the client socket options and reads one command. A
/// `STATS` scrape is answered here and yields `None`; a `GET` yields the
/// object name and the writer the later stages answer on.
fn parse(
    stream: TcpStream,
    state: &ProxyState,
) -> Result<Option<(String, BufWriter<TcpStream>)>, ProxyError> {
    stream.set_nodelay(true).ok();
    if !state.config.client_write_timeout.is_zero() {
        stream
            .set_write_timeout(Some(state.config.client_write_timeout))
            .ok();
    }
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    match read_command(&mut reader) {
        Ok(Command::Get(request)) => Ok(Some((request.name, writer))),
        Ok(Command::Stats) => {
            let mut json = state.snapshot().to_json();
            json.push('\n');
            writer
                .write_all(json.as_bytes())
                .and_then(|()| writer.flush())
                .map_err(|e| client_err(state, ProxyError::Io(e)))?;
            Ok(None)
        }
        Err(err @ ProxyError::Protocol(_)) => {
            // Malformed or adversarial input: the bounded parser already
            // stopped reading; answer with a clean ERR and drop the
            // connection (best-effort — the peer may be gone).
            let _ = write_response(&mut writer, &Response::Err("malformed request".into()));
            Err(err)
        }
        Err(err) => Err(err),
    }
}

/// Lookup stage: one shard lock resolves `name`'s slot and reads its
/// table entry. `None` means the proxy has no metadata for the object yet.
fn lookup(state: &ProxyState, key: ObjectKey, name: &str) -> Option<Object> {
    state.engine.with_shard(key, |engine, table| {
        engine
            .slot_of(key)
            .and_then(|slot| table.lookup(slot, name))
            .cloned()
    })
}

/// What the origin-open stage settled on: the object (metadata and cached
/// prefix), the origin connection for the rest of it with its budget
/// permit, and whether the request is served degraded.
struct Opened<'a> {
    object: Object,
    origin: Option<(BufReader<TcpStream>, OriginPermit<'a>)>,
    degraded: bool,
}

/// Origin-open stage. The origin is dialled only when the object is not
/// fully cached or its metadata is still unknown, and *before* replying to
/// the client so that the tail can be relayed as it arrives. Opens go
/// through the resilient path (timeouts, retry/backoff, circuit breaker);
/// when the origin stays unreachable but a prefix is cached, the request
/// degrades to serving that prefix — the paper's partial caching masking
/// the outage — flagged on the wire. Failures nothing can mask are
/// answered with `ERR` here.
fn open<'a>(
    state: &'a ProxyState,
    name: &str,
    cached: Option<Object>,
    writer: &mut BufWriter<TcpStream>,
) -> Result<Opened<'a>, ProxyError> {
    let cached = match cached {
        Some(object) if object.prefix.len() as u64 >= object.size => {
            return Ok(Opened {
                object,
                origin: None,
                degraded: false,
            });
        }
        cached => cached,
    };
    let offset = cached
        .as_ref()
        .map_or(0, |object| object.prefix.len() as u64);
    match open_origin(state, name, offset) {
        OriginOutcome::Stream {
            reader,
            size,
            bitrate_bps,
            permit,
        } => Ok(Opened {
            // First contact learns the metadata from the origin's header.
            object: cached.unwrap_or(Object {
                size,
                bitrate_bps,
                prefix: Bytes::new(),
            }),
            origin: Some((reader, permit)),
            degraded: false,
        }),
        OriginOutcome::Unknown => {
            write_response(writer, &Response::Err("unknown object".into()))?;
            Err(ProxyError::UnknownObject(name.to_string()))
        }
        OriginOutcome::Unavailable => match cached {
            Some(object) if !object.prefix.is_empty() => Ok(Opened {
                object,
                origin: None,
                degraded: true,
            }),
            _ => {
                write_response(writer, &Response::Err("origin unavailable".into()))?;
                Err(ProxyError::OriginUnavailable(name.to_string()))
            }
        },
    }
}

/// What the relay stage delivered: the object with the prefix served from
/// cache, the tail bytes relayed from the origin, and the origin throughput
/// observed for them. The retained tail is left in the worker's scratch.
struct Relayed {
    object: Object,
    tail_len: u64,
    origin_bps: Option<f64>,
}

/// Relay stage: the header and cached prefix go out immediately (LAN
/// speed), then the origin tail is relayed through the fixed-size ring as
/// it trickles in, retaining only the leading bytes the policy could
/// plausibly admit. `b_lo` is a running lower bound on this request's
/// contribution to the post-transfer estimate: the minimum of the prior
/// estimate and the observed throughput so far (see [`retain_cap`] for why
/// this is best-effort rather than exact). Once a byte is dropped the
/// retained prefix can never be extended again (it must stay contiguous),
/// hence the `gapped` latch.
fn relay(
    state: &ProxyState,
    scratch: &mut WorkerScratch,
    name: &str,
    key: ObjectKey,
    opened: Opened<'_>,
    writer: &mut BufWriter<TcpStream>,
    pace: &mut RateLimiter,
) -> Result<Relayed, ProxyError> {
    let Opened {
        mut object,
        mut origin,
        degraded,
    } = opened;
    write_response(
        writer,
        &Response::Ok {
            size: object.size,
            bitrate_bps: object.bitrate_bps,
            degraded,
        },
    )
    .map_err(|e| client_err(state, e))?;
    let prefix_bytes = object.prefix.len().min(object.size as usize);
    object.prefix = object.prefix.slice(..prefix_bytes);
    write_paced(state, writer, &object.prefix, pace)?;

    scratch.retained.clear();
    let mut tail_len: u64 = 0;
    let mut origin_bps: Option<f64> = None;
    if origin.is_some() {
        let meta = object_meta(key, &object);
        let expected_tail = object.size.saturating_sub(prefix_bytes as u64);
        let mut b_lo = state
            .estimator
            .lock()
            .estimate_bps()
            .unwrap_or(state.config.assumed_origin_bps);
        let started = Instant::now();
        let mut gapped = false;
        while tail_len < expected_tail {
            let Some((origin_reader, _)) = origin.as_mut() else {
                break;
            };
            let n = match origin_reader.read(&mut scratch.chunk) {
                Ok(n) if n > 0 => n,
                // Early EOF (mid-stream reset or truncated response) or a
                // read timeout (stalled origin): drop the connection — and
                // its budget permit — then resume from the current offset
                // through the resilient open. If the origin stays down the
                // client gets a short stream, and the cache still keeps the
                // contiguous bytes in hand.
                Ok(_) | Err(_) => {
                    origin = None;
                    if let OriginOutcome::Stream { reader, permit, .. } =
                        open_origin(state, name, prefix_bytes as u64 + tail_len)
                    {
                        origin = Some((reader, permit));
                        state.origin_resumes.fetch_add(1, Ordering::Relaxed);
                    }
                    continue;
                }
            };
            write_paced(state, writer, &scratch.chunk[..n], pace)?;
            tail_len += n as u64;
            let elapsed = started.elapsed().as_secs_f64();
            if elapsed > 0.0 {
                b_lo = b_lo.min(tail_len as f64 / elapsed);
            }
            if !gapped {
                let cap = retain_cap(scratch.policy.as_ref(), &meta, b_lo, prefix_bytes);
                let keep = cap.saturating_sub(scratch.retained.len()).min(n);
                scratch.retained.extend_from_slice(&scratch.chunk[..keep]);
                gapped = keep < n;
            }
        }
        drop(origin);
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 && tail_len > 0 {
            origin_bps = Some(tail_len as f64 / secs);
        }
    }

    // Defensive check: the retained tail must continue the cached prefix.
    debug_assert_eq!(
        verify_content(name, prefix_bytes as u64, &scratch.retained),
        None,
        "origin payload does not match expected content"
    );
    Ok(Relayed {
        object,
        tail_len,
        origin_bps,
    })
}

/// Commit stage: folds the observed origin throughput into the bandwidth
/// estimate, then takes the object's shard lock once for the engine
/// decision and the table update. The candidate prefix — the bytes in
/// hand, cached prefix plus retained tail — is built before the lock, so
/// a request whose whole candidate is granted copies nothing under it.
/// Under the lock the shard's delta log drains straight into its table
/// (O(changes) per request), and this object's prefix becomes
/// `min(grant, bytes in hand)`; a grant shorter than the candidate is
/// copied out so the stored prefix does not pin the retained tail.
fn commit(
    state: &ProxyState,
    scratch: &mut WorkerScratch,
    name: &str,
    key: ObjectKey,
    relayed: &Relayed,
) {
    let Relayed {
        object,
        tail_len,
        origin_bps,
    } = relayed;
    let estimated = {
        let mut estimator = state.estimator.lock();
        if let Some(bps) = *origin_bps {
            estimator.observe(bps);
        }
        estimator
            .estimate_bps()
            .unwrap_or(state.config.assumed_origin_bps)
    };
    let candidate = if scratch.retained.is_empty() {
        object.prefix.clone()
    } else {
        let mut bytes = Vec::with_capacity(object.prefix.len() + scratch.retained.len());
        bytes.extend_from_slice(&object.prefix);
        bytes.extend_from_slice(&scratch.retained);
        Bytes::from(bytes)
    };
    state
        .engine
        .access_with(&object_meta(key, object), estimated, |engine, table, _| {
            for delta in engine.drain_deltas() {
                table.truncate(delta.slot, delta.new_bytes as usize);
            }
            let slot = engine
                .slot_of(key)
                .expect("accessed keys are interned by on_access");
            let grant = (engine.cached_bytes(key) as usize).min(object.size as usize);
            table.commit(
                slot,
                name,
                object.size,
                object.bitrate_bps,
                &candidate,
                grant,
            );
        });

    // Request counters are lock-free: no stats critical section.
    state.requests.fetch_add(1, Ordering::Relaxed);
    state
        .bytes_from_cache
        .fetch_add(object.prefix.len() as u64, Ordering::Relaxed);
    state
        .bytes_from_origin
        .fetch_add(*tail_len, Ordering::Relaxed);
    state
        .peak_tail_bytes
        .fetch_max(scratch.retained.len() as u64, Ordering::Relaxed);

    // A request that retained a large prefix must not pin that capacity in
    // the worker for the proxy's lifetime: release it back down to the
    // ring size once the bytes have been handed to the table.
    scratch.retained.clear();
    scratch.retained.shrink_to(RING_BYTES);
}

/// The engine's view of `object`: its size and bit-rate under `key`.
fn object_meta(key: ObjectKey, object: &Object) -> ObjectMeta {
    let duration = object.size as f64 / object.bitrate_bps;
    ObjectMeta::new(key, duration, object.bitrate_bps, 0.0)
}

/// Outcome of one resilient origin open.
enum OriginOutcome<'a> {
    /// The origin answered: a positioned reader plus the object's size and
    /// bit-rate, with one origin-budget permit held for the connection's
    /// lifetime.
    Stream {
        reader: BufReader<TcpStream>,
        size: u64,
        bitrate_bps: f64,
        permit: OriginPermit<'a>,
    },
    /// The origin answered but does not know the object.
    Unknown,
    /// The origin could not be reached within the retry budget, or the
    /// circuit breaker is open.
    Unavailable,
}

/// Opens an origin connection for `name` starting at `offset` through the
/// resilience stack: the circuit breaker gates every attempt, each attempt
/// dials and reads under per-attempt timeouts, and failures back off
/// exponentially (seeded jitter) until the attempt count or the deadline
/// budget runs out. Transport failures are absorbed into
/// [`OriginOutcome::Unavailable`] rather than propagated.
fn open_origin<'a>(state: &'a ProxyState, name: &str, offset: u64) -> OriginOutcome<'a> {
    let policy = state.config.retry;
    let started = Instant::now();
    let nonce = state.open_nonce.fetch_add(1, Ordering::Relaxed);
    let mut attempt: u32 = 0;
    loop {
        if !state.breaker.allow() {
            return OriginOutcome::Unavailable;
        }
        let remaining = policy.deadline.saturating_sub(started.elapsed());
        let Some(permit) = state.origin_budget.acquire_within(remaining) else {
            // The budget, not the origin, ran out of room: release the
            // half-open probe slot (if we held it) without an outcome.
            state.breaker.release_probe();
            return OriginOutcome::Unavailable;
        };
        match try_open_origin(state, name, offset, permit) {
            Ok(Some((reader, size, bitrate_bps, permit))) => {
                state.breaker.record_success();
                return OriginOutcome::Stream {
                    reader,
                    size,
                    bitrate_bps,
                    permit,
                };
            }
            Ok(None) => {
                // A definite answer from a healthy origin.
                state.breaker.record_success();
                return OriginOutcome::Unknown;
            }
            Err(_) => {
                state.breaker.record_failure();
                attempt += 1;
                if attempt >= policy.max_attempts || started.elapsed() >= policy.deadline {
                    return OriginOutcome::Unavailable;
                }
                let pause = policy
                    .backoff(attempt - 1, nonce)
                    .min(policy.deadline.saturating_sub(started.elapsed()));
                if !pause.is_zero() {
                    state
                        .origin_backoff_micros
                        .fetch_add(pause.as_micros() as u64, Ordering::Relaxed);
                    std::thread::sleep(pause);
                }
                state.origin_retries.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// One origin connection attempt under the per-attempt timeouts.
#[allow(clippy::type_complexity)]
fn try_open_origin<'a>(
    state: &ProxyState,
    name: &str,
    offset: u64,
    permit: OriginPermit<'a>,
) -> Result<Option<(BufReader<TcpStream>, u64, f64, OriginPermit<'a>)>, ProxyError> {
    let stream =
        TcpStream::connect_timeout(&state.config.origin_addr, state.config.connect_timeout)?;
    stream.set_read_timeout(Some(state.config.origin_read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut origin_writer = BufWriter::new(stream);
    write_request(
        &mut origin_writer,
        &Request {
            name: name.to_string(),
            offset,
        },
    )?;
    match read_response(&mut reader)? {
        Response::Ok {
            size, bitrate_bps, ..
        } => Ok(Some((reader, size, bitrate_bps, permit))),
        Response::Err(_) => Ok(None),
        // An overloaded origin counts as a transport failure: the caller
        // backs off and retries within the usual budget.
        Response::Busy { retry_after_ms } => Err(ProxyError::Busy(retry_after_ms)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_stable_and_distinct() {
        assert_eq!(key_for("movie-1"), key_for("movie-1"));
        assert_ne!(key_for("movie-1"), key_for("movie-2"));
    }

    #[test]
    fn proxy_config_defaults() {
        let cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        assert_eq!(cfg.policy, PolicyKind::PartialBandwidth);
        assert!(cfg.assumed_origin_bps > 0.0);
        assert!(cfg.worker_threads >= 1);
        assert!(cfg.accept_queue_len >= 1);
        assert_eq!(cfg.engine_shards, 0, "0 = one shard per worker");
        assert!(!cfg.connect_timeout.is_zero());
        assert!(!cfg.origin_read_timeout.is_zero());
        assert!(cfg.retry.max_attempts >= 1);
        assert!(cfg.retry.deadline >= cfg.retry.max_backoff);
        assert!(cfg.breaker.failure_threshold > 0, "breaker on by default");
        // Overload knobs default permissive: a generous queue deadline and
        // write timeout, no in-flight cap, no per-client pacing.
        assert!(!cfg.queue_deadline.is_zero());
        assert_eq!(cfg.max_in_flight, 0);
        assert!(!cfg.client_write_timeout.is_zero());
        assert_eq!(cfg.client_rate_limit_bps, 0.0);
    }

    #[test]
    fn busy_retry_after_tracks_the_queue_deadline() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.queue_deadline = Duration::from_millis(300);
        assert_eq!(cfg.busy_retry_after_ms(), 150);
        cfg.queue_deadline = Duration::from_millis(1);
        assert_eq!(cfg.busy_retry_after_ms(), 1, "clamped to at least 1 ms");
        cfg.queue_deadline = Duration::ZERO;
        assert_eq!(cfg.busy_retry_after_ms(), 100, "flat default when off");
    }

    #[test]
    fn stats_json_is_well_formed_and_complete() {
        let stats = ProxyStats {
            requests: 7,
            shed_requests: 3,
            peak_queue_depth: 11,
            client_timeouts: 2,
            estimated_origin_bps: 64_000.0,
            ..ProxyStats::default()
        };
        let json = stats.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"requests\": 7"));
        assert!(json.contains("\"shed_requests\": 3"));
        assert!(json.contains("\"peak_queue_depth\": 11"));
        assert!(json.contains("\"client_timeouts\": 2"));
        assert!(json.contains("\"queue_wait_micros\": 0"));
        assert!(json.contains("\"estimated_origin_bps\": 64000"));
        // One line, no trailing newline: the verb handler appends it.
        assert!(!json.contains('\n'));
    }

    #[test]
    fn nan_client_rate_limit_is_rejected() {
        let mut cfg = ProxyConfig::new("127.0.0.1:9".parse().unwrap(), 1e6);
        cfg.client_rate_limit_bps = f64::NAN;
        assert!(CachingProxy::start(cfg).is_err());
    }

    #[test]
    fn engine_shards_default_to_worker_count() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.worker_threads = 3;
        let proxy = CachingProxy::start(cfg).unwrap();
        assert_eq!(proxy.engine_shards(), 3);

        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.worker_threads = 3;
        cfg.engine_shards = 1;
        let proxy = CachingProxy::start(cfg).unwrap();
        assert_eq!(proxy.engine_shards(), 1);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let addr: SocketAddr = "127.0.0.1:9".parse().unwrap();
        assert!(CachingProxy::start(ProxyConfig::new(addr, -1.0)).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.worker_threads = 0;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.accept_queue_len = 0;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.connect_timeout = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.origin_read_timeout = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.retry.max_attempts = 0;
        assert!(CachingProxy::start(cfg).is_err());
        let mut cfg = ProxyConfig::new(addr, 1e6);
        cfg.retry.deadline = Duration::ZERO;
        assert!(CachingProxy::start(cfg).is_err());
    }

    #[test]
    fn retention_cap_covers_the_policy_target() {
        let policy = PolicyKind::PartialBandwidth.build();
        let meta = ObjectMeta::new(ObjectKey::new(1), 10.0, 100_000.0, 0.0);
        // PB at 40 KB/s wants (100 - 40) * 10 = 600 KB; the slack makes the
        // cap at least that.
        let cap = retain_cap(policy.as_ref(), &meta, 40_000.0, 0);
        assert!(cap >= 600_000, "cap {cap}");
        assert!(cap <= meta.size_bytes() as usize);
        // A stored prefix reduces what is worth retaining.
        let cap_warm = retain_cap(policy.as_ref(), &meta, 40_000.0, 500_000);
        assert!(cap_warm >= 100_000 && cap_warm < cap, "cap_warm {cap_warm}");
        // Abundant bandwidth: nothing worth retaining.
        assert_eq!(retain_cap(policy.as_ref(), &meta, 1e9, 0), 0);
    }
}
