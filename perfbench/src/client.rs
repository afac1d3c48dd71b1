//! One `GET` over one connection, timed from the request's due time.

use crate::loadgen::Sent;
use crate::stats::{self, Summary};
use crate::trace::Trace;
use crate::Report;
use sc_proxy::protocol::{read_response, write_request, Request, Response};
use sc_proxy::{verify_content, CachingProxy, ProxyStats};
use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// Client-side timestamps of one request, in seconds after it was due.
/// `connect`, `written` and `header` are taken only when tracing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Stamps {
    /// The TCP handshake completed (kernel accept on the server side).
    pub connect: f64,
    /// The request line was written.
    pub written: f64,
    /// The `OK` header was parsed: protocol parse and store lookup, plus
    /// the origin open on a miss.
    pub header: f64,
    /// The last payload byte arrived.
    pub last_byte: f64,
    /// The server closed the connection, which it does after its
    /// post-transfer bookkeeping (estimator, engine access, store update).
    pub eof: f64,
}

/// What one `GET` observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Fetch {
    /// Timestamps, relative to the due time.
    pub at: Stamps,
    /// Startup delay counted from the due time: the smallest wait after
    /// which playback at the object's bit-rate never stalls,
    /// `max_p (arrival(p) − p / r)⁺`, the `StreamingClient` definition.
    pub startup_secs: f64,
}

/// A failed check on one response.
pub type FetchError = String;

/// Fetches `name` from `addr` and checks the status, the byte count
/// (`expect_bytes`) and, when `verify` is set, every payload byte. `buf`
/// is the caller's reusable read buffer; to verify, it must hold the whole
/// object.
pub fn get(
    addr: SocketAddr,
    name: &str,
    due: Instant,
    expect_bytes: u64,
    verify: bool,
    trace: bool,
    buf: &mut [u8],
) -> Result<Fetch, FetchError> {
    let since_due = |trace: bool| {
        if trace {
            due.elapsed().as_secs_f64()
        } else {
            0.0
        }
    };
    let mut at = Stamps::default();
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    at.connect = since_due(trace);
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    let request = Request {
        name: name.to_string(),
        offset: 0,
    };
    let mut line = Vec::with_capacity(name.len() + 8);
    write_request(&mut line, &request).map_err(|e| format!("encode: {e}"))?;
    (&stream)
        .write_all(&line)
        .map_err(|e| format!("write: {e}"))?;
    at.written = since_due(trace);
    let mut reader = BufReader::new(stream);
    let (size, bitrate) = match read_response(&mut reader).map_err(|e| format!("header: {e}"))? {
        Response::Ok {
            size,
            bitrate_bps,
            degraded: false,
        } => (size, bitrate_bps),
        Response::Ok { degraded: true, .. } => return Err("degraded response".into()),
        Response::Err(e) => return Err(format!("ERR {e}")),
        Response::Busy { retry_after_ms } => return Err(format!("BUSY {retry_after_ms}")),
    };
    at.header = since_due(trace);
    if size != expect_bytes {
        return Err(format!("size {size}, expected {expect_bytes}"));
    }
    // A verified payload is kept whole and checked after the close is
    // stamped, so checking adds nothing to the timings.
    let size_bytes = usize::try_from(size).map_err(|e| format!("size {size}: {e}"))?;
    if verify && size_bytes > buf.len() {
        return Err(format!(
            "cannot verify {size} bytes in a {} byte buffer",
            buf.len()
        ));
    }
    let mut received = 0usize;
    let mut startup: f64 = 0.0;
    while received < size_bytes {
        let window = if verify {
            &mut buf[received..size_bytes]
        } else {
            let want = buf.len().min(size_bytes - received);
            &mut buf[..want]
        };
        let n = reader.read(window).map_err(|e| format!("body: {e}"))?;
        if n == 0 {
            return Err(format!("short payload: {received} of {size} bytes"));
        }
        let arrival = due.elapsed().as_secs_f64();
        startup = startup.max(arrival - received as f64 / bitrate);
        received += n;
    }
    at.last_byte = due.elapsed().as_secs_f64();
    // Nothing may follow the payload; the close marks the end of the
    // server's bookkeeping for this request.
    let mut extra = [0u8; 1];
    let n = reader.read(&mut extra).map_err(|e| format!("drain: {e}"))?;
    if n != 0 {
        return Err("bytes after the payload".into());
    }
    at.eof = due.elapsed().as_secs_f64();
    if verify {
        if let Some(i) = verify_content(name, 0, &buf[..size_bytes]) {
            return Err(format!("payload mismatch at byte {i}"));
        }
    }
    reset_on_close(reader.get_ref());
    Ok(Fetch {
        at,
        startup_secs: startup,
    })
}

/// Makes the client's close send a reset instead of a FIN.
///
/// The server closes first, so with an orderly close every request leaves
/// a TIME_WAIT entry on the server side for a minute. At tens of thousands
/// of connections a second the table fills, and requests slow down for as
/// long as earlier phases and runs keep it full, so a phase's numbers would
/// depend on what ran before it. The reset, sent after the server's close
/// was read, discards that entry; the exchange itself is complete.
#[cfg(target_os = "linux")]
fn reset_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    // Linux values of SOL_SOCKET and SO_LINGER.
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which is open for the
    // whole call, and `value` points to a live `Linger` whose size is
    // passed as `len`; `setsockopt` only reads it.
    let _ = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        )
    };
}

#[cfg(not(target_os = "linux"))]
fn reset_on_close(_stream: &TcpStream) {}

/// One request as the load generator recorded it.
pub type Record = Sent<Result<Fetch, FetchError>>;

/// Whether request `i` of a traced run takes the extra stamps: every other
/// one, so the untraced half gives the tracing overhead.
pub fn traced(i: usize) -> bool {
    i.is_multiple_of(2)
}

fn ok(records: &[Record]) -> impl Iterator<Item = (usize, &Record, &Fetch)> {
    records
        .iter()
        .enumerate()
        .filter_map(|(i, r)| r.out.as_ref().ok().map(|f| (i, r, f)))
}

/// Checks that the proxy's request count grew by the `completed` GETs
/// between two snapshots.
pub fn check_count(report: &mut Report, before: &ProxyStats, after: &ProxyStats, completed: u64) {
    let counted = after.requests - before.requests;
    report.tally.check(counted == completed, || {
        format!("proxy counted {counted} requests, clients completed {completed}")
    });
}

/// Checks that no object's stored prefix exceeds its engine grant, and
/// records the cache-content metrics.
pub fn check_contents(report: &mut Report, proxy: &CachingProxy, capacity_bytes: f64) {
    let (mut granted, mut gap, mut objects) = (0.0, 0.0, 0usize);
    for (name, grant, stored) in proxy.contents() {
        report.tally.check(stored as f64 <= grant, || {
            format!("{name}: store holds {stored} bytes, above the engine grant {grant}")
        });
        granted += grant;
        gap += grant - stored as f64;
        objects += 1;
    }
    report.set("engine.fill_ratio", granted / capacity_bytes);
    report.set("engine.objects", objects as f64);
    report.set("store.grant_gap_bytes", gap);
}

/// Median, mean and tail of the answered requests' delays, in seconds.
/// The tail is the highest quantile a block of `block` consecutive
/// requests supports, read per block, median over blocks (see
/// [`stats::block_quantile`]).
pub fn delays(
    records: &[Record],
    delay: fn(&Fetch) -> f64,
    block: usize,
) -> Option<(f64, f64, f64)> {
    let delays: Vec<f64> = ok(records).map(|(_, _, f)| delay(f)).collect();
    let s = Summary::of(&delays)?;
    let q = stats::tail_quantile(block).expect("a block supports a tail quantile");
    Some((s.p50, s.mean, stats::block_quantile(&delays, q, block)))
}

/// Records the per-layer metrics of a measured phase: proxy counters
/// between `before` and now, the client-side stage split of the traced
/// requests, the load generator's lateness and the tracing overhead.
pub fn layer_metrics(
    report: &mut Report,
    proxy: &ProxyStats,
    before: &ProxyStats,
    records: &[Record],
    delay: fn(&Fetch) -> f64,
) {
    let requests = (proxy.requests - before.requests).max(1) as f64;
    let wait = (proxy.queue_wait_micros - before.queue_wait_micros) as f64;
    report.set("pool.queue_wait_us", wait / requests);
    report.set("pool.peak_queue_depth", proxy.peak_queue_depth as f64);
    report.set(
        "origin.bytes",
        (proxy.bytes_from_origin - before.bytes_from_origin) as f64,
    );
    report.set(
        "origin.retries",
        (proxy.origin_retries - before.origin_retries) as f64,
    );
    report.set(
        "origin.resumes",
        (proxy.origin_resumes - before.origin_resumes) as f64,
    );
    let cache = (proxy.bytes_from_cache - before.bytes_from_cache) as f64;
    let origin = (proxy.bytes_from_origin - before.bytes_from_origin) as f64;
    report.set("cache.traffic_reduction", cache / (cache + origin));

    let late: Vec<f64> = records.iter().map(|r| r.late_secs).collect();
    report.set("loadgen.late_p99_ms", stats::quantile_of(&late, 0.99) * 1e3);
    let stage = |f: fn(&Record, &Fetch) -> f64| -> Vec<f64> {
        ok(records)
            .filter(|(i, _, _)| traced(*i))
            .map(|(_, r, fetch)| f(r, fetch) * 1e6)
            .collect()
    };
    let connect = stage(|r, f| f.at.connect - r.late_secs);
    let header = stage(|_, f| f.at.header - f.at.written);
    let body = stage(|_, f| f.at.last_byte - f.at.header);
    let commit = stage(|_, f| f.at.eof - f.at.last_byte);
    let request = stage(|_, f| f.at.eof - f.at.written);
    report.set("proxy.connect_us", stats::median(&connect));
    for (p50, p99, values) in [
        ("proxy.header_p50_us", "proxy.header_p99_us", &header),
        ("proxy.body_p50_us", "proxy.body_p99_us", &body),
        ("proxy.commit_p50_us", "proxy.commit_p99_us", &commit),
    ] {
        report.set(p50, stats::quantile_of(values, 0.5));
        report.set(p99, stats::quantile_of(values, 0.99));
    }
    report.set("proxy.request_p50_us", stats::median(&request));

    let mean_delay = |want_traced: bool| {
        let d: Vec<f64> = ok(records)
            .filter(|(i, _, _)| traced(*i) == want_traced)
            .map(|(_, _, f)| delay(f))
            .collect();
        d.iter().sum::<f64>() / d.len().max(1) as f64
    };
    report.set(
        "trace.overhead_us",
        (mean_delay(true) - mean_delay(false)) * 1e6,
    );
}

/// Writes the spans of the traced requests and records how many there
/// were. Every span is relative to the start of the phase's schedule.
pub fn finish_trace(report: &mut Report, records: &[Record], workload: &str, seed: u64) {
    let mut spans = Trace::default();
    for (i, r, f) in ok(records).filter(|(i, _, _)| traced(*i)) {
        let (id, t) = (i as u64, r.due_s);
        let sent = t + r.late_secs;
        spans.push(id, "request", "", t, t + f.at.eof);
        spans.push(id, "loadgen.late", "request", t, sent);
        spans.push(id, "connect", "request", sent, t + f.at.connect);
        spans.push(id, "write", "request", t + f.at.connect, t + f.at.written);
        spans.push(id, "header", "request", t + f.at.written, t + f.at.header);
        spans.push(id, "body", "request", t + f.at.header, t + f.at.last_byte);
        spans.push(id, "commit", "request", t + f.at.last_byte, t + f.at.eof);
    }
    report.set("trace.spans", spans.len() as f64);
    let written = spans.write(workload, seed);
    report.tally.check(written.is_ok(), || {
        format!("writing the trace: {:?}", written.err())
    });
}
