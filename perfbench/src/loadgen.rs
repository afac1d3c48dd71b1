//! Seeded open-loop load generation.
//!
//! Requests are due on a schedule drawn from the run seed, independent of
//! how fast the system answers. A small fixed set of client threads works
//! through the schedule in order; a request whose thread is still busy when
//! it falls due is sent late, and that lateness is recorded so a caller can
//! time every request from when it was due rather than from when it went
//! out.

use rand::rngs::StdRng;
use rand::Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offsets in seconds of `count` Poisson arrivals at `rate_per_s`, starting
/// one mean gap after zero.
pub fn poisson_dues(rng: &mut StdRng, rate_per_s: f64, count: usize) -> Vec<f64> {
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            let u: f64 = rng.gen();
            t += -(1.0 - u).ln() / rate_per_s;
            t
        })
        .collect()
}

/// What a client thread recorded for one request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sent<T> {
    /// The request's due time, in seconds from the start of the schedule.
    pub due_s: f64,
    /// Seconds between the request's due time and the moment a client
    /// thread started it.
    pub late_secs: f64,
    /// What the request closure returned.
    pub out: T,
}

/// Sleeps until `due`. The last stretch is spun with yields because a bare
/// sleep overshoots by tens of microseconds, which would read as lateness.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(200);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs `request(i, due)` for every entry of `dues` (offsets in seconds
/// from now) on `clients` threads, in schedule order. Returns one record
/// per request, in schedule order.
pub fn run_open_loop<T, F>(dues: &[f64], clients: usize, request: F) -> Vec<Sent<T>>
where
    T: Send,
    F: Fn(usize, Instant) -> T + Sync,
{
    // A short lead lets every thread reach its first wait before the
    // first request falls due.
    let start = Instant::now() + Duration::from_millis(2);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(usize, Sent<T>)>> = Mutex::new(Vec::with_capacity(dues.len()));
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&offset) = dues.get(i) else { break };
                    let due = start + Duration::from_secs_f64(offset);
                    wait_until(due);
                    let late_secs = due.elapsed().as_secs_f64();
                    let out = request(i, due);
                    mine.push((
                        i,
                        Sent {
                            due_s: offset,
                            late_secs,
                            out,
                        },
                    ));
                }
                records
                    .lock()
                    .expect("no client thread panics while holding the record lock")
                    .extend(mine);
            });
        }
    });
    let mut records = records
        .into_inner()
        .expect("client threads have all been joined");
    records.sort_by_key(|&(i, _)| i);
    records.into_iter().map(|(_, sent)| sent).collect()
}

/// Runs `request(i)` back to back on `clients` threads for `secs`
/// seconds, numbering requests in the order they start. Returns each
/// request's completion time in seconds from the start, with its result,
/// in completion order.
pub fn run_closed_loop<T, F>(clients: usize, secs: f64, request: F) -> Vec<(f64, T)>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let next = AtomicUsize::new(0);
    let records: Mutex<Vec<(f64, T)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..clients.max(1) {
            scope.spawn(|| {
                let mut mine = Vec::new();
                while Instant::now() < end {
                    let out = request(next.fetch_add(1, Ordering::Relaxed));
                    mine.push((start.elapsed().as_secs_f64(), out));
                }
                records
                    .lock()
                    .expect("no client thread panics while holding the record lock")
                    .extend(mine);
            });
        }
    });
    let mut records = records
        .into_inner()
        .expect("client threads have all been joined");
    records.sort_by(|a, b| a.0.total_cmp(&b.0));
    records
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = poisson_dues(&mut StdRng::seed_from_u64(7), 1_000.0, 5_000);
        let b = poisson_dues(&mut StdRng::seed_from_u64(7), 1_000.0, 5_000);
        let c = poisson_dues(&mut StdRng::seed_from_u64(8), 1_000.0, 5_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 5,000 gaps of mean 1 ms span about five seconds.
        let span = a[a.len() - 1];
        assert!((4.5..5.5).contains(&span), "span {span}");
    }

    #[test]
    fn a_busy_client_records_lateness_and_the_delay_counts_from_due_time() {
        // One client, a request every millisecond, each taking three: the
        // generator falls steadily behind.
        let dues: Vec<f64> = (0..20).map(|i| f64::from(i) * 1e-3).collect();
        let records = run_open_loop(&dues, 1, |i, due| {
            std::thread::sleep(Duration::from_millis(3));
            (i, due.elapsed().as_secs_f64())
        });
        assert_eq!(records.len(), dues.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.out.0, i, "records come back in schedule order");
            assert!(r.late_secs >= 0.0);
            assert!(r.out.1 >= r.late_secs + 3e-3, "delay includes lateness");
        }
        // Request i starts no earlier than 3i ms, i.e. at least 2i ms late.
        assert!(records[19].late_secs >= 0.038, "{}", records[19].late_secs);
        assert!(records[0].late_secs < 0.002);
    }

    #[test]
    fn a_closed_loop_sends_back_to_back_until_its_time_is_up() {
        let records = run_closed_loop(2, 0.05, |i| {
            std::thread::sleep(Duration::from_millis(5));
            i
        });
        // Two clients at 5 ms a request for 50 ms: about twenty requests.
        assert!((16..=24).contains(&records.len()), "{}", records.len());
        assert!(records.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut ids: Vec<usize> = records.iter().map(|r| r.1).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..records.len()).collect::<Vec<_>>());
    }

    #[test]
    fn spare_clients_keep_a_light_schedule_on_time() {
        let dues: Vec<f64> = (0..10).map(|i| f64::from(i) * 5e-3).collect();
        let records = run_open_loop(&dues, 2, |_, _| ());
        assert!(records.iter().all(|r| r.late_secs < 4e-3));
    }
}
