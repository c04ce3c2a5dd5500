//! The benchmark's own load driver: an open-loop scheduler and a
//! closed-loop phase over any [`Session`] (HTTP, in-process submit, or a
//! wire probe).
//!
//! Open loop: exchange `i` is *due* at `start + schedule[i]`. A fixed pool
//! of sessions (one per connection) takes the next exchange in due order;
//! if every session is busy, the exchange is sent late. Latency runs from
//! the due time, so a stall is charged to every exchange that waited
//! behind it, and the lateness of each send is recorded so a run can show
//! that the generator itself kept up.
//!
//! Closed loop: each session sends its next exchange as soon as the
//! previous one completes, until the phase deadline.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Monotonic nanoseconds plus a way to wait for a future instant.
pub trait Clock: Sync {
    /// Nanoseconds since this clock's origin.
    fn now(&self) -> u64;
    /// Block until [`Clock::now`] reaches `t` (returns at once if past).
    fn sleep_until(&self, t: u64);
}

/// Wall-clock time since construction.
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Clock for RealClock {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn sleep_until(&self, t: u64) {
        let now = self.now();
        if t > now {
            std::thread::sleep(Duration::from_nanos(t - now));
        }
    }
}

/// What one exchange achieved.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Location reports the exchange carried (1, or the array length).
    pub reports: u32,
    /// Reports that ended `served` with a valid in-domain point.
    pub served: u32,
    /// First problem seen (transport error, refusal status, bad point).
    pub error: Option<String>,
}

/// One exchange as the driver saw it; times are [`Clock`] nanoseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// When the exchange was due (open loop) or started (closed loop).
    pub due: u64,
    /// When it was actually sent.
    pub sent: u64,
    /// When its full response had arrived.
    pub done: u64,
    pub reports: u32,
    pub served: u32,
    pub error: Option<String>,
}

impl Record {
    /// Due-to-done latency in nanoseconds.
    pub fn latency(&self) -> u64 {
        self.done - self.due
    }

    /// How late the generator sent this exchange.
    pub fn late(&self) -> u64 {
        self.sent - self.due
    }
}

/// A connection-like channel to the system under test. `exchange` is
/// given the index of the item to send (the open-loop schedule index, or
/// the session's own sequence number in a closed loop).
pub trait Session {
    fn exchange(&mut self, index: usize) -> Outcome;
}

/// Makes the session for worker `w`.
pub type SessionFactory<'a> = dyn Fn(usize) -> Box<dyn Session + 'a> + Sync + 'a;

/// Run an open-loop phase: `schedule[i]` is exchange `i`'s due offset in
/// nanoseconds from `start`, nondecreasing. Returns one record per
/// exchange, in schedule order.
pub fn open_loop(
    clock: &dyn Clock,
    schedule: &[u64],
    start: u64,
    workers: usize,
    make: &SessionFactory<'_>,
) -> Vec<Record> {
    let next = AtomicUsize::new(0);
    let mut records: Vec<(usize, Record)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let mut session = make(w);
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= schedule.len() {
                            break;
                        }
                        let due = start + schedule[i];
                        clock.sleep_until(due);
                        let sent = clock.now();
                        let outcome = session.exchange(i);
                        let done = clock.now();
                        out.push((i, record(due, sent, done, outcome)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    records.sort_by_key(|(i, _)| *i);
    records.into_iter().map(|(_, r)| r).collect()
}

/// Run a closed-loop phase until `deadline` (a [`Clock`] instant): each
/// worker sends back to back. Returns the records and the phase's
/// elapsed time, from its start to the last completion.
pub fn closed_loop(
    clock: &dyn Clock,
    deadline: u64,
    workers: usize,
    make: &SessionFactory<'_>,
) -> (Vec<Record>, u64) {
    let start = clock.now();
    let records: Vec<Record> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.max(1))
            .map(|w| {
                scope.spawn(move || {
                    let mut session = make(w);
                    let mut out = Vec::new();
                    let mut k = 0;
                    loop {
                        let sent = clock.now();
                        if sent >= deadline {
                            break;
                        }
                        let outcome = session.exchange(k);
                        k += 1;
                        out.push(record(sent, sent, clock.now(), outcome));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load worker panicked"))
            .collect()
    });
    let end = records.iter().map(|r| r.done).max().unwrap_or(start);
    (records, end.saturating_sub(start).max(1))
}

fn record(due: u64, sent: u64, done: u64, outcome: Outcome) -> Record {
    Record {
        due,
        sent,
        done,
        reports: outcome.reports,
        served: outcome.served,
        error: outcome.error,
    }
}

/// Location reports served within `limit_ns`, per second of `elapsed_ns`.
/// An exchange past the limit contributes nothing; a 32-point exchange
/// within it contributes each of its served reports.
pub fn goodput<'a>(
    records: impl IntoIterator<Item = &'a Record>,
    limit_ns: u64,
    elapsed_ns: u64,
) -> f64 {
    let good: u64 = records
        .into_iter()
        .filter(|r| r.latency() <= limit_ns)
        .map(|r| u64::from(r.served))
        .sum();
    good as f64 / (elapsed_ns as f64 / 1e9)
}

/// `(attempted, failed)` report counts over `records`.
pub fn tally(records: &[Record]) -> (u64, u64) {
    let attempted: u64 = records.iter().map(|r| u64::from(r.reports)).sum();
    let served: u64 = records.iter().map(|r| u64::from(r.served)).sum();
    (attempted, attempted - served)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// A clock that only moves when sessions "work" or the scheduler
    /// sleeps; sleeping jumps straight to the wake-up time.
    struct FakeClock(AtomicU64);

    impl Clock for FakeClock {
        fn now(&self) -> u64 {
            self.0.load(Ordering::SeqCst)
        }
        fn sleep_until(&self, t: u64) {
            self.0.fetch_max(t, Ordering::SeqCst);
        }
    }

    struct Fixed<'a> {
        clock: &'a FakeClock,
        service: u64,
        reports: u32,
    }

    impl Session for Fixed<'_> {
        fn exchange(&mut self, _index: usize) -> Outcome {
            self.clock.0.fetch_add(self.service, Ordering::SeqCst);
            Outcome {
                reports: self.reports,
                served: self.reports,
                error: None,
            }
        }
    }

    #[test]
    fn open_loop_charges_lateness_to_every_exchange_behind_a_stall() {
        // Due every 10 ns, each exchange takes 15 ns on one connection:
        // sends fall 0, 5, 10, 15 ns behind, and latency is counted
        // from the due time, not the send.
        let clock = FakeClock(AtomicU64::new(1_000));
        let make = |_w: usize| -> Box<dyn Session + '_> {
            Box::new(Fixed {
                clock: &clock,
                service: 15,
                reports: 1,
            })
        };
        let records = open_loop(&clock, &[0, 10, 20, 30], 1_000, 1, &make);
        let late: Vec<u64> = records.iter().map(Record::late).collect();
        let latency: Vec<u64> = records.iter().map(Record::latency).collect();
        assert_eq!(late, [0, 5, 10, 15]);
        assert_eq!(latency, [15, 20, 25, 30]);
    }

    #[test]
    fn open_loop_on_schedule_is_never_late() {
        let clock = FakeClock(AtomicU64::new(0));
        let make = |_w: usize| -> Box<dyn Session + '_> {
            Box::new(Fixed {
                clock: &clock,
                service: 4,
                reports: 1,
            })
        };
        let records = open_loop(&clock, &[0, 10, 20], 50, 1, &make);
        assert!(records.iter().all(|r| r.late() == 0 && r.latency() == 4));
        assert_eq!(records[2].due, 70);
    }

    fn rec(latency: u64, reports: u32, served: u32) -> Record {
        Record {
            due: 0,
            sent: 0,
            done: latency,
            reports,
            served,
            error: None,
        }
    }

    #[test]
    fn goodput_counts_each_served_report_of_an_exchange_within_the_limit() {
        let records = [
            rec(5, 32, 32),  // a full trajectory upload: 32 reports
            rec(5, 32, 30),  // two refused inside the array
            rec(50, 32, 32), // past the limit: counts nothing
            rec(10, 1, 1),   // exactly at the limit counts
        ];
        // 63 good reports over half a second.
        assert_eq!(goodput(&records, 10, 500_000_000), 126.0);
        assert_eq!(tally(&records), (97, 2));
    }

    #[test]
    fn closed_loop_stops_at_the_deadline() {
        let clock = FakeClock(AtomicU64::new(0));
        let make = |_w: usize| -> Box<dyn Session + '_> {
            Box::new(Fixed {
                clock: &clock,
                service: 10,
                reports: 32,
            })
        };
        let (records, elapsed) = closed_loop(&clock, 100, 1, &make);
        assert_eq!(records.len(), 10);
        assert_eq!(elapsed, 100);
        assert_eq!(goodput(&records, 10, elapsed), 320.0 * 1e7);
    }
}
