//! Workload definitions and seeded input generation.
//!
//! Every rate and latency limit is a constant here and is repeated in the
//! workload's `why` line in `BENCHMARK.json` (a test keeps the two in
//! step). Nothing is derived at run time. The seed decides which user
//! reports from which check-in; arrivals are evenly spaced, and the city
//! (and so the prior the channels are solved for) is fixed, so neither
//! burstiness nor set-up work varies with the seed.

use geoind::data::checkin::Dataset;
use geoind::rng::{Rng, SeededRng};
use geoind::spatial::geom::Point;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// One serving workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Open-loop arrival rate in location reports per second.
    pub rate: f64,
    /// Latency limit for `goodput_rps`, in milliseconds.
    pub limit_ms: f64,
    /// Points per `POST /protect` exchange (1 = a single object).
    pub batch: usize,
    /// Whether a warm standby acks every spend.
    pub replicated: bool,
}

impl Workload {
    /// Exchanges per second of the open-loop schedule.
    pub fn exchange_rate(&self) -> f64 {
        self.rate / self.batch as f64
    }

    pub fn limit_ns(&self) -> u64 {
        (self.limit_ms * 1e6) as u64
    }
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "point-durable",
        rate: 2000.0,
        limit_ms: 10.0,
        batch: 1,
        replicated: false,
    },
    Workload {
        name: "batch-durable",
        rate: 4000.0,
        limit_ms: 20.0,
        batch: 32,
        replicated: false,
    },
    Workload {
        name: "point-replicated",
        rate: 150.0,
        limit_ms: 20.0,
        batch: 1,
        replicated: true,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Distinct app users (ids `1..=USERS`); every one is charged once in
/// the untimed warm-up.
pub const USERS: u64 = 20_000;
/// Check-ins and dataset users of the synthetic Austin-like city (the
/// `geoind serve` defaults).
pub const CITY_CHECKINS: usize = 80_000;
pub const CITY_USERS: usize = 8_000;
/// The realistic MSM: g = 4, fixed height 3 (1 + 16 + 256 = 273
/// channels), ε = 0.5 per report, prior at the CLI's fine granularity.
pub const G: u32 = 4;
pub const HEIGHT: u32 = 3;
pub const CHANNELS: usize = 273;
pub const EPS: f64 = 0.5;
pub const PRIOR_GRANULARITY: u32 = 64;
pub const SHARDS: usize = 4;
/// High enough that no workload ever exhausts a budget.
pub const CAP_PER_USER: f64 = 1e9;
/// Share of `--seconds` spent in the open-loop phase; the rest is the
/// closed-loop phase.
pub const OPEN_SHARE: f64 = 2.0 / 3.0;
/// Stacks built per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// One `POST /protect` exchange: a user and the points it reports.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub user: u64,
    pub points: Vec<Point>,
}

/// Draws exchanges for one workload from the city's check-ins.
pub struct Generator<'a> {
    workload: Workload,
    city: &'a Dataset,
    rng: SeededRng,
}

impl<'a> Generator<'a> {
    /// `stream` separates independent draws made from one seed.
    pub fn new(workload: Workload, city: &'a Dataset, seed: u64, stream: u64) -> Self {
        let mut mix = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            workload,
            city,
            rng: SeededRng::from_seed(geoind::rng::splitmix64(&mut mix)),
        }
    }

    pub fn exchange(&mut self) -> Exchange {
        let user = 1 + self.rng.gen_u64_below(USERS);
        let checkins = self.city.checkins();
        let points = (0..self.workload.batch)
            .map(|_| checkins[self.rng.gen_u64_below(checkins.len() as u64) as usize].location)
            .collect();
        Exchange { user, points }
    }

    /// A constant-rate schedule at the workload's exchange rate covering
    /// `seconds`: due offsets in nanoseconds plus the exchanges. Evenly
    /// spaced arrivals keep the seed from deciding how bursty a run is;
    /// the seed decides who reports what.
    pub fn open_loop(&mut self, seconds: f64) -> (Vec<u64>, Vec<Exchange>) {
        let n = (self.workload.exchange_rate() * seconds).ceil() as usize;
        let gap_ns = 1e9 / self.workload.exchange_rate();
        let due = (0..n).map(|i| (i as f64 * gap_ns) as u64).collect();
        let items = (0..n).map(|_| self.exchange()).collect();
        (due, items)
    }
}

/// Mints idempotency ids that never repeat within a run, so the server's
/// retry table can never answer a benchmark request with a replay.
#[derive(Debug, Default)]
pub struct IdMint(AtomicU64);

impl IdMint {
    /// Reserve `n` consecutive ids; returns the first.
    pub fn take(&self, n: usize) -> u64 {
        1 + self.0.fetch_add(n as u64, Ordering::Relaxed)
    }
}

/// The JSON body of `ex` with ids starting at `first_id`: one object for
/// a single point, an array for a batch.
pub fn body(ex: &Exchange, first_id: u64) -> String {
    let mut out = String::with_capacity(64 * ex.points.len());
    let array = ex.points.len() > 1;
    if array {
        out.push('[');
    }
    for (k, p) in ex.points.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"user\":{},\"id\":{},\"x\":{},\"y\":{}}}",
            ex.user,
            first_id + k as u64,
            p.x,
            p.y
        );
    }
    if array {
        out.push(']');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoind::data::synth::SyntheticCity;

    fn city() -> Dataset {
        SyntheticCity::austin_like().generate_with_size(2_000, 200)
    }

    #[test]
    fn same_seed_same_inputs_and_every_point_is_in_the_domain() {
        let city = city();
        let w = find("batch-durable").expect("workload");
        let (d1, a) = Generator::new(w, &city, 7, 1).open_loop(2.0);
        let (d2, b) = Generator::new(w, &city, 7, 1).open_loop(2.0);
        let (_, c) = Generator::new(w, &city, 8, 1).open_loop(2.0);
        assert_eq!(d1, d2);
        assert_eq!(a.len(), 250);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.user == y.user && x.points == y.points));
        assert!(a.iter().zip(&c).any(|(x, y)| x.points != y.points));
        let dom = city.domain();
        for ex in &a {
            assert_eq!(ex.points.len(), 32);
            assert!((1..=USERS).contains(&ex.user));
            assert!(ex.points.iter().all(|p| p.x >= dom.min.x
                && p.x < dom.max.x
                && p.y >= dom.min.y
                && p.y < dom.max.y));
        }
        assert!(d1.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn ids_are_unique_across_takes() {
        let mint = IdMint::default();
        assert_eq!(mint.take(32), 1);
        assert_eq!(mint.take(1), 33);
        assert_eq!(mint.take(1), 34);
    }

    #[test]
    fn bodies_are_objects_or_arrays() {
        let one = Exchange {
            user: 5,
            points: vec![Point::new(1.5, 2.0)],
        };
        assert_eq!(body(&one, 9), r#"{"user":5,"id":9,"x":1.5,"y":2}"#);
        let two = Exchange {
            user: 5,
            points: vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)],
        };
        assert_eq!(
            body(&two, 1),
            r#"[{"user":5,"id":1,"x":1,"y":2},{"user":5,"id":2,"x":3,"y":4}]"#
        );
    }

    /// The rates and limits in `BENCHMARK.json`'s `why` lines are the
    /// constants above, for every workload the file lists.
    #[test]
    fn benchmark_json_records_these_constants() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let mut listed = 0;
        for w in WORKLOADS {
            let Some(at) = text.find(&format!("\"name\": \"{}\"", w.name)) else {
                continue;
            };
            listed += 1;
            let why = &text[at..text[at..].find('}').map_or(text.len(), |e| at + e)];
            assert!(
                why.contains(&format!("{} reports/s", w.rate)),
                "{}: rate {} not in {why}",
                w.name,
                w.rate
            );
            assert!(
                why.contains(&format!("{} ms limit", w.limit_ms)),
                "{}: limit {} not in {why}",
                w.name,
                w.limit_ms
            );
        }
        assert!(listed >= 2, "BENCHMARK.json lists {listed} known workloads");
    }
}
