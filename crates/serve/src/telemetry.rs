//! Serving telemetry: atomic counters, lock-free latency histograms, and
//! the [`ServeReport`] the `stats` command and the bench harness render.
//!
//! Counters are plain relaxed atomics — the hot paths (realization
//! queries, event ingestion) touch nothing heavier than a `fetch_add`.
//! Relaxed is enough: no data is published through a counter, and a
//! snapshot tolerates counters (and histogram buckets) read at slightly
//! different moments.
//! Latencies go into fixed power-of-two-bucket histograms (one atomic
//! per bucket), so recording is wait-free and percentiles are read
//! without stopping writers.
//!
//! Following the `ReplayReport` precedent, [`ServeReport`] renders two
//! ways: [`ServeReport::to_json`] includes everything (latency, cache
//! counters), while [`ServeReport::deterministic_json`] carries only
//! fields that are a pure function of the served command sequence — no
//! wall-clock, and no cache hit/miss counts (racing readers may
//! duplicate a realization, shifting a hit to a miss without changing
//! any answer). The deterministic form is what CI byte-compares.

#[expect(clippy::disallowed_types, reason = "latency telemetry only")]
use std::time::Instant;

use pcf_replay::{CacheStats, DegradeStats};
use pcf_rng::json::{Layout, ObjWriter};
use std::sync::atomic::{AtomicU64, Ordering};

/// A started latency measurement (thin wrapper so wall-clock reads stay
/// confined to this module).
pub struct Stopwatch {
    #[expect(clippy::disallowed_types, reason = "latency telemetry only")]
    t0: Instant,
}

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[expect(clippy::disallowed_types, reason = "latency telemetry only")]
            t0: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`].
    pub fn elapsed_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Milliseconds since [`Stopwatch::start`].
    pub fn elapsed_ms(&self) -> u64 {
        self.elapsed_ns() / 1_000_000
    }
}

const BUCKETS: usize = 64;

/// Wait-free latency histogram: bucket `i` counts samples in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 counts 0 ns).
pub struct AtomicHistogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for AtomicHistogram {
    fn default() -> AtomicHistogram {
        AtomicHistogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl AtomicHistogram {
    /// Records one sample.
    pub fn record(&self, ns: u64) {
        let bucket = (64 - ns.leading_zeros() as usize).min(BUCKETS - 1);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// The q-th percentile, reported as the upper bound of its bucket
    /// (a ≤2× overestimate — the right direction for latency SLOs).
    /// Returns 0 when empty; `q` is clamped to `[0, 100]`.
    pub fn percentile_ns(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 100.0) / 100.0;
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << (BUCKETS - 1)
    }

    /// Median (bucket upper bound).
    pub fn p50_ns(&self) -> u64 {
        self.percentile_ns(50.0)
    }

    /// 99th percentile (bucket upper bound).
    pub fn p99_ns(&self) -> u64 {
        self.percentile_ns(99.0)
    }
}

/// All serving counters, shared by every connection thread.
#[derive(Default)]
pub struct Telemetry {
    /// Realization/utilization/admission queries served.
    pub queries: AtomicU64,
    /// Failure events ingested (down/up/wobble/reset).
    pub events: AtomicU64,
    /// Admission checks that admitted.
    pub admitted: AtomicU64,
    /// Admission checks that rejected.
    pub rejected: AtomicU64,
    /// Plan hot-swaps published.
    pub swaps: AtomicU64,
    /// Background re-solves that failed (plan kept at the old epoch).
    pub solve_failures: AtomicU64,
    /// Re-solves warm-started from the previous epoch's cut pool.
    pub warm_epochs: AtomicU64,
    /// Re-solves that ran cold (no pool yet, or one from another instance).
    pub cold_epochs: AtomicU64,
    /// Re-solves whose instance took the previous epoch's tunnels from its
    /// cut pool instead of selecting them again.
    pub tunnel_reuses: AtomicU64,
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Connections rejected at the cap with a `busy` line.
    pub busy_rejects: AtomicU64,
    /// Connections reaped for exceeding the idle timeout.
    pub idle_reaps: AtomicU64,
    /// Lines that failed to parse or named an unknown command.
    pub protocol_errors: AtomicU64,
    /// Per-ladder-stage realization outcomes
    /// (normal/rescaled/shed/failed — same order as `EventStage::code`).
    pub degrade: [AtomicU64; 4],
    /// Largest `Routing::bump` any realization reported: 0 while the
    /// plans served were realized by Prop. 7's walk alone.
    pub max_bump: AtomicU64,
    /// Latency of query commands (realize/util/admit).
    pub query_latency: AtomicHistogram,
    /// Latency of event commands (down/up/wobble/reset).
    pub event_latency: AtomicHistogram,
}

impl Telemetry {
    /// Relaxed increment of one counter.
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a ladder-stage outcome (0 normal, 1 rescaled, 2 shed,
    /// 3 failed).
    pub fn record_stage(&self, code: u8) {
        self.degrade[(code as usize).min(3)].fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one realization's factorization bump into the running max.
    pub fn record_bump(&self, bump: usize) {
        self.max_bump.fetch_max(bump as u64, Ordering::Relaxed);
    }

    /// Snapshots everything into a report (counters are individually
    /// accurate; the set is not mutually atomic — fine for telemetry).
    pub fn snapshot(&self, gen: u64, plan_digest: u64, cache: CacheStats) -> ServeReport {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServeReport {
            gen,
            plan_digest,
            queries: load(&self.queries),
            events: load(&self.events),
            admitted: load(&self.admitted),
            rejected: load(&self.rejected),
            swaps: load(&self.swaps),
            solve_failures: load(&self.solve_failures),
            warm_epochs: load(&self.warm_epochs),
            cold_epochs: load(&self.cold_epochs),
            tunnel_reuses: load(&self.tunnel_reuses),
            connections: load(&self.connections),
            busy_rejects: load(&self.busy_rejects),
            idle_reaps: load(&self.idle_reaps),
            protocol_errors: load(&self.protocol_errors),
            degrade: DegradeStats {
                normal: load(&self.degrade[0]),
                rescaled: load(&self.degrade[1]),
                shed: load(&self.degrade[2]),
                failed: load(&self.degrade[3]),
            },
            max_bump: load(&self.max_bump),
            cache,
            query_p50_ns: self.query_latency.p50_ns(),
            query_p99_ns: self.query_latency.p99_ns(),
            event_p50_ns: self.event_latency.p50_ns(),
            event_p99_ns: self.event_latency.p99_ns(),
        }
    }
}

/// A point-in-time summary of a serving session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeReport {
    /// Published plan generation at snapshot time.
    pub gen: u64,
    /// The plan's content digest.
    pub plan_digest: u64,
    /// Queries served (realize/util/admit).
    pub queries: u64,
    /// Failure events ingested.
    pub events: u64,
    /// Admissions granted.
    pub admitted: u64,
    /// Admissions rejected.
    pub rejected: u64,
    /// Plan hot-swaps published.
    pub swaps: u64,
    /// Failed background re-solves.
    pub solve_failures: u64,
    /// Re-solves warm-started from the previous epoch's cut pool.
    pub warm_epochs: u64,
    /// Re-solves run cold (no pool yet, or one from another instance).
    pub cold_epochs: u64,
    /// Re-solves that reused the previous epoch's tunnels.
    pub tunnel_reuses: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections rejected at the cap.
    pub busy_rejects: u64,
    /// Connections reaped for idling past the timeout.
    pub idle_reaps: u64,
    /// Malformed or unknown commands.
    pub protocol_errors: u64,
    /// Ladder-stage outcomes (normal, rescaled, shed, failed).
    pub degrade: DegradeStats,
    /// Largest factorization bump over the realizations served (0 = every
    /// one was Prop. 7's walk; otherwise rows left to LU elimination).
    pub max_bump: u64,
    /// Shared realization-cache counters of the current epoch.
    pub cache: CacheStats,
    /// Query latency median (bucket upper bound, ns).
    pub query_p50_ns: u64,
    /// Query latency p99 (bucket upper bound, ns).
    pub query_p99_ns: u64,
    /// Event latency median (bucket upper bound, ns).
    pub event_p50_ns: u64,
    /// Event latency p99 (bucket upper bound, ns).
    pub event_p99_ns: u64,
}

impl ServeReport {
    /// Full single-line JSON, latency and cache counters included.
    pub fn to_json(&self) -> String {
        self.json(true)
    }

    /// JSON restricted to fields that are a pure function of the served
    /// command sequence: no latency, no qps, no cache hit/miss counts
    /// (reader races can shift a hit to a miss without changing any
    /// answer). Byte-identical across runs and thread counts for the
    /// same logical session — the CI smoke job compares this form.
    pub fn deterministic_json(&self) -> String {
        self.json(false)
    }

    /// The one field list; connection, cache and latency fields only when `full`.
    fn json(&self, full: bool) -> String {
        let mut out = String::new();
        ObjWriter::new(&mut out)
            .uint("gen", self.gen)
            .str("plan_digest", &format!("{:016x}", self.plan_digest))
            .uint("queries", self.queries)
            .uint("events", self.events)
            .uint("admitted", self.admitted)
            .uint("rejected", self.rejected)
            .uint("swaps", self.swaps)
            .uint("solve_failures", self.solve_failures)
            .uint("warm_epochs", self.warm_epochs)
            .uint("cold_epochs", self.cold_epochs)
            .uint("tunnel_reuses", self.tunnel_reuses)
            .when(full, |w| {
                w.uint("connections", self.connections)
                    .uint("busy_rejects", self.busy_rejects)
                    .uint("idle_reaps", self.idle_reaps)
            })
            .uint("protocol_errors", self.protocol_errors)
            .obj("degrade", Layout::Compact, |w| self.degrade.write_fields(w))
            .uint("max_bump", self.max_bump)
            .when(full, |w| {
                w.obj("cache", Layout::Compact, |w| self.cache.write_fields(w))
                    .obj("latency_ns", Layout::Compact, |w| {
                        w.uint("query_p50", self.query_p50_ns)
                            .uint("query_p99", self.query_p99_ns)
                            .uint("event_p50", self.event_p50_ns)
                            .uint("event_p99", self.event_p99_ns)
                    })
            })
            .finish();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_bracket_samples() {
        let h = AtomicHistogram::default();
        assert_eq!(h.p99_ns(), 0);
        for ns in [100u64, 200, 400, 800, 100_000] {
            h.record(ns);
        }
        assert_eq!(h.count(), 5);
        // Bucket upper bounds: within 2x above the true percentile.
        let p50 = h.p50_ns();
        assert!((256..=512).contains(&p50), "p50 = {p50}");
        let p99 = h.p99_ns();
        assert!((100_000..=262_144).contains(&p99), "p99 = {p99}");
        // Degenerate inputs stay in range.
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 7);
        assert!(h.percentile_ns(0.0) <= h.percentile_ns(100.0));
    }

    #[test]
    fn reports_render_and_deterministic_excludes_latency() {
        let t = Telemetry::default();
        Telemetry::bump(&t.queries);
        Telemetry::bump(&t.events);
        t.record_stage(0);
        t.record_stage(2);
        t.query_latency.record(1234);
        let rep = t.snapshot(3, 0xabcd, CacheStats::default());
        let full = rep.to_json();
        assert!(full.contains("\"latency_ns\""));
        assert!(full.contains("\"gen\":3"));
        assert!(full.contains("000000000000abcd"));
        let det = rep.deterministic_json();
        assert!(!det.contains("latency"), "{det}");
        assert!(!det.contains("cache"), "{det}");
        assert!(det.contains("\"queries\":1"));
        assert!(det.contains("\"shed\":1"));
        // Both forms are themselves valid single-line JSON.
        assert!(crate::Json::parse(&full).is_ok());
        assert!(crate::Json::parse(&det).is_ok());
        assert!(!full.contains('\n'));
    }

    #[test]
    fn full_report_keeps_its_bytes() {
        let rep = ServeReport {
            gen: 3,
            plan_digest: 0xabcd,
            queries: 40,
            events: 7,
            admitted: 5,
            rejected: 2,
            swaps: 1,
            solve_failures: 0,
            warm_epochs: 1,
            cold_epochs: 1,
            tunnel_reuses: 1,
            connections: 4,
            busy_rejects: 1,
            idle_reaps: 2,
            protocol_errors: 3,
            degrade: DegradeStats {
                normal: 30,
                rescaled: 4,
                shed: 5,
                failed: 1,
            },
            max_bump: 6,
            cache: CacheStats {
                hits: 20,
                misses: 8,
                evictions: 2,
                errors: 1,
            },
            query_p50_ns: 2048,
            query_p99_ns: 65536,
            event_p50_ns: 4096,
            event_p99_ns: 131072,
        };
        let full = r#"{"gen":3,"plan_digest":"000000000000abcd","queries":40,"events":7,"admitted":5,"rejected":2,"swaps":1,"solve_failures":0,"warm_epochs":1,"cold_epochs":1,"tunnel_reuses":1,"connections":4,"busy_rejects":1,"idle_reaps":2,"protocol_errors":3,"degrade":{"normal":30,"rescaled":4,"shed":5,"failed":1},"max_bump":6,"cache":{"hits":20,"misses":8,"evictions":2,"errors":1},"latency_ns":{"query_p50":2048,"query_p99":65536,"event_p50":4096,"event_p99":131072}}"#;
        assert_eq!(rep.to_json(), full);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_ns();
        let b = sw.elapsed_ns();
        assert!(b >= a);
        assert!(sw.elapsed_ms() <= 1000);
    }
}
