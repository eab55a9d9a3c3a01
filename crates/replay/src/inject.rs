//! Deterministic fault injection: adversarial traces for the degradation
//! ladder.
//!
//! The generators in [`crate::trace`] stay *within* a failure budget so a
//! correct plan replays violation-free. [`FaultInjector`] does the
//! opposite: it manufactures scenarios the plan was never solved for —
//! simultaneous failures beyond `f`, capacity wobble, and corrupt trace
//! text — to prove the serving path is total (every event answers with a
//! routing and a ladder stage, never a panic or a blank entry).
//!
//! All generators are seeded through [`pcf_rng`], so a given injector
//! seed reproduces the same chaos bit-for-bit on every platform; each
//! method derives an independent stream from the injector seed and a
//! method tag, so traces from one injector don't correlate.

use pcf_rng::{Pcg32, SplitMix64};
use pcf_topology::{LinkId, Topology};

use crate::trace::{EventKind, EventTrace, LinkEvent};

/// Factory for adversarial, deterministically seeded event traces.
#[derive(Debug, Clone, Copy)]
pub struct FaultInjector {
    seed: u64,
}

impl FaultInjector {
    /// Creates an injector; the seed fixes every trace it will produce.
    pub fn new(seed: u64) -> Self {
        FaultInjector { seed }
    }

    /// Derives an independent generator for one method (`tag`) so the
    /// injector's streams don't overlap.
    fn stream(&self, tag: u64) -> Pcg32 {
        let mut sm = SplitMix64::new(self.seed ^ tag.wrapping_mul(0x9e3779b97f4a7c15));
        Pcg32::new(sm.next_u64(), sm.next_u64())
    }

    /// Beyond-budget bursts: each burst fails `f + 1` or `f + 2` links
    /// *simultaneously* — strictly more than a plan solved for `f`
    /// tolerates — holds the failure, then repairs everything before the
    /// next burst. Replaying one of these against an `f`-resilient plan
    /// must push the engine off stage 1.
    pub fn beyond_budget_bursts(&self, topo: &Topology, bursts: usize, f: usize) -> EventTrace {
        let mut rng = self.stream(0xb0b5);
        let n = topo.link_count();
        let mut links: Vec<LinkId> = topo.links().collect();
        let mut events = Vec::new();
        for _ in 0..bursts {
            let k = (f + 1 + rng.range_usize(0, 2)).min(n);
            rng.shuffle(&mut links);
            for &l in &links[..k] {
                events.push(LinkEvent {
                    link: l,
                    kind: EventKind::Down,
                });
            }
            for &l in &links[..k] {
                events.push(LinkEvent {
                    link: l,
                    kind: EventKind::Up,
                });
            }
        }
        EventTrace::new(
            format!(
                "beyond_budget_bursts(bursts={bursts},f={f},seed={})",
                self.seed
            ),
            events,
        )
    }

    /// Capacity wobble: random links sag to a capacity in
    /// `[min_permille, 999]` permille of nominal, then recover to 1000,
    /// in squeeze/restore pairs. Liveness never changes, so the
    /// realization is untouched — only the overload checks move.
    /// `min_permille` is clamped to `1..=999`.
    pub fn capacity_wobble(&self, topo: &Topology, count: usize, min_permille: u32) -> EventTrace {
        let mut rng = self.stream(0x30bb1e);
        let min_permille = min_permille.clamp(1, 999);
        let links: Vec<LinkId> = topo.links().collect();
        let mut events = Vec::with_capacity(count);
        if !links.is_empty() {
            while events.len() < count {
                let link = *rng.pick(&links);
                let permille = rng.range_usize(min_permille as usize, 1000) as u32;
                events.push(LinkEvent {
                    link,
                    kind: EventKind::Wobble { permille },
                });
                events.push(LinkEvent {
                    link,
                    kind: EventKind::Wobble { permille: 1000 },
                });
            }
            events.truncate(count);
        }
        EventTrace::new(
            format!(
                "capacity_wobble(n={count},min={min_permille},seed={})",
                self.seed
            ),
            events,
        )
    }

    /// Everything at once: interleaved failures (up to `f + 2` links dead
    /// concurrently — beyond budget), repairs, and capacity wobbles in
    /// `[300, 1500]` permille. The stress diet for the ladder: some
    /// events stay on stage 1, some rescale, some shed.
    pub fn chaos(&self, topo: &Topology, count: usize, f: usize) -> EventTrace {
        let mut rng = self.stream(0xc4405);
        let n = topo.link_count();
        let max_down = (f + 2).min(n);
        let mut alive: Vec<LinkId> = topo.links().collect();
        let mut dead: Vec<LinkId> = Vec::new();
        let mut events = Vec::with_capacity(count);
        if n > 0 {
            while events.len() < count {
                if rng.chance(0.25) {
                    // Wobble any link, dead or alive (wobbling a dead
                    // link is legal: capacity applies once it recovers).
                    let link = LinkId(rng.range_usize(0, n) as u32);
                    let permille = rng.range_usize(300, 1501) as u32;
                    events.push(LinkEvent {
                        link,
                        kind: EventKind::Wobble { permille },
                    });
                    continue;
                }
                let go_down = if dead.is_empty() {
                    true
                } else if dead.len() == max_down || alive.is_empty() {
                    false
                } else {
                    rng.chance(0.55)
                };
                let (from, to) = if go_down {
                    (&mut alive, &mut dead)
                } else {
                    (&mut dead, &mut alive)
                };
                let i = rng.range_usize(0, from.len());
                let link = from.swap_remove(i);
                to.push(link);
                events.push(LinkEvent {
                    link,
                    kind: if go_down {
                        EventKind::Down
                    } else {
                        EventKind::Up
                    },
                });
            }
        }
        EventTrace::new(format!("chaos(n={count},f={f},seed={})", self.seed), events)
    }

    /// Partial-capacity degradation storm: random links degrade to a
    /// surviving capacity in `[min_permille, 999]` permille of nominal,
    /// then restore to 1000, in squeeze/restore pairs. Unlike
    /// [`FaultInjector::capacity_wobble`] these events are
    /// realization-visible — the engine rescales the reservations riding
    /// each degraded link. `min_permille` is clamped to `1..=999`.
    pub fn degradation_storm(
        &self,
        topo: &Topology,
        count: usize,
        min_permille: u32,
    ) -> EventTrace {
        let mut rng = self.stream(0xd364ade);
        let min_permille = min_permille.clamp(1, 999);
        let links: Vec<LinkId> = topo.links().collect();
        let mut events = Vec::with_capacity(count);
        if !links.is_empty() {
            while events.len() < count {
                let link = *rng.pick(&links);
                let permille = rng.range_usize(min_permille as usize, 1000) as u32;
                events.push(LinkEvent {
                    link,
                    kind: EventKind::Degrade { permille },
                });
                events.push(LinkEvent {
                    link,
                    kind: EventKind::Degrade { permille: 1000 },
                });
            }
            events.truncate(count);
        }
        EventTrace::new(
            format!(
                "degradation_storm(n={count},min={min_permille},seed={})",
                self.seed
            ),
            events,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn bursts_exceed_the_budget_and_repair_fully() {
        let topo = zoo::build("Sprint");
        for f in 0..3 {
            let t = FaultInjector::new(11).beyond_budget_bursts(&topo, 5, f);
            assert!(
                t.max_concurrent_down() > f,
                "f={f}: peak {} should exceed the budget",
                t.max_concurrent_down()
            );
            // Every down is matched by an up, so the trace ends all-alive.
            let mut down = vec![0i32; topo.link_count()];
            for e in &t.events {
                match e.kind {
                    EventKind::Down => down[e.link.index()] += 1,
                    EventKind::Up => down[e.link.index()] -= 1,
                    EventKind::Wobble { .. } | EventKind::Degrade { .. } => {}
                }
            }
            assert!(down.iter().all(|&d| d == 0));
        }
    }

    #[test]
    fn injector_traces_are_deterministic_per_seed() {
        let topo = zoo::build("Sprint");
        let a = FaultInjector::new(9);
        let b = FaultInjector::new(9);
        assert_eq!(
            a.beyond_budget_bursts(&topo, 4, 1),
            b.beyond_budget_bursts(&topo, 4, 1)
        );
        assert_eq!(a.chaos(&topo, 50, 1), b.chaos(&topo, 50, 1));
        assert_ne!(
            a.chaos(&topo, 50, 1).events,
            FaultInjector::new(10).chaos(&topo, 50, 1).events
        );
    }

    #[test]
    fn wobble_trace_passes_strict_validation() {
        let topo = zoo::build("Sprint");
        let t = FaultInjector::new(3).capacity_wobble(&topo, 40, 500);
        assert_eq!(t.len(), 40);
        assert_eq!(t.max_concurrent_down(), 0);
        let strict = EventTrace::parse("w", &t.to_text(), &topo, &[]);
        assert!(strict.is_ok(), "{strict:?}");
        for e in &t.events {
            match e.kind {
                EventKind::Wobble { permille } => assert!((500..=1000).contains(&permille)),
                _ => panic!("wobble trace emitted a liveness event"),
            }
        }
    }

    #[test]
    fn chaos_stays_state_changing_and_in_range() {
        let topo = zoo::build("Sprint");
        let t = FaultInjector::new(21).chaos(&topo, 200, 1);
        assert_eq!(t.len(), 200);
        assert!(t.max_concurrent_down() <= 3); // f + 2
        let mut dead = vec![false; topo.link_count()];
        for e in &t.events {
            assert!(e.link.index() < topo.link_count());
            match e.kind {
                EventKind::Down => {
                    assert!(!dead[e.link.index()], "idempotent down");
                    dead[e.link.index()] = true;
                }
                EventKind::Up => {
                    assert!(dead[e.link.index()], "spurious up");
                    dead[e.link.index()] = false;
                }
                EventKind::Wobble { permille } => assert!((300..=1500).contains(&permille)),
                EventKind::Degrade { .. } => panic!("chaos does not emit degrades"),
            }
        }
    }

    #[test]
    fn degradation_storm_passes_strict_validation() {
        let topo = zoo::build("Sprint");
        let inj = FaultInjector::new(5);
        let t = inj.degradation_storm(&topo, 40, 400);
        assert_eq!(t.len(), 40);
        assert_eq!(t.max_concurrent_down(), 0);
        assert_eq!(t, FaultInjector::new(5).degradation_storm(&topo, 40, 400));
        let strict = EventTrace::parse("d", &t.to_text(), &topo, &[]);
        assert!(strict.is_ok(), "{strict:?}");
        for e in &t.events {
            match e.kind {
                EventKind::Degrade { permille } => {
                    assert!((400..=1000).contains(&permille))
                }
                _ => panic!("degradation storm emitted a non-degrade event"),
            }
        }
    }

    #[test]
    fn malformed_traces_fail_to_parse_with_a_line_number() {
        let topo = zoo::build("Sprint");
        let filler = ["down 0", "# comment", "wobble 1 500", "up 0", ""];
        let poison = [
            "explode 3".to_string(),
            "down".to_string(),
            "down x7".to_string(),
            "up 4 5".to_string(),
            "wobble 2".to_string(),
            "wobble 2 not-a-number".to_string(),
            format!("down {}", u64::from(u32::MAX) + 1),
        ];
        for bad in &poison {
            for at in 0..12 {
                let mut lines: Vec<&str> = (0..12).map(|i| filler[i % filler.len()]).collect();
                lines[at] = bad;
                let text = lines.join("\n");
                let err = EventTrace::parse("fuzz", &text, &topo, &[])
                    .expect_err("poisoned trace parsed cleanly");
                assert_eq!(err.line, at + 1, "{bad:?} at line {}", at + 1);
            }
        }
    }
}
