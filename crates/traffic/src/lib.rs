//! Traffic matrix generation for the PCF reproduction.
//!
//! The paper (§5) uses the gravity model \[40\] to generate traffic matrices,
//! scaled so that the utilization of the most congested link (MLU) lands in
//! `[0.6, 0.63]`, and twelve matrices per topology "to model a traffic
//! matrix every 2 hours".
//!
//! This crate provides the gravity model and diurnal multi-matrix sets; the
//! MLU normalisation itself needs an optimal concurrent-flow solve and
//! therefore lives in `pcf-core::scale`.

#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

use pcf_rng::Pcg32;
use pcf_topology::{NodeId, Topology};

/// A dense traffic matrix: demand per ordered node pair.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    n: usize,
    demand: Vec<f64>, // n x n row-major, diagonal zero
}

impl TrafficMatrix {
    /// Creates an all-zero matrix over `n` nodes.
    pub fn zeros(n: usize) -> Self {
        TrafficMatrix {
            n,
            demand: vec![0.0; n * n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Demand from `s` to `t` (zero on the diagonal).
    #[inline]
    pub fn demand(&self, s: NodeId, t: NodeId) -> f64 {
        self.demand[s.index() * self.n + t.index()]
    }

    /// Sets the demand from `s` to `t`.
    ///
    /// # Panics
    /// Panics on the diagonal, negative, or non-finite demand.
    pub fn set_demand(&mut self, s: NodeId, t: NodeId, d: f64) {
        assert!(s != t, "diagonal demand is meaningless");
        assert!(d.is_finite() && d >= 0.0, "demand must be non-negative");
        self.demand[s.index() * self.n + t.index()] = d;
    }

    /// Total demand over all pairs.
    pub fn total(&self) -> f64 {
        self.demand.iter().sum()
    }

    /// Multiplies every demand by `factor`.
    pub fn scale(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0);
        for d in &mut self.demand {
            *d *= factor;
        }
    }

    /// A copy scaled by `factor`.
    pub fn scaled(&self, factor: f64) -> TrafficMatrix {
        let mut tm = self.clone();
        tm.scale(factor);
        tm
    }

    /// All ordered pairs with strictly positive demand.
    pub fn positive_pairs(&self) -> Vec<(NodeId, NodeId, f64)> {
        let mut out = Vec::new();
        for s in 0..self.n {
            for t in 0..self.n {
                let d = self.demand[s * self.n + t];
                if d > 0.0 {
                    out.push((NodeId(s as u32), NodeId(t as u32), d));
                }
            }
        }
        out
    }

    /// Keeps only the largest demands covering at least `fraction` of the
    /// total demand mass, zeroing the rest. Returns the number of pairs kept.
    ///
    /// Used to keep LP sizes tractable on the largest topologies; the
    /// truncation is reported by the experiment harness.
    pub fn truncate_to_mass(&mut self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        let mut pairs = self.positive_pairs();
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
        let total = self.total();
        let mut kept_mass = 0.0;
        let mut kept = 0usize;
        let mut keep = vec![false; self.n * self.n];
        for (s, t, d) in &pairs {
            if kept_mass >= fraction * total && kept > 0 {
                break;
            }
            keep[s.index() * self.n + t.index()] = true;
            kept_mass += d;
            kept += 1;
        }
        for s in 0..self.n {
            for t in 0..self.n {
                if !keep[s * self.n + t] {
                    self.demand[s * self.n + t] = 0.0;
                }
            }
        }
        kept
    }

    /// Keeps only the `k` largest demands, zeroing the rest.
    pub fn truncate_to_top_k(&mut self, k: usize) -> usize {
        let mut pairs = self.positive_pairs();
        pairs.sort_by(|a, b| b.2.total_cmp(&a.2));
        pairs.truncate(k);
        let mut keep = vec![false; self.n * self.n];
        for (s, t, _) in &pairs {
            keep[s.index() * self.n + t.index()] = true;
        }
        for (d, k) in self.demand.iter_mut().zip(&keep) {
            if !k {
                *d = 0.0;
            }
        }
        pairs.len()
    }
}

/// Gravity-model traffic: node masses are proportional to total incident
/// capacity perturbed by a lognormal-ish factor, and
/// `d(s,t) ∝ mass(s) * mass(t)`.
///
/// The matrix is normalised so total demand equals the topology's total
/// capacity; use `pcf-core::scale` to renormalise to a target MLU as the
/// paper does. Deterministic in `seed`.
pub fn gravity(topo: &Topology, seed: u64) -> TrafficMatrix {
    let n = topo.node_count();
    let mut rng = Pcg32::seed_from_u64(seed);
    let mut mass = vec![0.0f64; n];
    for u in topo.nodes() {
        let cap: f64 = topo
            .incident(u)
            .iter()
            .map(|&(_, l)| topo.capacity(l))
            .sum();
        // Multiplicative noise keeps masses positive and skewed, like city
        // populations in the original gravity formulation.
        let noise = rng.normal();
        mass[u.index()] = cap * (0.25 * noise).exp();
    }
    let mass_sum: f64 = mass.iter().sum();
    let mut tm = TrafficMatrix::zeros(n);
    for s in topo.nodes() {
        for t in topo.nodes() {
            if s != t {
                let d = mass[s.index()] * mass[t.index()] / (mass_sum * mass_sum);
                tm.set_demand(s, t, d);
            }
        }
    }
    // Normalise: total demand = total capacity (MLU scaling comes later).
    let total = tm.total();
    if total > 0.0 {
        tm.scale(topo.total_capacity() / total);
    }
    tm
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    #[test]
    fn gravity_is_deterministic_and_positive() {
        let t = zoo::build("Sprint");
        let a = gravity(&t, 7);
        let b = gravity(&t, 7);
        for (s, tt) in t.node_pairs() {
            assert_eq!(a.demand(s, tt), b.demand(s, tt));
            assert!(a.demand(s, tt) > 0.0);
        }
    }

    #[test]
    fn gravity_seeds_differ() {
        let t = zoo::build("Sprint");
        let a = gravity(&t, 1);
        let b = gravity(&t, 2);
        let any_diff = t
            .node_pairs()
            .any(|(s, tt)| (a.demand(s, tt) - b.demand(s, tt)).abs() > 1e-12);
        assert!(any_diff);
    }

    #[test]
    fn gravity_total_matches_capacity() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 3);
        assert!((tm.total() - t.total_capacity()).abs() < 1e-6 * t.total_capacity());
    }

    #[test]
    fn diagonal_is_zero() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 3);
        for u in t.nodes() {
            assert_eq!(tm.demand(u, u), 0.0);
        }
    }

    #[test]
    fn scale_multiplies_all_entries() {
        let t = zoo::build("Sprint");
        let tm = gravity(&t, 5);
        let tm2 = tm.scaled(2.0);
        for (s, tt) in t.node_pairs() {
            assert!((tm2.demand(s, tt) - 2.0 * tm.demand(s, tt)).abs() < 1e-12);
        }
    }

    #[test]
    fn truncate_to_mass_keeps_heaviest() {
        let t = zoo::build("Sprint");
        let mut tm = gravity(&t, 5);
        let before = tm.total();
        let kept = tm.truncate_to_mass(0.9);
        assert!(kept > 0);
        assert!(tm.total() >= 0.9 * before - 1e-9);
        assert!(kept < t.node_count() * (t.node_count() - 1));
    }

    #[test]
    fn truncate_top_k() {
        let t = zoo::build("Sprint");
        let mut tm = gravity(&t, 5);
        let kept = tm.truncate_to_top_k(10);
        assert_eq!(kept, 10);
        assert_eq!(tm.positive_pairs().len(), 10);
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_set_panics() {
        let mut tm = TrafficMatrix::zeros(3);
        tm.set_demand(NodeId(0), NodeId(0), 1.0);
    }
}
