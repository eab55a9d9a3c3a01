//! The 21 evaluation topologies (paper §5, Table 3).
//!
//! The paper evaluates on topologies from the Internet Topology Zoo \[22\] and
//! from \[23\]. The original GML files are not redistributable here, so this
//! module generates *synthetic stand-ins* that match Table 3 exactly in node
//! and link counts, are 2-edge-connected (the property the paper enforces by
//! recursively pruning degree-one nodes), and have heterogeneous capacities.
//! Real GML files can be loaded through [`crate::gml`] instead and dropped
//! into any experiment.
//!
//! The generator is deterministic: a ring backbone (which guarantees
//! 2-edge-connectivity) plus locality-biased chords drawn from an RNG seeded
//! by the topology name, mimicking the ring-and-chord structure of real ISP
//! backbones.

use crate::graph::Topology;
use pcf_rng::{Fnv1a, Pcg32};

/// Name, node count, and link count of each evaluation topology (Table 3).
pub const TABLE3: &[(&str, usize, usize)] = &[
    ("B4", 12, 19),
    ("IBM", 17, 23),
    ("ATT", 25, 56),
    ("Quest", 19, 30),
    ("Tinet", 48, 84),
    ("Sprint", 10, 17),
    ("GEANT", 32, 50),
    ("Xeex", 22, 32),
    ("CWIX", 21, 26),
    ("Digex", 31, 35),
    ("IIJ", 27, 55),
    ("JanetBackbone", 29, 45),
    ("Highwinds", 16, 29),
    ("BTNorthAmerica", 36, 76),
    ("CRLNetwork", 32, 37),
    ("Darkstrand", 28, 31),
    ("Integra", 23, 32),
    ("Xspedius", 33, 47),
    ("InternetMCI", 18, 32),
    ("Deltacom", 103, 151),
    ("ION", 114, 135),
];

/// Extra buildable topologies outside the paper's Table 3 — small
/// well-known networks used by the chaos/fault-injection harness, where a
/// quick solve matters more than matching the paper's evaluation set.
pub const EXTRAS: &[(&str, usize, usize)] = &[
    // The Internet2/Abilene backbone: 11 PoPs, 14 links.
    ("Abilene", 11, 14),
];

/// Capacity tiers in abstract units, loosely mirroring 1/2.5/5/10 Gbps WAN
/// link classes.
const CAPACITY_TIERS: &[f64] = &[1.0, 2.5, 5.0, 10.0];

/// Names of every buildable topology: the 21 evaluation topologies
/// followed by [`EXTRAS`].
pub fn names() -> Vec<&'static str> {
    TABLE3
        .iter()
        .chain(EXTRAS.iter())
        .map(|&(n, _, _)| n)
        .collect()
}

/// FNV-1a hash of the topology name, used as the deterministic RNG seed.
fn seed_for(name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write_bytes(name.as_bytes());
    h.finish()
}

/// Builds the named topology ([`TABLE3`] or [`EXTRAS`]), or `None` for an
/// unknown name. Use this from request-handling code where the name comes
/// from outside.
pub fn try_build(name: &str) -> Option<Topology> {
    let &(_, n, m) = TABLE3
        .iter()
        .chain(EXTRAS.iter())
        .find(|&&(t, _, _)| t == name)?;
    Some(synthetic(name, n, m))
}

/// Builds the named topology ([`TABLE3`] or [`EXTRAS`]).
///
/// # Panics
/// Panics if `name` is not one of [`TABLE3`] or [`EXTRAS`]; use
/// [`try_build`] when the name is untrusted.
pub fn build(name: &str) -> Topology {
    // audit:allow(no-panic-paths, documented contract; fallible path is try_build, and every in-tree caller passes a literal table name)
    try_build(name).unwrap_or_else(|| panic!("unknown zoo topology {name:?}"))
}

/// Builds all 21 evaluation topologies, smallest link count first.
pub fn build_all() -> Vec<Topology> {
    let mut specs: Vec<_> = TABLE3.to_vec();
    specs.sort_by_key(|&(_, _, m)| m);
    specs
        .iter()
        .map(|&(name, n, m)| synthetic(name, n, m))
        .collect()
}

/// Deterministically generates a simple 2-edge-connected topology with
/// exactly `n` nodes and `m` links.
///
/// # Panics
/// Panics unless `3 <= n <= m <= n*(n-1)/2`.
pub fn synthetic(name: &str, n: usize, m: usize) -> Topology {
    assert!(n >= 3, "need at least 3 nodes, got {n}");
    assert!(
        m >= n,
        "a 2-edge-connected simple graph needs m >= n ({m} < {n})"
    );
    assert!(m <= n * (n - 1) / 2, "too many links for a simple graph");
    let mut rng = Pcg32::seed_from_u64(seed_for(name));
    let mut topo = Topology::new(name.to_string());
    let nodes: Vec<_> = (0..n)
        .map(|i| topo.add_node(format!("{name}-{i}")))
        .collect();
    let mut have = std::collections::HashSet::new();
    let cap = |rng: &mut Pcg32| {
        // Mild preference for thin links, as in real WAN inventories.
        let r: f64 = rng.f64();
        let idx = if r < 0.35 {
            0
        } else if r < 0.65 {
            1
        } else if r < 0.85 {
            2
        } else {
            3
        };
        CAPACITY_TIERS[idx]
    };
    // Ring backbone: guarantees 2-edge-connectivity.
    for i in 0..n {
        let j = (i + 1) % n;
        have.insert((i.min(j), i.max(j)));
        let c = cap(&mut rng);
        topo.add_link(nodes[i], nodes[j], c);
    }
    // Locality-biased chords: short skips are more likely than long hauls,
    // mimicking regional shortcut links in ISP backbones.
    let mut remaining = m - n;
    let mut attempts = 0usize;
    while remaining > 0 {
        attempts += 1;
        assert!(attempts < 100_000, "chord sampling failed to converge");
        let i = rng.range_usize(0, n);
        // Skip distance: 2..n/2, geometric-ish bias toward short skips.
        let max_skip = (n / 2).max(2);
        let skip = if rng.f64() < 0.7 {
            rng.range_usize_inclusive(2, max_skip.min(4))
        } else {
            rng.range_usize_inclusive(2, max_skip)
        };
        let j = (i + skip) % n;
        if i == j {
            continue;
        }
        let key = (i.min(j), i.max(j));
        if have.contains(&key) {
            continue;
        }
        have.insert(key);
        let c = cap(&mut rng);
        topo.add_link(nodes[i], nodes[j], c);
        remaining -= 1;
    }
    topo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::prune_degree_one;

    #[test]
    fn table3_matches_paper_totals() {
        assert_eq!(TABLE3.len(), 21);
        let deltacom = TABLE3.iter().find(|t| t.0 == "Deltacom").unwrap();
        assert_eq!((deltacom.1, deltacom.2), (103, 151));
        let ion = TABLE3.iter().find(|t| t.0 == "ION").unwrap();
        assert_eq!((ion.1, ion.2), (114, 135));
    }

    #[test]
    fn every_topology_matches_counts_and_is_two_edge_connected() {
        for &(name, n, m) in TABLE3 {
            let t = build(name);
            assert_eq!(t.node_count(), n, "{name} node count");
            assert_eq!(t.link_count(), m, "{name} link count");
            assert!(
                t.is_two_edge_connected(),
                "{name} must survive any single link failure"
            );
        }
    }

    #[test]
    fn extras_build_by_name_without_joining_table3() {
        assert_eq!(TABLE3.len(), 21);
        let t = build("Abilene");
        assert_eq!(t.node_count(), 11);
        assert_eq!(t.link_count(), 14);
        assert!(t.is_two_edge_connected());
        assert!(names().contains(&"Abilene"));
        assert!(!TABLE3.iter().any(|&(n, _, _)| n == "Abilene"));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = build("GEANT");
        let b = build("GEANT");
        assert_eq!(a.link_count(), b.link_count());
        for l in a.links() {
            assert_eq!(a.link(l).u, b.link(l).u);
            assert_eq!(a.link(l).v, b.link(l).v);
            assert_eq!(a.capacity(l), b.capacity(l));
        }
    }

    #[test]
    fn pruning_is_a_no_op_on_generated_topologies() {
        // Already 2-edge-connected, so the paper's degree-one pruning keeps
        // every node.
        let t = build("Sprint");
        let (p, _) = prune_degree_one(&t);
        assert_eq!(p.node_count(), t.node_count());
        assert_eq!(p.link_count(), t.link_count());
    }

    #[test]
    fn capacities_are_heterogeneous_tiers() {
        let t = build("Deltacom");
        let mut tiers: Vec<f64> = t.links().map(|l| t.capacity(l)).collect();
        tiers.sort_by(|a, b| a.total_cmp(b));
        tiers.dedup();
        assert!(
            tiers.len() >= 3,
            "expected several capacity tiers, got {tiers:?}"
        );
        assert!(tiers.iter().all(|c| CAPACITY_TIERS.contains(c)));
    }

    #[test]
    #[should_panic(expected = "unknown zoo topology")]
    fn unknown_name_panics() {
        build("NotANetwork");
    }

    #[test]
    fn build_all_is_sorted_by_size() {
        let all = build_all();
        assert_eq!(all.len(), 21);
        let sizes: Vec<_> = all.iter().map(|t| t.link_count()).collect();
        let mut sorted = sizes.clone();
        sorted.sort();
        assert_eq!(sizes, sorted);
    }
}
