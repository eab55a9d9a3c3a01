//! Shared-risk link group (SRLG) sidecar files.
//!
//! Real SRLG data (conduits, fiber spans, amplifier huts) lives next to the
//! topology it annotates. This module parses a small line-oriented sidecar
//! format, one group per line:
//!
//! ```text
//! # Abilene.srlg — conduit groups
//! group e0 e3 e7
//! group e2 e5
//! ```
//!
//! Parsing is *strict*: unknown link ids, duplicate links within a group,
//! empty groups, and unrecognised keywords are all rejected with 1-based
//! line numbers (the same diagnostic shape as trace parsing in
//! `pcf-replay`). [`SrlgSet::to_text`] round-trips exactly.

use crate::graph::{LinkId, Topology};
use std::fmt;

/// One shared-risk group: the links that fail together.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrlgGroup {
    /// Member links, in file order.
    pub links: Vec<LinkId>,
}

/// An ordered set of shared-risk groups for one topology.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SrlgSet {
    /// The groups, in file order (trace `srlg <i>` events index into this).
    pub groups: Vec<SrlgGroup>,
}

/// Error from parsing an SRLG sidecar file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrlgParseError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl fmt::Display for SrlgParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "srlg line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for SrlgParseError {}

impl SrlgSet {
    /// Parses sidecar text against a concrete topology.
    ///
    /// Rejects, with the offending 1-based line number:
    /// * tokens that are not `e<index>` link ids,
    /// * link ids outside the topology,
    /// * duplicate links within one group,
    /// * empty groups (`group` with no members),
    /// * lines that do not start with the `group` keyword.
    pub fn parse_strict(text: &str, topo: &Topology) -> Result<Self, SrlgParseError> {
        let mut groups = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let keyword = tokens.next().unwrap_or("");
            if keyword != "group" {
                return Err(SrlgParseError {
                    line,
                    message: format!("expected `group`, found {keyword:?}"),
                });
            }
            let mut links: Vec<LinkId> = Vec::new();
            for tok in tokens {
                let Some(num) = tok.strip_prefix('e') else {
                    return Err(SrlgParseError {
                        line,
                        message: format!("bad link id {tok:?} (expected e<index>)"),
                    });
                };
                let Ok(idx) = num.parse::<u32>() else {
                    return Err(SrlgParseError {
                        line,
                        message: format!("bad link id {tok:?} (expected e<index>)"),
                    });
                };
                if idx as usize >= topo.link_count() {
                    return Err(SrlgParseError {
                        line,
                        message: format!(
                            "unknown link e{idx} (topology has {} links)",
                            topo.link_count()
                        ),
                    });
                }
                let l = LinkId(idx);
                if links.contains(&l) {
                    return Err(SrlgParseError {
                        line,
                        message: format!("duplicate link e{idx} in group"),
                    });
                }
                links.push(l);
            }
            if links.is_empty() {
                return Err(SrlgParseError {
                    line,
                    message: "empty group".to_string(),
                });
            }
            groups.push(SrlgGroup { links });
        }
        Ok(SrlgSet { groups })
    }

    /// Serialises the set back to sidecar text; [`SrlgSet::parse_strict`]
    /// on the output reproduces the set exactly.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for g in &self.groups {
            out.push_str("group");
            for l in &g.links {
                out.push_str(&format!(" e{}", l.index()));
            }
            out.push('\n');
        }
        out
    }

    /// The groups as plain link lists (the shape `FailureModel::srlgs`
    /// and `GroupBudget::new` consume).
    pub fn link_groups(&self) -> Vec<Vec<LinkId>> {
        self.groups.iter().map(|g| g.links.clone()).collect()
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True when the set has no groups.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// A deterministic synthetic SRLG set for topologies without sidecar
    /// data: links are shuffled by a seeded LCG and chunked into `count`
    /// groups of `size` (the tail chunk may be shorter; chunks never reuse a
    /// link). Mirrors how conduit sharing clusters geographically adjacent
    /// links without needing real conduit data.
    pub fn synthetic(topo: &Topology, size: usize, count: usize, seed: u64) -> Self {
        assert!(size > 0, "SRLG group size must be positive");
        let mut order: Vec<u32> = (0..topo.link_count() as u32).collect();
        let mut state = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        for i in (1..order.len()).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let j = ((state >> 33) as usize) % (i + 1);
            order.swap(i, j);
        }
        let groups = order
            .chunks(size)
            .take(count)
            .filter(|c| !c.is_empty())
            .map(|c| {
                let mut links: Vec<LinkId> = c.iter().map(|&i| LinkId(i)).collect();
                links.sort_unstable_by_key(|l| l.index());
                SrlgGroup { links }
            })
            .collect();
        SrlgSet { groups }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn parse_and_round_trip() {
        let t = zoo::build("Abilene");
        let text = "# conduits\ngroup e0 e3 e7\n\ngroup e2 e5 # same duct\n";
        let set = SrlgSet::parse_strict(text, &t).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.groups[0].links, vec![LinkId(0), LinkId(3), LinkId(7)]);
        assert_eq!(set.groups[1].links, vec![LinkId(2), LinkId(5)]);
        let round = SrlgSet::parse_strict(&set.to_text(), &t).unwrap();
        assert_eq!(round, set);
    }

    #[test]
    fn unknown_link_is_rejected_with_line() {
        let t = zoo::build("Abilene"); // 14 links
        let err = SrlgSet::parse_strict("group e0\ngroup e99\n", &t).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown link e99"), "{}", err.message);
    }

    #[test]
    fn duplicate_link_in_group_is_rejected() {
        let t = zoo::build("Abilene");
        let err = SrlgSet::parse_strict("group e1 e2 e1\n", &t).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("duplicate link e1"), "{}", err.message);
    }

    #[test]
    fn empty_group_is_rejected() {
        let t = zoo::build("Abilene");
        let err = SrlgSet::parse_strict("group e0\ngroup\n", &t).unwrap_err();
        assert_eq!(err.line, 2);
        assert_eq!(err.message, "empty group");
    }

    #[test]
    fn bad_tokens_are_rejected() {
        let t = zoo::build("Abilene");
        let err = SrlgSet::parse_strict("srlg e0 e1\n", &t).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("expected `group`"), "{}", err.message);
        let err2 = SrlgSet::parse_strict("group x7\n", &t).unwrap_err();
        assert!(err2.message.contains("bad link id"), "{}", err2.message);
        let err3 = SrlgSet::parse_strict("group e1x\n", &t).unwrap_err();
        assert!(err3.message.contains("bad link id"), "{}", err3.message);
    }

    /// Groups of one and several links, a comment and a blank line.
    const SAMPLE: &str = "# conduits\ngroup e0 e3 e7\n\ngroup e2 # one duct\ngroup e13 e1 e5\n";

    /// The bytes a mutation inserts: the keyword's letters, `e`, digits,
    /// `#`, separators and a few bytes that are not printable ASCII.
    const BYTES: &[u8] = b"groupe#0123456789-+ \t\n\r\x00\xc3\xff";

    #[test]
    fn mutated_sidecars_never_panic_the_parser() {
        let t = zoo::build("Abilene");
        assert_eq!(SrlgSet::parse_strict(SAMPLE, &t).map(|s| s.len()), Ok(3));
        pcf_rng::forall(
            "SrlgSet::parse_strict",
            &pcf_rng::Config::with_cases(2000),
            |rng| pcf_rng::mutate_bytes(SAMPLE.as_bytes(), BYTES, rng),
            pcf_rng::no_shrink,
            |doc: &Vec<u8>| {
                let text = String::from_utf8_lossy(doc);
                match SrlgSet::parse_strict(&text, &t) {
                    Ok(set) => {
                        for g in &set.groups {
                            let mut links = g.links.clone();
                            links.sort_unstable();
                            links.dedup();
                            let known = links.iter().all(|l| l.index() < t.link_count());
                            if links.len() != g.links.len() || links.is_empty() || !known {
                                return Err(format!("accepted a bad group: {g:?}"));
                            }
                        }
                        Ok(())
                    }
                    Err(e) if e.line == 0 || e.line > text.lines().count() => {
                        Err(format!("error outside the document's lines: {e}"))
                    }
                    Err(e) if e.message.is_empty() => Err(format!("error without a message: {e}")),
                    Err(_) => Ok(()),
                }
            },
        );
    }

    #[test]
    fn synthetic_is_deterministic_and_disjoint() {
        let t = zoo::build("Sprint"); // 17 links
        let a = SrlgSet::synthetic(&t, 3, 4, 11);
        let b = SrlgSet::synthetic(&t, 3, 4, 11);
        assert_eq!(a, b);
        assert_eq!(a.len(), 4);
        let mut seen = std::collections::BTreeSet::new();
        for g in &a.groups {
            assert!(!g.links.is_empty() && g.links.len() <= 3);
            for l in &g.links {
                assert!(seen.insert(*l), "link {l:?} reused across groups");
            }
        }
        // Round-trips through the textual format too.
        let round = SrlgSet::parse_strict(&a.to_text(), &t).unwrap();
        assert_eq!(round, a);
    }
}
