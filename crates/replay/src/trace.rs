//! Event traces: scripted or generated sequences of link up/down events.
//!
//! A trace is what the replay engine consumes — an ordered list of
//! [`LinkEvent`]s, each flipping one link's liveness. Traces come from
//! three places:
//!
//! * scripted files ([`EventTrace::parse`] / [`EventTrace::to_text`]) with
//!   one `down <link>`, `up <link>`, `wobble <link> <permille>`, or
//!   `degrade <link> <permille>` per line — plus the correlated verbs
//!   `srlg <group>` and `node <id>` that [`EventTrace::parse`] expands into
//!   the member links' down events;
//! * the deterministic generators ([`EventTrace::flaps`],
//!   [`EventTrace::srlg_bursts`], [`EventTrace::rolling_maintenance`]),
//!   seeded through [`pcf_rng::Pcg32`] so the same seed reproduces the
//!   same trace on every platform;
//! * test code constructing event lists directly.
//!
//! Generators only emit *state-changing* events (a link goes down only
//! while up, and vice versa), and [`EventTrace::flaps`] additionally keeps
//! the number of concurrently dead links at or below its `max_down` bound,
//! so a plan solved for `f = max_down` failures should replay
//! violation-free.

use pcf_rng::Pcg32;
use pcf_topology::{LinkId, Topology};
use std::ops::RangeInclusive;

/// The `wobble` permille a validated trace or request may carry: a
/// zero-capacity link is scripted as `down`, not as a wobble to 0.
pub const WOBBLE_PERMILLE: RangeInclusive<u32> = 1..=2000;

/// The `degrade` permille a validated trace or request may carry:
/// degradation never exceeds nominal, and total loss is scripted as `down`.
pub const DEGRADE_PERMILLE: RangeInclusive<u32> = 1..=1000;

/// Direction of a link state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The link fails.
    Down,
    /// The link is repaired.
    Up,
    /// The link's capacity changes to `permille`/1000 of nominal (an
    /// integer so event equality and trace round-trips stay exact).
    /// `1000` restores nominal capacity; values above it model headroom.
    ///
    /// Wobbles are *capacity-blind* to realization: they only move the bar
    /// overload judging measures against. Contrast [`EventKind::Degrade`].
    Wobble {
        /// New capacity in thousandths of the nominal one.
        permille: u32,
    },
    /// Partial-capacity degradation: the link stays alive but only
    /// `permille`/1000 of its nominal capacity survives (a fiber cut in a
    /// bundle, a brown-out). Unlike [`EventKind::Wobble`], degradation is
    /// visible to realization — the engine rescales reservations riding
    /// the link and keys its realization cache on the degradation
    /// pattern. `1000` restores the link to undegraded.
    Degrade {
        /// Surviving capacity in thousandths of the nominal one (`1..=1000`).
        permille: u32,
    },
}

/// One link state change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// The link whose state flips.
    pub link: LinkId,
    /// Down, up, or a capacity wobble.
    pub kind: EventKind,
}

/// An ordered sequence of link events applied to an initially all-alive
/// topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventTrace {
    /// Human-readable trace name (generator + parameters, or file stem).
    pub name: String,
    /// The events, in replay order.
    pub events: Vec<LinkEvent>,
}

/// Error from parsing a scripted trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line of the offending entry.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for TraceParseError {}

impl EventTrace {
    /// Wraps an explicit event list.
    pub fn new(name: impl Into<String>, events: Vec<LinkEvent>) -> Self {
        EventTrace {
            name: name.into(),
            events,
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when the trace has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Largest number of simultaneously dead links over the trace
    /// (idempotent events — down while down, up while up — don't count).
    pub fn max_concurrent_down(&self) -> usize {
        let n = self
            .events
            .iter()
            .map(|e| e.link.index() + 1)
            .max()
            .unwrap_or(0);
        let mut dead = vec![false; n];
        let mut now = 0usize;
        let mut peak = 0usize;
        for e in &self.events {
            match e.kind {
                EventKind::Down if !dead[e.link.index()] => {
                    dead[e.link.index()] = true;
                    now += 1;
                    peak = peak.max(now);
                }
                EventKind::Up if dead[e.link.index()] => {
                    dead[e.link.index()] = false;
                    now -= 1;
                }
                _ => {}
            }
        }
        peak
    }

    /// Independent link flaps: at each step a random alive link dies or a
    /// random dead link recovers, never exceeding `max_down` concurrent
    /// failures. With `max_down = 0` the trace is empty.
    pub fn flaps(topo: &Topology, count: usize, max_down: usize, seed: u64) -> Self {
        let n = topo.link_count();
        let max_down = max_down.min(n);
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut dead: Vec<LinkId> = Vec::new();
        let mut alive: Vec<LinkId> = topo.links().collect();
        let mut events = Vec::with_capacity(count);
        if max_down > 0 {
            while events.len() < count {
                let go_down = if dead.is_empty() {
                    true
                } else if dead.len() == max_down || alive.is_empty() {
                    false
                } else {
                    rng.chance(0.5)
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
        EventTrace::new(
            format!("flaps(n={count},max_down={max_down},seed={seed})"),
            events,
        )
    }

    /// Correlated SRLG bursts: repeatedly picks a random group, fails every
    /// link in it, then repairs them all before the next burst. Concurrent
    /// failures reach the largest group's size.
    pub fn srlg_bursts(groups: &[Vec<LinkId>], count: usize, seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut events = Vec::with_capacity(count);
        let usable: Vec<&Vec<LinkId>> = groups.iter().filter(|g| !g.is_empty()).collect();
        if !usable.is_empty() {
            while events.len() < count {
                let group = *rng.pick(&usable);
                for &l in group {
                    events.push(LinkEvent {
                        link: l,
                        kind: EventKind::Down,
                    });
                }
                for &l in group {
                    events.push(LinkEvent {
                        link: l,
                        kind: EventKind::Up,
                    });
                }
            }
            events.truncate(count);
        }
        EventTrace::new(format!("srlg_bursts(n={count},seed={seed})"), events)
    }

    /// Rolling maintenance: takes links down one at a time, in a seeded
    /// random order, repairing each before the next goes down (at most one
    /// link is ever dead). Cycles through the topology as often as `count`
    /// requires.
    pub fn rolling_maintenance(topo: &Topology, count: usize, seed: u64) -> Self {
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut order: Vec<LinkId> = topo.links().collect();
        let mut events = Vec::with_capacity(count);
        if !order.is_empty() {
            while events.len() < count {
                rng.shuffle(&mut order);
                for &l in &order {
                    events.push(LinkEvent {
                        link: l,
                        kind: EventKind::Down,
                    });
                    events.push(LinkEvent {
                        link: l,
                        kind: EventKind::Up,
                    });
                }
            }
            events.truncate(count);
        }
        EventTrace::new(
            format!("rolling_maintenance(n={count},seed={seed})"),
            events,
        )
    }

    /// Parses the scripted format and validates it against `topo` and the
    /// SRLG `groups` table (e.g. `SrlgSet::link_groups()` from the
    /// topology's sidecar file; empty when there is none). One directive
    /// per line; blank lines and `#` comments are ignored. Links are given
    /// by index, with or without the `e` prefix the CLI prints (`down 3`
    /// and `down e3` are the same event):
    ///
    /// * `down <link>` / `up <link>` — the link must exist; `down` of an
    ///   already-dead link and `up` of an alive one are rejected (duplicate
    ///   or contradictory state changes usually mean a corrupt or
    ///   misordered trace);
    /// * `wobble <link> <permille>` — permille in [`WOBBLE_PERMILLE`] (a
    ///   zero-capacity link is scripted as `down`);
    /// * `degrade <link> <permille>` — permille in [`DEGRADE_PERMILLE`]
    ///   (degradation never exceeds nominal; total loss is scripted as
    ///   `down`);
    /// * `srlg <group>` — fails every link of group `<group>` (0-based
    ///   index into `groups`); members already down are skipped, so
    ///   overlapping groups compose;
    /// * `node <id>` — fails every link incident to node `<id>`, again
    ///   skipping members already down.
    ///
    /// Every line is read before any is validated, so a malformed line is
    /// reported even when an earlier one is well-formed but invalid. Errors
    /// carry the offending line number. The correlated verbs expand into
    /// plain per-link down events (recovery is scripted with per-link `up`
    /// lines), so the returned trace replays on an unmodified engine and
    /// [`EventTrace::to_text`] emits the expansion.
    pub fn parse(
        name: impl Into<String>,
        text: &str,
        topo: &Topology,
        groups: &[Vec<LinkId>],
    ) -> Result<Self, TraceParseError> {
        let mut events = Vec::new();
        let mut dead = vec![false; topo.link_count()];
        let check_link = |idx: usize, line: usize| -> Result<(), TraceParseError> {
            if idx >= topo.link_count() {
                return Err(TraceParseError {
                    line,
                    message: format!(
                        "unknown link e{idx}: topology {:?} has {} links",
                        topo.name(),
                        topo.link_count()
                    ),
                });
            }
            Ok(())
        };
        for (line, d) in parse_directives(text)? {
            match d {
                Directive::Event(e) => {
                    let idx = e.link.index();
                    check_link(idx, line)?;
                    match e.kind {
                        EventKind::Down => {
                            if dead[idx] {
                                return Err(TraceParseError {
                                    line,
                                    message: format!("duplicate down: link e{idx} is already down"),
                                });
                            }
                            dead[idx] = true;
                        }
                        EventKind::Up => {
                            if !dead[idx] {
                                return Err(TraceParseError {
                                    line,
                                    message: format!("spurious up: link e{idx} is not down"),
                                });
                            }
                            dead[idx] = false;
                        }
                        EventKind::Wobble { permille } => {
                            if !WOBBLE_PERMILLE.contains(&permille) {
                                return Err(TraceParseError {
                                    line,
                                    message: format!(
                                        "wobble permille {permille} out of range {WOBBLE_PERMILLE:?}"
                                    ),
                                });
                            }
                        }
                        EventKind::Degrade { permille } => {
                            if !DEGRADE_PERMILLE.contains(&permille) {
                                return Err(TraceParseError {
                                    line,
                                    message: format!(
                                        "degrade permille {permille} out of range \
                                         {DEGRADE_PERMILLE:?} (script total loss as `down`)"
                                    ),
                                });
                            }
                        }
                    }
                    events.push(e);
                }
                Directive::Srlg(g) => {
                    let Some(members) = groups.get(g as usize) else {
                        return Err(TraceParseError {
                            line,
                            message: format!(
                                "unknown srlg group {g} (table has {} groups)",
                                groups.len()
                            ),
                        });
                    };
                    for &l in members {
                        check_link(l.index(), line)?;
                        if !dead[l.index()] {
                            dead[l.index()] = true;
                            events.push(LinkEvent {
                                link: l,
                                kind: EventKind::Down,
                            });
                        }
                    }
                }
                Directive::Node(n) => {
                    if n as usize >= topo.node_count() {
                        return Err(TraceParseError {
                            line,
                            message: format!(
                                "unknown node {n}: topology {:?} has {} nodes",
                                topo.name(),
                                topo.node_count()
                            ),
                        });
                    }
                    for l in topo.links() {
                        if topo.link(l).touches(pcf_topology::NodeId(n)) && !dead[l.index()] {
                            dead[l.index()] = true;
                            events.push(LinkEvent {
                                link: l,
                                kind: EventKind::Down,
                            });
                        }
                    }
                }
            }
        }
        Ok(EventTrace::new(name, events))
    }

    /// Renders the scripted format [`EventTrace::parse`] reads.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(8 * self.events.len() + self.name.len() + 3);
        out.push_str(&format!("# {}\n", self.name));
        for e in &self.events {
            match e.kind {
                EventKind::Down => out.push_str(&format!("down {}\n", e.link.index())),
                EventKind::Up => out.push_str(&format!("up {}\n", e.link.index())),
                EventKind::Wobble { permille } => {
                    out.push_str(&format!("wobble {} {permille}\n", e.link.index()))
                }
                EventKind::Degrade { permille } => {
                    out.push_str(&format!("degrade {} {permille}\n", e.link.index()))
                }
            }
        }
        out
    }
}

/// One parsed trace line: a plain link event, or a correlated verb that
/// still needs resolution context to expand.
enum Directive {
    Event(LinkEvent),
    /// `srlg <group>` — 0-based index into an SRLG group table.
    Srlg(u32),
    /// `node <id>` — fail every link incident to this node.
    Node(u32),
}

/// The shared scripted-format reader: directives tagged with their 1-based
/// source line so validation can point at the offending entry.
fn parse_directives(text: &str) -> Result<Vec<(usize, Directive)>, TraceParseError> {
    let mut directives = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let mut parts = line.split_whitespace();
        let Some(verb) = parts.next() else {
            continue; // blank or comment-only line
        };
        let lineno = i + 1;
        let directive = match verb {
            "down" => Directive::Event(LinkEvent {
                link: next_link(&mut parts, "down", lineno)?,
                kind: EventKind::Down,
            }),
            "up" => Directive::Event(LinkEvent {
                link: next_link(&mut parts, "up", lineno)?,
                kind: EventKind::Up,
            }),
            "wobble" => {
                let link = next_link(&mut parts, "wobble", lineno)?;
                let permille = next_permille(&mut parts, "wobble", lineno)?;
                Directive::Event(LinkEvent {
                    link,
                    kind: EventKind::Wobble { permille },
                })
            }
            "degrade" => {
                let link = next_link(&mut parts, "degrade", lineno)?;
                let permille = next_permille(&mut parts, "degrade", lineno)?;
                Directive::Event(LinkEvent {
                    link,
                    kind: EventKind::Degrade { permille },
                })
            }
            "srlg" => Directive::Srlg(next_index(&mut parts, "srlg", "group index", lineno)?),
            "node" => Directive::Node(next_index(&mut parts, "node", "node index", lineno)?),
            other => {
                return Err(TraceParseError {
                    line: lineno,
                    message: format!(
                        "expected `down`, `up`, `wobble`, `degrade`, `srlg`, or `node`, \
                         got {other:?}"
                    ),
                })
            }
        };
        if let Some(extra) = parts.next() {
            return Err(TraceParseError {
                line: lineno,
                message: format!("trailing token {extra:?}"),
            });
        }
        directives.push((lineno, directive));
    }
    Ok(directives)
}

/// Reads and parses the `<link>` argument of a trace verb.
fn next_link(
    parts: &mut std::str::SplitWhitespace<'_>,
    verb: &str,
    lineno: usize,
) -> Result<LinkId, TraceParseError> {
    let arg = parts.next().ok_or_else(|| TraceParseError {
        line: lineno,
        message: format!("`{verb}` needs a link index"),
    })?;
    let digits = arg.strip_prefix('e').unwrap_or(arg);
    let link: u32 = digits.parse().map_err(|_| TraceParseError {
        line: lineno,
        message: format!("bad link index {arg:?}"),
    })?;
    Ok(LinkId(link))
}

/// Reads the `<permille>` argument of `wobble` / `degrade`.
fn next_permille(
    parts: &mut std::str::SplitWhitespace<'_>,
    verb: &str,
    lineno: usize,
) -> Result<u32, TraceParseError> {
    let arg = parts.next().ok_or_else(|| TraceParseError {
        line: lineno,
        message: format!("`{verb}` needs a permille after the link"),
    })?;
    arg.parse().map_err(|_| TraceParseError {
        line: lineno,
        message: format!("bad {verb} permille {arg:?}"),
    })
}

/// Reads a bare numeric argument (`srlg <group>`, `node <id>`).
fn next_index(
    parts: &mut std::str::SplitWhitespace<'_>,
    verb: &str,
    what: &str,
    lineno: usize,
) -> Result<u32, TraceParseError> {
    let arg = parts.next().ok_or_else(|| TraceParseError {
        line: lineno,
        message: format!("`{verb}` needs a {what}"),
    })?;
    arg.parse().map_err(|_| TraceParseError {
        line: lineno,
        message: format!("bad {what} {arg:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_topology::zoo;

    /// Parses against Sprint (17 links) with no SRLG table.
    fn parse(text: &str) -> Result<EventTrace, TraceParseError> {
        EventTrace::parse("t", text, &zoo::build("Sprint"), &[])
    }

    /// Every directive, both link spellings, a comment and a blank line.
    const SAMPLE: &str = "# maintenance window\ndown e3\nwobble 5 1500\n\
        degrade e7 250\nsrlg 1\nup 3\nnode 2 # spur\n\nup e1\ndown 16\n";

    /// The bytes a mutation inserts: the verbs' letters, digits, `e`,
    /// `#`, separators and a few bytes that are not printable ASCII.
    const BYTES: &[u8] = b"downupwbledgrasn e#0123456789-+. \t\n\r\x00\xc3\xff";

    #[test]
    fn mutated_traces_never_panic_the_parser() {
        let topo = zoo::build("Sprint");
        let groups = vec![vec![LinkId(0), LinkId(4)], vec![LinkId(1), LinkId(2)]];
        assert!(EventTrace::parse("sample", SAMPLE, &topo, &groups).is_ok());
        pcf_rng::forall(
            "EventTrace::parse",
            &pcf_rng::Config::with_cases(2000),
            |rng| pcf_rng::mutate_bytes(SAMPLE.as_bytes(), BYTES, rng),
            pcf_rng::no_shrink,
            |doc: &Vec<u8>| {
                let text = String::from_utf8_lossy(doc);
                match EventTrace::parse("fuzz", &text, &topo, &groups) {
                    Ok(trace) => match trace.events.iter().find(|e| e.link.index() >= 17) {
                        Some(e) => Err(format!("accepted an unknown link: {e:?}")),
                        None => Ok(()),
                    },
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
    fn flaps_respect_the_concurrency_bound() {
        let topo = zoo::build("Sprint");
        for max_down in 1..4 {
            let t = EventTrace::flaps(&topo, 500, max_down, 42);
            assert_eq!(t.len(), 500);
            assert!(t.max_concurrent_down() <= max_down);
            // Links referenced exist.
            for e in &t.events {
                assert!(e.link.index() < topo.link_count());
            }
        }
    }

    #[test]
    fn flaps_are_deterministic_per_seed() {
        let topo = zoo::build("Sprint");
        assert_eq!(
            EventTrace::flaps(&topo, 200, 2, 7),
            EventTrace::flaps(&topo, 200, 2, 7)
        );
        assert_ne!(
            EventTrace::flaps(&topo, 200, 2, 7).events,
            EventTrace::flaps(&topo, 200, 2, 8).events
        );
    }

    #[test]
    fn srlg_bursts_fail_groups_atomically() {
        let groups = vec![vec![LinkId(0), LinkId(1)], vec![LinkId(4)]];
        let t = EventTrace::srlg_bursts(&groups, 100, 3);
        assert_eq!(t.len(), 100);
        assert!(t.max_concurrent_down() <= 2);
    }

    #[test]
    fn rolling_maintenance_keeps_one_link_down() {
        let topo = zoo::build("Sprint");
        let t = EventTrace::rolling_maintenance(&topo, 120, 5);
        assert_eq!(t.len(), 120);
        assert_eq!(t.max_concurrent_down(), 1);
    }

    #[test]
    fn scripted_round_trip() {
        let t = EventTrace::new(
            "scripted",
            vec![
                LinkEvent {
                    link: LinkId(3),
                    kind: EventKind::Down,
                },
                LinkEvent {
                    link: LinkId(3),
                    kind: EventKind::Up,
                },
            ],
        );
        let parsed = EventTrace::parse("scripted", &t.to_text(), &zoo::build("Sprint"), &[]);
        assert_eq!(parsed.unwrap(), t);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("explode 3").is_err());
        assert!(parse("down").is_err());
        assert!(parse("down x").is_err());
        assert!(parse("down 1 2").is_err());
        assert!(parse("wobble 1").is_err());
        assert!(parse("wobble 1 x").is_err());
        // Comments and blanks are fine; the printed `e<idx>` form parses.
        let ok = parse("# header\n\ndown 1 # inline\nup e1\n").unwrap();
        assert_eq!(ok.len(), 2);
        assert_eq!(ok.events[0].link, ok.events[1].link);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = parse("down 1\n\n# fine\nbogus 2\n").unwrap_err();
        assert_eq!(err.line, 4);
        assert!(err.to_string().contains("line 4"), "{err}");
        let err = parse("up 1\ndown\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn wobble_round_trips_through_text() {
        let t = EventTrace::new(
            "wobbly",
            vec![
                LinkEvent {
                    link: LinkId(2),
                    kind: EventKind::Wobble { permille: 850 },
                },
                LinkEvent {
                    link: LinkId(2),
                    kind: EventKind::Wobble { permille: 1000 },
                },
            ],
        );
        let parsed = EventTrace::parse("wobbly", &t.to_text(), &zoo::build("Sprint"), &[]);
        assert_eq!(parsed.unwrap(), t);
        // Wobbles never count as concurrent failures.
        assert_eq!(t.max_concurrent_down(), 0);
    }

    #[test]
    fn strict_parse_validates_against_the_topology() {
        let topo = zoo::build("Sprint"); // 17 links
        let ok = EventTrace::parse("t", "down 3\nwobble 4 500\nup 3\n", &topo, &[]);
        assert_eq!(ok.unwrap().len(), 3);
        // Unknown link, with the line number.
        let err = EventTrace::parse("t", "down 3\ndown 99\n", &topo, &[]).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown link e99"), "{err}");
        // Duplicate down / spurious up.
        let err = EventTrace::parse("t", "down 3\ndown 3\n", &topo, &[]).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("duplicate down"), "{err}");
        let err = EventTrace::parse("t", "up 3\n", &topo, &[]).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("spurious up"), "{err}");
        // Wobble range.
        let err = EventTrace::parse("t", "wobble 3 0\n", &topo, &[]).unwrap_err();
        assert!(err.message.contains("out of range"), "{err}");
        let err = EventTrace::parse("t", "wobble 3 2001\n", &topo, &[]).unwrap_err();
        assert_eq!(err.line, 1);
    }

    #[test]
    fn degrade_round_trips_and_is_range_checked() {
        let topo = zoo::build("Sprint");
        let t = EventTrace::parse("t", "degrade 2 400\ndegrade e2 1000\n", &topo, &[]).unwrap();
        assert_eq!(
            t.events,
            vec![
                LinkEvent {
                    link: LinkId(2),
                    kind: EventKind::Degrade { permille: 400 },
                },
                LinkEvent {
                    link: LinkId(2),
                    kind: EventKind::Degrade { permille: 1000 },
                },
            ]
        );
        assert_eq!(parse(&t.to_text()).unwrap(), t);
        // Degradation never counts as a concurrent failure.
        assert_eq!(t.max_concurrent_down(), 0);
        // Range 1..=1000: zero capacity and headroom are both rejected.
        let err = EventTrace::parse("t", "degrade 2 0\n", &topo, &[]).unwrap_err();
        assert!(err.message.contains("out of range 1..=1000"), "{err}");
        let err = EventTrace::parse("t", "down 1\ndegrade 2 1001\n", &topo, &[]).unwrap_err();
        assert_eq!(err.line, 2);
        // Missing / malformed arguments carry line numbers.
        assert!(parse("degrade 2").is_err());
        assert!(parse("degrade 2 x").is_err());
    }

    #[test]
    fn srlg_and_node_verbs_expand_to_member_downs() {
        let topo = zoo::build("Abilene");
        let groups = vec![vec![LinkId(0), LinkId(3)], vec![LinkId(3), LinkId(5)]];
        // Overlapping groups compose: e3 is already down when srlg 1 fires.
        let t =
            EventTrace::parse("t", "srlg 0\nsrlg 1\nup 0\nup 3\nup 5\n", &topo, &groups).unwrap();
        let downs: Vec<LinkId> = t
            .events
            .iter()
            .filter(|e| e.kind == EventKind::Down)
            .map(|e| e.link)
            .collect();
        assert_eq!(downs, vec![LinkId(0), LinkId(3), LinkId(5)]);
        assert_eq!(t.max_concurrent_down(), 3);
        // node <id> fails exactly the incident links.
        let n = pcf_topology::NodeId(0);
        let t = EventTrace::parse("t", "node 0\n", &topo, &groups).unwrap();
        let expect: Vec<LinkId> = topo.links().filter(|&l| topo.link(l).touches(n)).collect();
        let got: Vec<LinkId> = t.events.iter().map(|e| e.link).collect();
        assert_eq!(got, expect);
        assert!(t.events.iter().all(|e| e.kind == EventKind::Down));
        // The expansion is a valid trace in its own right.
        assert!(EventTrace::parse("t", &t.to_text(), &topo, &[]).is_ok());
    }

    #[test]
    fn correlated_verbs_are_validated_with_line_numbers() {
        let topo = zoo::build("Abilene"); // 11 nodes
        let groups = vec![vec![LinkId(0)]];
        let err = EventTrace::parse("t", "srlg 0\nsrlg 7\n", &topo, &groups).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("unknown srlg group 7"), "{err}");
        let err = EventTrace::parse("t", "node 99\n", &topo, &groups).unwrap_err();
        assert_eq!(err.line, 1);
        assert!(err.message.contains("unknown node 99"), "{err}");
        // Without a group table every srlg index is unknown.
        let err = EventTrace::parse("t", "srlg 0\n", &topo, &[]).unwrap_err();
        assert!(err.message.contains("table has 0 groups"), "{err}");
        // Bad arguments.
        assert!(parse("srlg\n").is_err());
        assert!(parse("node x\n").is_err());
        assert!(parse("srlg 0 1\n").is_err());
    }
}
