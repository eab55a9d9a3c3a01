//! A small parser for Internet Topology Zoo GML files.
//!
//! The evaluation in this repository runs on synthetic stand-ins
//! ([`crate::zoo`]), but real Zoo `.gml` files can be parsed with
//! [`parse_gml`] and used anywhere a [`Topology`] is accepted.
//!
//! The parser understands the subset of GML the Zoo uses:
//!
//! ```text
//! graph [
//!   node [ id 0 label "Seattle" ]
//!   edge [ source 0 target 1 LinkSpeedRaw 1.0E9 ]
//! ]
//! ```
//!
//! Duplicate edges are kept (parallel links are legal), self loops are
//! dropped, and missing capacities default to 1.0. `LinkSpeedRaw` values are
//! normalised to Gbps.

use crate::graph::{NodeId, Topology};
use std::collections::BTreeMap;
use std::fmt;

/// Error raised by [`parse_gml`].
#[derive(Debug, Clone, PartialEq)]
pub enum GmlError {
    /// The token stream ended inside a structure.
    UnexpectedEof,
    /// A `node` block had no `id`.
    NodeWithoutId,
    /// An `edge` block was missing `source` or `target`.
    EdgeWithoutEndpoints,
    /// An edge referenced a node id never declared.
    UnknownNode(i64),
    /// A numeric field failed to parse.
    BadNumber(String),
}

impl fmt::Display for GmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GmlError::UnexpectedEof => write!(f, "unexpected end of GML input"),
            GmlError::NodeWithoutId => write!(f, "node block without an id"),
            GmlError::EdgeWithoutEndpoints => write!(f, "edge block missing source/target"),
            GmlError::UnknownNode(id) => write!(f, "edge references undeclared node {id}"),
            GmlError::BadNumber(s) => write!(f, "could not parse number {s:?}"),
        }
    }
}

impl std::error::Error for GmlError {}

/// One GML token: a bare word/number or a quoted string.
#[derive(Debug, PartialEq)]
enum Token {
    Word(String),
    Str(String),
    Open,
    Close,
}

fn tokenize(src: &str) -> Vec<Token> {
    let mut out = Vec::new();
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '[' => {
                chars.next();
                out.push(Token::Open);
            }
            ']' => {
                chars.next();
                out.push(Token::Close);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                for c in chars.by_ref() {
                    if c == '"' {
                        break;
                    }
                    s.push(c);
                }
                out.push(Token::Str(s));
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line.
                for c in chars.by_ref() {
                    if c == '\n' {
                        break;
                    }
                }
            }
            _ => {
                let mut w = String::new();
                while let Some(&c) = chars.peek() {
                    if c.is_whitespace() || c == '[' || c == ']' {
                        break;
                    }
                    w.push(c);
                    chars.next();
                }
                out.push(Token::Word(w));
            }
        }
    }
    out
}

/// Skips a `[...]` block (already positioned after `[`), handling nesting.
fn skip_block(tokens: &[Token], mut i: usize) -> Result<usize, GmlError> {
    let mut depth = 1usize;
    while depth > 0 {
        match tokens.get(i) {
            Some(Token::Open) => depth += 1,
            Some(Token::Close) => depth -= 1,
            Some(_) => {}
            None => return Err(GmlError::UnexpectedEof),
        }
        i += 1;
    }
    Ok(i)
}

/// A finite number; `inf`, `nan` and overflowing literals (`1e400`) are
/// [`GmlError::BadNumber`], like any other text that is not a number.
fn parse_number(tok: &Token) -> Result<f64, GmlError> {
    let text = match tok {
        Token::Word(w) | Token::Str(w) => w,
        _ => return Err(GmlError::BadNumber("[".into())),
    };
    match text.parse::<f64>() {
        Ok(x) if x.is_finite() => Ok(x),
        _ => Err(GmlError::BadNumber(text.clone())),
    }
}

/// Parses a Topology Zoo GML document into a [`Topology`].
///
/// The topology name is taken from the graph-level `label` (falling back to
/// `Networks/unnamed`). Self loops are dropped. Capacities come from
/// `LinkSpeedRaw` (bits/s, normalised to Gbps) when present, else 1.0.
pub fn parse_gml(src: &str) -> Result<Topology, GmlError> {
    let tokens = tokenize(src);
    let mut name = String::from("unnamed");
    // (gml id, label)
    let mut nodes: Vec<(i64, String)> = Vec::new();
    // (source, target, capacity)
    let mut edges: Vec<(i64, i64, f64)> = Vec::new();

    let mut i = 0usize;
    let mut depth = 0usize;
    while i < tokens.len() {
        match &tokens[i] {
            Token::Open => {
                depth += 1;
                i += 1;
            }
            Token::Close => {
                depth = depth.saturating_sub(1);
                i += 1;
            }
            Token::Word(w) if w == "label" && depth == 1 => {
                if let Some(Token::Str(s)) = tokens.get(i + 1) {
                    name = s.clone();
                    i += 2;
                } else {
                    i += 1;
                }
            }
            Token::Word(w) if w == "node" && depth == 1 => {
                // expect: node [ ... ]
                if tokens.get(i + 1) != Some(&Token::Open) {
                    i += 1;
                    continue;
                }
                let mut j = i + 2;
                let mut id: Option<i64> = None;
                let mut label: Option<String> = None;
                while tokens.get(j) != Some(&Token::Close) {
                    match tokens.get(j) {
                        Some(Token::Word(k)) if k == "id" => {
                            id = Some(parse_number(
                                tokens.get(j + 1).ok_or(GmlError::UnexpectedEof)?,
                            )? as i64);
                            j += 2;
                        }
                        Some(Token::Word(k)) if k == "label" => {
                            if let Some(Token::Str(s)) = tokens.get(j + 1) {
                                label = Some(s.clone());
                            }
                            j += 2;
                        }
                        Some(Token::Open) => j = skip_block(&tokens, j + 1)?,
                        Some(_) => j += 1,
                        None => return Err(GmlError::UnexpectedEof),
                    }
                }
                let id = id.ok_or(GmlError::NodeWithoutId)?;
                nodes.push((id, label.unwrap_or_else(|| format!("node{id}"))));
                i = j + 1;
            }
            Token::Word(w) if w == "edge" && depth == 1 => {
                if tokens.get(i + 1) != Some(&Token::Open) {
                    i += 1;
                    continue;
                }
                let mut j = i + 2;
                let (mut src_id, mut dst_id, mut cap) = (None, None, None);
                while tokens.get(j) != Some(&Token::Close) {
                    match tokens.get(j) {
                        Some(Token::Word(k)) if k == "source" => {
                            src_id = Some(parse_number(
                                tokens.get(j + 1).ok_or(GmlError::UnexpectedEof)?,
                            )? as i64);
                            j += 2;
                        }
                        Some(Token::Word(k)) if k == "target" => {
                            dst_id = Some(parse_number(
                                tokens.get(j + 1).ok_or(GmlError::UnexpectedEof)?,
                            )? as i64);
                            j += 2;
                        }
                        Some(Token::Word(k)) if k == "LinkSpeedRaw" => {
                            // bits/s -> Gbps
                            let raw =
                                parse_number(tokens.get(j + 1).ok_or(GmlError::UnexpectedEof)?)?;
                            cap = Some((raw / 1e9).max(1e-3));
                            j += 2;
                        }
                        Some(Token::Open) => j = skip_block(&tokens, j + 1)?,
                        Some(_) => j += 1,
                        None => return Err(GmlError::UnexpectedEof),
                    }
                }
                let s = src_id.ok_or(GmlError::EdgeWithoutEndpoints)?;
                let t = dst_id.ok_or(GmlError::EdgeWithoutEndpoints)?;
                edges.push((s, t, cap.unwrap_or(1.0)));
                i = j + 1;
            }
            _ => i += 1,
        }
    }

    let mut topo = Topology::new(name);
    let mut id_map: BTreeMap<i64, NodeId> = BTreeMap::new();
    for (id, label) in nodes {
        let nid = topo.add_node(label);
        id_map.insert(id, nid);
    }
    for (s, t, c) in edges {
        if s == t {
            continue; // self loops carry no routing meaning
        }
        let su = *id_map.get(&s).ok_or(GmlError::UnknownNode(s))?;
        let tu = *id_map.get(&t).ok_or(GmlError::UnknownNode(t))?;
        topo.add_link(su, tu, c);
    }
    Ok(topo)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
        # Zoo-style sample
        graph [
          label "SampleNet"
          node [ id 0 label "A" Longitude -1.5 ]
          node [ id 1 label "B" ]
          node [ id 2 label "C" ]
          edge [ source 0 target 1 LinkSpeedRaw 10000000000 ]
          edge [ source 1 target 2 ]
          edge [ source 2 target 0 ]
        ]
    "#;

    #[test]
    fn parses_nodes_edges_and_name() {
        let t = parse_gml(SAMPLE).unwrap();
        assert_eq!(t.name(), "SampleNet");
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.link_count(), 3);
        assert_eq!(t.node_name(NodeId(0)), "A");
    }

    #[test]
    fn link_speed_raw_becomes_gbps() {
        let t = parse_gml(SAMPLE).unwrap();
        let l = t
            .links()
            .find(|&l| t.link(l).touches(NodeId(0)) && t.link(l).touches(NodeId(1)))
            .unwrap();
        assert!((t.capacity(l) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn missing_capacity_defaults_to_one() {
        let t = parse_gml(SAMPLE).unwrap();
        let l = t
            .links()
            .find(|&l| t.link(l).touches(NodeId(1)) && t.link(l).touches(NodeId(2)))
            .unwrap();
        assert_eq!(t.capacity(l), 1.0);
    }

    #[test]
    fn self_loops_are_dropped() {
        let src = r#"graph [ node [ id 0 ] node [ id 1 ]
            edge [ source 0 target 0 ] edge [ source 0 target 1 ] ]"#;
        let t = parse_gml(src).unwrap();
        assert_eq!(t.link_count(), 1);
    }

    #[test]
    fn parallel_edges_are_kept() {
        let src = r#"graph [ node [ id 0 ] node [ id 1 ]
            edge [ source 0 target 1 ] edge [ source 0 target 1 ] ]"#;
        let t = parse_gml(src).unwrap();
        assert_eq!(t.link_count(), 2);
    }

    #[test]
    fn unknown_node_is_an_error() {
        let src = r#"graph [ node [ id 0 ] edge [ source 0 target 9 ] ]"#;
        assert_eq!(parse_gml(src).unwrap_err(), GmlError::UnknownNode(9));
    }

    #[test]
    fn edge_without_endpoints_is_an_error() {
        let src = r#"graph [ node [ id 0 ] edge [ source 0 ] ]"#;
        assert_eq!(parse_gml(src).unwrap_err(), GmlError::EdgeWithoutEndpoints);
    }

    #[test]
    fn nested_unknown_blocks_are_skipped() {
        let src = r#"graph [
            node [ id 0 graphics [ x 1 y 2 nested [ a 1 ] ] label "A" ]
            node [ id 1 ]
            edge [ source 0 target 1 ]
        ]"#;
        let t = parse_gml(src).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.node_name(NodeId(0)), "A");
    }

    #[test]
    fn non_finite_link_speed_is_a_bad_number() {
        for raw in ["1e400", "inf", "nan"] {
            let src = format!(
                "graph [ node [ id 0 ] node [ id 1 ] \
                 edge [ source 0 target 1 LinkSpeedRaw {raw} ] ]"
            );
            assert_eq!(
                parse_gml(&src).unwrap_err(),
                GmlError::BadNumber(raw.into()),
                "LinkSpeedRaw {raw}"
            );
        }
    }

    /// The bytes a mutation inserts: GML's punctuation, digits and keyword
    /// letters, and a few bytes that are not printable ASCII.
    const BYTES: &[u8] = b"[]\" -.0123456789eE+ \nidgrphnodesutaLkSRwinf\x00\xc3\xff";

    #[test]
    fn mutated_documents_never_panic_the_parser() {
        pcf_rng::forall(
            "parse_gml",
            &pcf_rng::Config::with_cases(2000),
            |rng| pcf_rng::mutate_bytes(SAMPLE.as_bytes(), BYTES, rng),
            pcf_rng::no_shrink,
            |doc: &Vec<u8>| {
                let _ = parse_gml(&String::from_utf8_lossy(doc));
                Ok(())
            },
        );
    }
}

/// Serializes a [`Topology`] back to Topology Zoo-style GML.
///
/// Capacities are written as `LinkSpeedRaw` in bits/s (inverse of the
/// parser's normalisation), so `parse_gml(write_gml(t))` round-trips node
/// labels, adjacency, and capacities.
pub fn write_gml(topo: &Topology) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("graph [\n");
    let _ = writeln!(out, "  label \"{}\"", topo.name().replace('"', "'"));
    for n in topo.nodes() {
        let _ = writeln!(
            out,
            "  node [ id {} label \"{}\" ]",
            n.index(),
            topo.node_name(n).replace('"', "'")
        );
    }
    for l in topo.links() {
        let link = topo.link(l);
        let _ = writeln!(
            out,
            "  edge [ source {} target {} LinkSpeedRaw {} ]",
            link.u.index(),
            link.v.index(),
            link.capacity * 1e9
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod write_tests {
    use super::*;
    use crate::zoo;

    #[test]
    fn round_trips_a_zoo_topology() {
        let t = zoo::build("Sprint");
        let gml = write_gml(&t);
        let back = parse_gml(&gml).expect("own output parses");
        assert_eq!(back.name(), t.name());
        assert_eq!(back.node_count(), t.node_count());
        assert_eq!(back.link_count(), t.link_count());
        for l in t.links() {
            let a = t.link(l);
            let b = back.link(l);
            assert_eq!(a.u, b.u);
            assert_eq!(a.v, b.v);
            assert!((a.capacity - b.capacity).abs() < 1e-9 * a.capacity.max(1.0));
        }
        for n in t.nodes() {
            assert_eq!(t.node_name(n), back.node_name(n));
        }
    }

    #[test]
    fn quotes_in_labels_are_sanitised() {
        let mut t = Topology::new("has \"quotes\"");
        let a = t.add_node("n\"1");
        let b = t.add_node("n2");
        t.add_link(a, b, 1.0);
        let gml = write_gml(&t);
        let back = parse_gml(&gml).expect("sanitised output parses");
        assert_eq!(back.node_count(), 2);
        assert_eq!(back.node_name(NodeId(0)), "n'1");
    }
}
