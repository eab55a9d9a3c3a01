//! Network topology substrate for the PCF reproduction.
//!
//! This crate provides the graph model every other crate builds on:
//!
//! * [`graph`] — capacitated multigraphs with undirected links and directed
//!   arc views ([`Topology`], [`NodeId`], [`LinkId`], [`ArcId`]);
//! * [`zoo`] — deterministic synthetic stand-ins for the paper's 21
//!   Internet Topology Zoo evaluation networks (Table 3);
//! * [`gml`] — a parser for real Topology Zoo GML files;
//! * [`srlg`] — shared-risk link group sidecar files (`foo.srlg`), parsed
//!   strictly with line-numbered diagnostics;
//! * [`transform`] — the paper's preprocessing steps (recursive degree-one
//!   pruning, sub-link splitting for multi-failure experiments).

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

pub mod gml;
pub mod graph;
pub mod srlg;
pub mod transform;
pub mod zoo;

pub use graph::{ArcId, Link, LinkId, NodeId, Topology};
pub use srlg::{SrlgGroup, SrlgParseError, SrlgSet};
