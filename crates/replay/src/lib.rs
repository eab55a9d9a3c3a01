//! Online failure replay for PCF plans.
//!
//! The offline validator (`pcf_core::validate`) asks "is this allocation
//! safe over a scenario *set*?"; this crate asks the operational question:
//! "as links fail and recover over time, what does the network actually
//! do, and how fast can the response be computed?"
//!
//! * [`EventTrace`] — scripted or generated sequences of link up/down
//!   events ([`trace`]);
//! * [`ReplayEngine`] — incremental failure-state tracking plus a cache of
//!   finished realizations keyed by liveness signature, so a repeated
//!   failure state costs a lookup and a copy of its routing ([`engine`]);
//!   [`SharedFactorCache`] is the same cache behind one mutex, for many
//!   engines over one plan ([`shared`]);
//! * [`replay_trace`] / [`replay_batch`] — sequential and multi-threaded
//!   replay drivers producing a [`ReplayReport`] (per-event utilization,
//!   ladder stage and shed demand, violation log, latency percentiles,
//!   cache counters) ([`report`]);
//! * [`FaultInjector`] — deterministic adversarial traces (beyond-budget
//!   bursts, capacity wobble, corrupt trace text) that push replays past
//!   the failure budget the plan was solved for ([`inject`]);
//! * [`run_campaign`] — greedy LP-guided adversarial campaigns that pick
//!   the most damaging SRLG/node/link/degradation event each step and
//!   record per-scheme throughput-retention curves ([`campaign`]).
//!
//! Beyond-budget events don't abort the replay: with a
//! [`DegradeMode`](pcf_core::DegradeMode) selected, the engine walks
//! `pcf_core::degrade`'s ladder (exact → rescale → shed) and every event
//! still reports a routing plus the stage that produced it. Degraded
//! routings never enter the realization cache.
//!
//! A cache hit returns the routing the miss computed, so cached and cold
//! replays are bit-identical; the property tests in this crate hold the
//! engine to that.

pub mod campaign;
pub mod engine;
pub mod inject;
pub mod report;
pub mod shared;
pub mod trace;

pub use campaign::{
    run_campaign, CampaignCurve, CampaignOptions, CampaignPlan, CampaignReport, CampaignStep,
};
pub use engine::{CacheStats, DegradeStats, ReplayEngine};
pub use inject::FaultInjector;
pub use report::{
    replay_batch, replay_trace, EventStage, LatencyHistogram, ReplayOptions, ReplayReport,
    ReplayViolation,
};
pub use shared::SharedFactorCache;
pub use trace::{
    EventKind, EventTrace, LinkEvent, TraceParseError, DEGRADE_PERMILLE, WOBBLE_PERMILLE,
};
