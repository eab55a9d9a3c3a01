//! PCF: Provably Resilient Flexible Routing (SIGCOMM 2020) — core library.
//!
//! Implements congestion-free traffic engineering: bandwidth allocation and
//! failure response that guarantee no link is overloaded under any targeted
//! failure scenario, for FFC, PCF-TF, PCF-LS, PCF-CLS, logical flows, R3,
//! and the optimal (intrinsic capability) baseline.

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

pub mod admission;
pub mod adversary;
pub mod augment;
pub mod degrade;
pub mod dualized;
pub mod failure;
pub mod figures;
pub mod instance;
pub mod logical_flow;
pub mod objective;
pub mod optimal;
pub mod r3;
pub mod realize;
pub mod robust;
pub mod scale;
pub mod schemes;
pub mod validate;

pub use admission::{
    admit, availability_under, candidate_links, integral_worst_case, AdmitOutcome,
    ScenarioWorstCase,
};
pub use augment::{augment_capacity, Augmentation};
pub use degrade::{
    degrade_fallback, exceeds_capacity, normal_routing, overload_bound, peak_utilization,
    DegradeMode, DegradedRouting, LadderStage, CAPACITY_FLOOR, OVERLOAD_TOL,
};
pub use dualized::DualizedError;
pub use failure::{Condition, Degradation, FailureModel, GroupBudget, Scenario};
pub use instance::{Instance, InstanceBuilder, LogicalSequence, LsId, PairId, TunnelId, TunnelSet};
pub use logical_flow::{
    bypass_flows, decompose_flows, pcf_cls_instance, solve_logical_flow, FlowSolution, FlowSpec,
    FlowStage,
};
pub use objective::Objective;
pub use optimal::{
    max_concurrent_flow, max_throughput, optimal_demand_scale, optimal_throughput, McfResult,
    ScenarioCoverage,
};
pub use r3::{solve_generalized_r3, solve_r3, R3Solution};
pub use realize::{
    absolute_tolerance, degraded_reservations, realize_routing, reservation_matrix,
    topological_order, FailureState, RealizeError, Realizer, Routing,
};
pub use robust::{
    solve_robust, try_solve_robust, AdversaryKind, CutPool, RobustError, RobustOptions,
    RobustSolution,
};
pub use scale::scale_to_mlu;
pub use schemes::{
    pcf_ls_instance, solve_ffc, solve_pcf_ls, solve_pcf_ls_seeded, solve_pcf_tf, tunnel_instance,
    Plan, Scheme,
};
pub use validate::{
    validate_all, validate_scenarios, ArcHotspot, ValidationReport, Violation, ViolationKind,
    ViolationSummary,
};
