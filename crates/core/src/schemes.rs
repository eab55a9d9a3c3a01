//! The congestion-free schemes evaluated in the paper (§5).
//!
//! [`Scheme`] names the four and [`Scheme::plan`] is the one producer of
//! their plans: it selects tunnels, builds the scheme's instance, and
//! solves it against the scheme's failure set:
//!
//! * FFC (Liu et al., SIGCOMM '14): tunnel reservations with the `p_st`
//!   tunnel-count failure set (Eq. 5);
//! * PCF-TF (§3.2): same response mechanism, link-coupled failure set
//!   (Eq. 4);
//! * PCF-LS (§3.3): adds unconditional logical sequences (the
//!   shortest-path LS heuristic of §5);
//! * PCF-CLS (§3.4): the same model with conditional LSs, derived by
//!   decomposing a restricted logical-flow model (§3.5); see
//!   [`crate::logical_flow::pcf_cls_instance`].
//!
//! [`solve_ffc`], [`solve_pcf_tf`] and [`solve_pcf_ls`] solve an instance
//! built elsewhere, such as the paper's hand-made figure instances.

use crate::failure::FailureModel;
use crate::instance::{Instance, InstanceBuilder};
use crate::logical_flow::{pcf_cls_instance, FlowStage};
use crate::robust::{
    solve_robust, try_solve_robust, AdversaryKind, CutPool, RobustError, RobustOptions,
    RobustSolution,
};
use pcf_topology::Topology;
use pcf_traffic::TrafficMatrix;

/// One of the four congestion-free schemes of §5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// FFC (tunnel model, per-pair tunnel-count failure set).
    Ffc,
    /// PCF-TF (tunnel model, link-coupled failure set).
    PcfTf,
    /// PCF-LS (unconditional logical sequences).
    PcfLs,
    /// PCF-CLS (conditional logical sequences from the bypass flows).
    PcfCls,
}

/// A solved plan: the instance, its solution, the cut pool that
/// warm-starts the next [`Scheme::plan`] (`None` for PCF-CLS), and how
/// PCF-CLS's stage-1 flow solve ended (`None` for the other schemes).
#[derive(Debug)]
pub struct Plan {
    /// The solved instance (tunnels, logical sequences, demands).
    pub inst: Instance,
    /// The robust solution on `inst`.
    pub sol: RobustSolution,
    /// Scenario cuts, final basis and tunnels of this solve.
    pub pool: Option<CutPool>,
    /// Rounds and certification of the logical-flow solve whose
    /// decomposition gave `inst` its conditional LSs.
    pub flow: Option<FlowStage>,
}

impl Scheme {
    /// Every scheme, in the paper's order.
    pub const ALL: [Scheme; 4] = [Scheme::Ffc, Scheme::PcfTf, Scheme::PcfLs, Scheme::PcfCls];

    /// The stable CLI spelling.
    pub fn as_flag(self) -> &'static str {
        match self {
            Scheme::Ffc => "ffc",
            Scheme::PcfTf => "pcf-tf",
            Scheme::PcfLs => "pcf-ls",
            Scheme::PcfCls => "pcf-cls",
        }
    }

    /// Parses the CLI spelling ([`Scheme::as_flag`]).
    pub fn from_flag(s: &str) -> Option<Scheme> {
        Scheme::ALL.into_iter().find(|scheme| scheme.as_flag() == s)
    }

    /// Plans the scheme: `k` tunnels per demand pair of `tm`, the scheme's
    /// logical sequences, and the robust solve against `fm`.
    ///
    /// `seed` warm-starts the solve with a previous plan's [`CutPool`]:
    /// its tunnel set is offered to selection
    /// ([`InstanceBuilder::offer_tunnels`]) and its cuts and basis enter
    /// the master ([`try_solve_robust`]). A pool from another pair set or
    /// structure is ignored and the plan is cold. PCF-CLS, whose flow-stage
    /// instance varies, ignores `seed` and returns no pool.
    ///
    /// The matrix is dropped once the instance holds the demands, before
    /// the solve, the high-water mark of a plan.
    pub fn plan(
        self,
        topo: &Topology,
        tm: TrafficMatrix,
        k: usize,
        fm: &FailureModel,
        opts: &RobustOptions,
        seed: Option<&CutPool>,
    ) -> Result<Plan, RobustError> {
        let seed = seed.filter(|_| self != Scheme::PcfCls);
        let (inst, flow) = match self {
            Scheme::PcfCls => {
                let (inst, flow) = pcf_cls_instance(topo, &tm, k, 2, fm, opts)?;
                (inst, Some(flow))
            }
            _ => {
                let builder = InstanceBuilder::new(topo, &tm)
                    .tunnels_per_pair(k)
                    .offer_tunnels(seed.and_then(CutPool::tunnel_set));
                let inst = if self == Scheme::PcfLs {
                    builder.shortest_path_lss().build()
                } else {
                    builder.build()
                };
                (inst, None)
            }
        };
        drop(tm);
        let kind = match self {
            Scheme::Ffc => AdversaryKind::FfcTunnelCount,
            _ => AdversaryKind::LinkBased,
        };
        let (sol, pool) = try_solve_robust(&inst, fm, kind, opts, seed)?;
        let pool = (self != Scheme::PcfCls).then_some(pool);
        Ok(Plan {
            inst,
            sol,
            pool,
            flow,
        })
    }
}

/// Solves FFC on a pure-tunnel instance.
///
/// # Panics
/// Panics if the instance contains logical sequences.
pub fn solve_ffc(inst: &Instance, fm: &FailureModel, opts: &RobustOptions) -> RobustSolution {
    solve_robust(inst, fm, AdversaryKind::FfcTunnelCount, opts)
}

/// Solves PCF-TF: FFC's response mechanism with the link-coupled failure
/// set. Accepts pure-tunnel instances only (use [`solve_pcf_ls`] for LSs).
///
/// # Panics
/// Panics if the instance contains logical sequences.
pub fn solve_pcf_tf(inst: &Instance, fm: &FailureModel, opts: &RobustOptions) -> RobustSolution {
    assert_eq!(
        inst.num_lss(),
        0,
        "PCF-TF is the tunnel-only model; build LSs with solve_pcf_ls"
    );
    solve_robust(inst, fm, AdversaryKind::LinkBased, opts)
}

/// Solves the LS model (P2) — PCF-LS when every LS is unconditional,
/// PCF-CLS when conditions are attached.
pub fn solve_pcf_ls(inst: &Instance, fm: &FailureModel, opts: &RobustOptions) -> RobustSolution {
    solve_robust(inst, fm, AdversaryKind::LinkBased, opts)
}

/// [`solve_pcf_ls`] with a [`CutPool`] warm start. [`Scheme::plan`] is the
/// producer; this stays because the `benchmark/` harness calls it.
pub fn solve_pcf_ls_seeded(
    inst: &Instance,
    fm: &FailureModel,
    opts: &RobustOptions,
    seed: Option<&CutPool>,
) -> Result<(RobustSolution, CutPool), RobustError> {
    try_solve_robust(inst, fm, AdversaryKind::LinkBased, opts, seed)
}

/// Builds a pure-tunnel instance (FFC / PCF-TF) with `k` tunnels per demand
/// pair: [`Scheme::plan`]'s FFC and PCF-TF instance, kept for the tests,
/// the examples and the `benchmark/` harness, which build one alone.
pub fn tunnel_instance(topo: &Topology, tm: &TrafficMatrix, k: usize) -> Instance {
    InstanceBuilder::new(topo, tm).tunnels_per_pair(k).build()
}

/// Builds the PCF-LS instance of §5: `k` tunnels per pair plus, for each
/// demand pair, one unconditional LS through the nodes of its shortest path
/// ([`InstanceBuilder::shortest_path_lss`]). [`Scheme::plan`]'s PCF-LS
/// instance, kept for the tests and the `benchmark/` harness, which build
/// one alone.
///
/// By construction these LSs are topologically sorted — every segment joins
/// physically adjacent routers, and adjacent pairs carry no LS — so the
/// scheme is realizable with local proportional routing (Prop. 7).
pub fn pcf_ls_instance(topo: &Topology, tm: &TrafficMatrix, k: usize) -> Instance {
    InstanceBuilder::new(topo, tm)
        .tunnels_per_pair(k)
        .shortest_path_lss()
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig1_instance, fig3_instance, fig4_ls_instance};
    use crate::objective::Objective;
    use std::sync::Arc;

    fn opts() -> RobustOptions {
        RobustOptions {
            objective: Objective::DemandScale,
            ..RobustOptions::default()
        }
    }

    // ---- Fig. 2 reproduction: Fig. 1 topology, FFC-3 / FFC-4 vs optimal ----

    #[test]
    fn fig2_ffc3_single_failure() {
        let inst = fig1_instance(3);
        let sol = solve_ffc(&inst, &FailureModel::links(1), &opts());
        assert!((sol.objective - 1.5).abs() < 1e-5, "got {}", sol.objective);
    }

    #[test]
    fn fig2_ffc4_single_failure_is_worse() {
        // Adding the fourth tunnel *hurts* FFC: p_st rises from 1 to 2.
        let inst = fig1_instance(4);
        let sol = solve_ffc(&inst, &FailureModel::links(1), &opts());
        assert!((sol.objective - 1.0).abs() < 1e-5, "got {}", sol.objective);
    }

    #[test]
    fn fig2_ffc_two_failures() {
        let sol3 = solve_ffc(&fig1_instance(3), &FailureModel::links(2), &opts());
        assert!(
            (sol3.objective - 0.5).abs() < 1e-5,
            "FFC-3 got {}",
            sol3.objective
        );
        let sol4 = solve_ffc(&fig1_instance(4), &FailureModel::links(2), &opts());
        assert!(sol4.objective.abs() < 1e-6, "FFC-4 got {}", sol4.objective);
    }

    #[test]
    fn fig1_pcf_tf_matches_optimal() {
        // PCF-TF's link-coupled model knows l3 and l4 share 3-t, recovering
        // the full intrinsic capability on Fig. 1 (2 under f=1, 1 under f=2).
        let inst = fig1_instance(4);
        let s1 = solve_pcf_tf(&inst, &FailureModel::links(1), &opts());
        assert!(
            (s1.objective - 2.0).abs() < 1e-5,
            "f=1 got {}",
            s1.objective
        );
        let s2 = solve_pcf_tf(&inst, &FailureModel::links(2), &opts());
        assert!(
            (s2.objective - 1.0).abs() < 1e-5,
            "f=2 got {}",
            s2.objective
        );
    }

    #[test]
    fn fig1_pcf_tf_not_hurt_by_tunnels() {
        // Proposition 2 on a concrete instance: PCF-TF(4 tunnels) >=
        // PCF-TF(3 tunnels).
        let s3 = solve_pcf_tf(&fig1_instance(3), &FailureModel::links(1), &opts());
        let s4 = solve_pcf_tf(&fig1_instance(4), &FailureModel::links(1), &opts());
        assert!(s4.objective >= s3.objective - 1e-6);
    }

    // ---- Fig. 3: tunnel reservations are inherently limited ----

    #[test]
    fn fig3_ffc_reaches_half() {
        let inst = fig3_instance();
        let sol = solve_ffc(&inst, &FailureModel::links(1), &opts());
        // FFC: p_st = 3, one link failure -> 3 tunnel failures; best is 1/2.
        assert!(sol.objective <= 0.5 + 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn fig3_pcf_tf_capped_below_optimal() {
        // Optimal is 2/3 (Fig. 3 discussion); tunnel-based PCF-TF cannot
        // exceed 1/2 (Proposition 3 with n = 2).
        let inst = fig3_instance();
        let sol = solve_pcf_tf(&inst, &FailureModel::links(1), &opts());
        assert!(sol.objective <= 0.5 + 1e-6, "got {}", sol.objective);
        assert!(sol.objective >= 0.5 - 1e-5, "got {}", sol.objective);
    }

    // ---- Fig. 4 / Corollary 3.1: a single LS recovers the optimum ----

    #[test]
    fn fig4_ls_matches_optimal() {
        // p = 4, n = 2, m = 3: optimal under 1 failure = 1 - 1/4 = 0.75.
        let inst = fig4_ls_instance(4, 2, 3);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &opts());
        assert!((sol.objective - 0.75).abs() < 1e-5, "got {}", sol.objective);
    }

    #[test]
    fn fig4_tunnels_only_is_weaker() {
        // Without the LS the same tunnels guarantee at most 1/n = 1/2.
        let (topo, nodes) = crate::figures::fig4_topology(4, 2, 3);
        let mut b =
            crate::instance::InstanceBuilder::with_demands(&topo, vec![(nodes[0], nodes[3], 1.0)]);
        // All simple s0 -> s3 paths as tunnels (p * n * n of them).
        for l0 in topo.links().filter(|&l| topo.link(l).touches(nodes[0])) {
            for l1 in topo
                .links()
                .filter(|&l| topo.link(l).touches(nodes[1]) && topo.link(l).touches(nodes[2]))
            {
                for l2 in topo
                    .links()
                    .filter(|&l| topo.link(l).touches(nodes[2]) && topo.link(l).touches(nodes[3]))
                {
                    b = b.add_tunnel(pcf_paths::Path {
                        nodes: nodes.clone(),
                        links: vec![l0, l1, l2],
                    });
                }
            }
        }
        let inst = b.build();
        assert_eq!(inst.num_tunnels(), 4 * 2 * 2);
        let sol = solve_pcf_tf(&inst, &FailureModel::links(1), &opts());
        assert!(sol.objective <= 0.5 + 1e-5, "got {}", sol.objective);
    }

    // ---- Fig. 5 / Table 1 (tunnel and LS rows) ----

    #[test]
    fn table1_ffc_zero() {
        let inst = crate::figures::fig5_instance(crate::figures::Fig5Variant::TunnelsOnly);
        let sol = solve_ffc(&inst, &FailureModel::links(2), &opts());
        assert!(sol.objective.abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn table1_pcf_tf_two_thirds() {
        let inst = crate::figures::fig5_instance(crate::figures::Fig5Variant::TunnelsOnly);
        let sol = solve_pcf_tf(&inst, &FailureModel::links(2), &opts());
        assert!(
            (sol.objective - 2.0 / 3.0).abs() < 1e-5,
            "got {}",
            sol.objective
        );
    }

    #[test]
    fn table1_pcf_ls_four_fifths() {
        let inst = crate::figures::fig5_instance(crate::figures::Fig5Variant::UnconditionalLs);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(2), &opts());
        assert!((sol.objective - 0.8).abs() < 1e-5, "got {}", sol.objective);
    }

    #[test]
    fn table1_pcf_cls_optimal() {
        let inst = crate::figures::fig5_instance(crate::figures::Fig5Variant::ConditionalLs);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(2), &opts());
        assert!((sol.objective - 1.0).abs() < 1e-5, "got {}", sol.objective);
    }

    // ---- Scheme: the flag spellings and the one plan producer ----

    #[test]
    fn scheme_flags_round_trip() {
        for scheme in Scheme::ALL {
            assert_eq!(Scheme::from_flag(scheme.as_flag()), Some(scheme));
        }
        assert_eq!(Scheme::from_flag("r3"), None);
    }

    #[test]
    fn seeded_plan_matches_cold_plan_and_reuses_tunnels() {
        let topo = pcf_topology::zoo::build("Abilene");
        let tm = pcf_traffic::gravity(&topo, 1);
        let fm = FailureModel::links(1);
        let o = opts();
        for scheme in [Scheme::Ffc, Scheme::PcfTf, Scheme::PcfLs] {
            let first = scheme.plan(&topo, tm.clone(), 3, &fm, &o, None).unwrap();
            let pool = first.pool.expect("tunnel and LS schemes export a pool");
            assert!(first.flow.is_none(), "only PCF-CLS has a flow stage");
            let warm = scheme
                .plan(&topo, tm.scaled(0.8), 3, &fm, &o, Some(&pool))
                .unwrap();
            let cold = scheme
                .plan(&topo, tm.scaled(0.8), 3, &fm, &o, None)
                .unwrap();
            let label = scheme.as_flag();
            assert!(
                Arc::ptr_eq(warm.inst.tunnel_set(), first.inst.tunnel_set()),
                "{label}: tunnels reused"
            );
            assert!(!Arc::ptr_eq(
                cold.inst.tunnel_set(),
                first.inst.tunnel_set()
            ));
            assert_eq!(warm.sol.seeded_cuts, pool.len(), "{label}");
            assert_eq!(cold.sol.seeded_cuts, 0, "{label}");
            assert!(
                (warm.sol.objective - cold.sol.objective).abs() < 1e-9,
                "{label}: warm {} vs cold {}",
                warm.sol.objective,
                cold.sol.objective
            );
        }
    }

    #[test]
    fn pcf_cls_ignores_the_seed_and_exports_no_pool() {
        let topo = pcf_topology::zoo::build("Abilene");
        let tm = pcf_traffic::gravity(&topo, 1);
        let fm = FailureModel::links(1);
        let o = opts();
        let ls = Scheme::PcfLs
            .plan(&topo, tm.clone(), 3, &fm, &o, None)
            .unwrap();
        let seeded = Scheme::PcfCls
            .plan(&topo, tm.clone(), 3, &fm, &o, ls.pool.as_ref())
            .unwrap();
        let cold = Scheme::PcfCls.plan(&topo, tm, 3, &fm, &o, None).unwrap();
        assert!(seeded.pool.is_none() && cold.pool.is_none());
        assert_eq!(seeded.sol.seeded_cuts, 0);
        assert_eq!(seeded.sol.objective.to_bits(), cold.sol.objective.to_bits());
        assert!(seeded.inst.num_lss() > ls.inst.num_lss());
    }

    #[test]
    fn a_solver_failure_is_an_error_in_every_scheme() {
        // One simplex iteration cannot solve a master: PCF-CLS's stage 1
        // must hand the failure back like every other scheme's solve.
        let topo = pcf_topology::zoo::build("Abilene");
        let tm = pcf_traffic::gravity(&topo, 1);
        let mut o = opts();
        o.lp.max_iterations = Some(1);
        for scheme in Scheme::ALL {
            let planned = scheme.plan(&topo, tm.clone(), 3, &FailureModel::links(1), &o, None);
            assert!(planned.is_err(), "{}", scheme.as_flag());
        }
    }

    // ---- Zoo smoke test: scheme ordering on a real-size topology ----

    #[test]
    fn sprint_scheme_ordering() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 3);
        let fm = FailureModel::links(1);
        let o = opts();
        let ffc2 = solve_ffc(&tunnel_instance(&topo, &tm, 2), &fm, &o);
        let tf3 = solve_pcf_tf(&tunnel_instance(&topo, &tm, 3), &fm, &o);
        let ls3 = solve_pcf_ls(&pcf_ls_instance(&topo, &tm, 3), &fm, &o);
        // Proposition 1 (+ LS flexibility): PCF-TF >= FFC at the same tunnel
        // count; here PCF-TF uses 3 tunnels which can only help (Prop. 2).
        let ffc3_inst = tunnel_instance(&topo, &tm, 3);
        let ffc3 = solve_ffc(&ffc3_inst, &fm, &o);
        let tf3b = solve_pcf_tf(&ffc3_inst, &fm, &o);
        assert!(tf3b.objective >= ffc3.objective - 1e-6);
        assert!(ls3.objective >= tf3.objective - 1e-5);
        assert!(ffc2.objective > 0.0);
    }
}
