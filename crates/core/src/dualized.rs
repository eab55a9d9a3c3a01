//! The paper's dualized (polynomial-size) formulations, built verbatim.
//!
//! The appendix derives model (D2): the inner worst case of constraint (1)
//! is replaced by its LP dual so the whole model is one polynomial-size LP.
//! The production path in this crate uses cutting planes
//! ([`crate::robust`]), which optimizes over the same relaxed failure
//! polytope; this module exists to cross-validate the two (they must agree
//! to LP tolerance) and as a faithful rendition of the paper's appendix.
//!
//! Supports the pure-tunnel models (FFC, PCF-TF) with the demand-scale and
//! throughput metrics; link-failure budgets only.

use crate::failure::FailureModel;
use crate::instance::Instance;
use crate::objective::Objective;
use pcf_lp::{is_zero, LpProblem, Sense, SimplexOptions, Status, VarId};
use std::fmt;

/// Structured failure from the dualized formulations.
#[derive(Debug, Clone, PartialEq)]
pub enum DualizedError {
    /// The instance has logical sequences, but the dualized models cover
    /// only the pure tunnel schemes (FFC, PCF-TF).
    NotPureTunnels {
        /// Logical sequences the instance carries.
        lss: usize,
    },
    /// The failure model is not a plain link budget
    /// ([`FailureModel::link_budget`]) — the only uncertainty set the
    /// appendix dualizes.
    UnsupportedFailureModel,
    /// The LP layer rejected the dual program structurally.
    Lp(pcf_lp::SolveError),
    /// The dual LP terminated without optimality (it is bounded and
    /// feasible by construction, so this signals a numerical breakdown).
    NotOptimal(Status),
}

impl fmt::Display for DualizedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DualizedError::NotPureTunnels { lss } => {
                write!(
                    f,
                    "dualized models need a pure tunnel instance ({lss} LSs present)"
                )
            }
            DualizedError::UnsupportedFailureModel => {
                write!(f, "dualized models support plain link budgets only")
            }
            DualizedError::Lp(e) => write!(f, "dual LP rejected: {e}"),
            DualizedError::NotOptimal(s) => write!(f, "dual LP ended {s}"),
        }
    }
}

impl std::error::Error for DualizedError {}

/// Solves the dualized FFC model: for each pair, the worst case over
/// `Σ_l y_l <= f p_st, 0 <= y <= 1` is dualized with multipliers
/// `λ_st` (budget) and `φ_l` (box):
///
/// ```text
/// Σ_l a_l − (f·p_st·λ_st + Σ_l φ_l) >= z_st d_st
/// λ_st + φ_l >= a_l
/// ```
pub fn solve_ffc_dual(
    inst: &Instance,
    fm: &FailureModel,
    objective: Objective,
    lp_opts: &SimplexOptions,
) -> Result<f64, DualizedError> {
    if inst.num_lss() != 0 {
        return Err(DualizedError::NotPureTunnels {
            lss: inst.num_lss(),
        });
    }
    let Some(f) = fm.link_budget() else {
        return Err(DualizedError::UnsupportedFailureModel);
    };
    let topo = inst.topo();
    let mut lp = LpProblem::new(Sense::Maximize);
    lp.set_options(lp_opts.clone());

    let a: Vec<VarId> = inst.tunnel_ids().map(|_| lp.add_nonneg(0.0)).collect();
    // Capacity (per directed arc).
    let mut arc_rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.arc_count()];
    for l in inst.tunnel_ids() {
        for arc in inst.tunnel_arcs(l) {
            arc_rows[arc.index()].push((a[l.0], 1.0));
        }
    }
    for arc in topo.arcs() {
        if !arc_rows[arc.index()].is_empty() {
            lp.add_le(arc_rows[arc.index()].clone(), topo.capacity(arc.link()));
        }
    }

    let zshared = matches!(objective, Objective::DemandScale).then(|| lp.add_nonneg(1.0));
    for p in inst.pair_ids() {
        let tunnels = inst.tunnels_of(p);
        if tunnels.is_empty() && is_zero(inst.demand(p)) {
            continue;
        }
        let lam = lp.add_nonneg(0.0);
        let phis: Vec<VarId> = tunnels.iter().map(|_| lp.add_nonneg(0.0)).collect();
        for (i, &l) in tunnels.iter().enumerate() {
            lp.add_ge(vec![(lam, 1.0), (phis[i], 1.0), (a[l.0], -1.0)], 0.0);
        }
        let mut row: Vec<(VarId, f64)> = tunnels.iter().map(|&l| (a[l.0], 1.0)).collect();
        row.push((lam, -((f * inst.p_st(p)) as f64)));
        for &phi in &phis {
            row.push((phi, -1.0));
        }
        let d = inst.demand(p);
        if d > 0.0 {
            let zv = match (objective, zshared) {
                (Objective::DemandScale, Some(z)) => z,
                _ => lp.add_var(0.0, 1.0, d),
            };
            row.push((zv, -d));
        }
        lp.add_ge(row, 0.0);
    }
    let sol = lp.solve().map_err(DualizedError::Lp)?;
    if sol.status != Status::Optimal {
        return Err(DualizedError::NotOptimal(sol.status));
    }
    Ok(sol.objective)
}

/// Solves the dualized PCF-TF model — appendix (D2) verbatim:
///
/// ```text
/// Σ_l a_l − (f λ_st + Σ_e σ_est + Σ_l φ_l) >= z_st d_st
/// π_l + φ_l >= a_l                       ∀ l ∈ T(s,t)
/// −Σ_{l: e∈τ_l} π_l + λ_st + σ_est >= 0  ∀ e
/// ```
pub fn solve_pcf_tf_dual(
    inst: &Instance,
    fm: &FailureModel,
    objective: Objective,
    lp_opts: &SimplexOptions,
) -> Result<f64, DualizedError> {
    if inst.num_lss() != 0 {
        return Err(DualizedError::NotPureTunnels {
            lss: inst.num_lss(),
        });
    }
    let Some(f) = fm.link_budget() else {
        return Err(DualizedError::UnsupportedFailureModel);
    };
    let topo = inst.topo();
    let mut lp = LpProblem::new(Sense::Maximize);
    lp.set_options(lp_opts.clone());

    let a: Vec<VarId> = inst.tunnel_ids().map(|_| lp.add_nonneg(0.0)).collect();
    let mut arc_rows: Vec<Vec<(VarId, f64)>> = vec![Vec::new(); topo.arc_count()];
    for l in inst.tunnel_ids() {
        for arc in inst.tunnel_arcs(l) {
            arc_rows[arc.index()].push((a[l.0], 1.0));
        }
    }
    for arc in topo.arcs() {
        if !arc_rows[arc.index()].is_empty() {
            lp.add_le(arc_rows[arc.index()].clone(), topo.capacity(arc.link()));
        }
    }

    let zshared = matches!(objective, Objective::DemandScale).then(|| lp.add_nonneg(1.0));
    for p in inst.pair_ids() {
        let tunnels = inst.tunnels_of(p);
        if tunnels.is_empty() && is_zero(inst.demand(p)) {
            continue;
        }
        let lam = lp.add_nonneg(0.0);
        let pis: Vec<VarId> = tunnels.iter().map(|_| lp.add_nonneg(0.0)).collect();
        let phis: Vec<VarId> = tunnels.iter().map(|_| lp.add_nonneg(0.0)).collect();
        // Only links that appear in some tunnel of the pair need σ; for the
        // others the x-constraint reduces to λ + σ >= 0 which is free.
        let mut used_links: Vec<pcf_topology::LinkId> = Vec::new();
        for &l in tunnels {
            for &e in &inst.tunnel(l).links {
                if !used_links.contains(&e) {
                    used_links.push(e);
                }
            }
        }
        let sigmas: Vec<VarId> = used_links.iter().map(|_| lp.add_nonneg(0.0)).collect();
        // π_l + φ_l >= a_l
        for (i, &l) in tunnels.iter().enumerate() {
            lp.add_ge(vec![(pis[i], 1.0), (phis[i], 1.0), (a[l.0], -1.0)], 0.0);
        }
        // -Σ_{l: e in τ_l} π_l + λ + σ_e >= 0
        for (ei, &e) in used_links.iter().enumerate() {
            let mut row: Vec<(VarId, f64)> = vec![(lam, 1.0), (sigmas[ei], 1.0)];
            for (i, &l) in tunnels.iter().enumerate() {
                if inst.tunnel(l).links.contains(&e) {
                    row.push((pis[i], -1.0));
                }
            }
            lp.add_ge(row, 0.0);
        }
        // Σ a_l − (f λ + Σ σ + Σ φ) >= z d
        let mut row: Vec<(VarId, f64)> = tunnels.iter().map(|&l| (a[l.0], 1.0)).collect();
        row.push((lam, -(f as f64)));
        for &s in &sigmas {
            row.push((s, -1.0));
        }
        for &phi in &phis {
            row.push((phi, -1.0));
        }
        let d = inst.demand(p);
        if d > 0.0 {
            let zv = match (objective, zshared) {
                (Objective::DemandScale, Some(z)) => z,
                _ => lp.add_var(0.0, 1.0, d),
            };
            row.push((zv, -d));
        }
        lp.add_ge(row, 0.0);
    }
    let sol = lp.solve().map_err(DualizedError::Lp)?;
    if sol.status != Status::Optimal {
        return Err(DualizedError::NotOptimal(sol.status));
    }
    Ok(sol.objective)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::{fig1_instance, fig3_instance, fig5_instance, Fig5Variant};
    use crate::robust::{solve_robust, AdversaryKind, RobustOptions};

    fn cp(inst: &Instance, fm: &FailureModel, kind: AdversaryKind) -> f64 {
        solve_robust(inst, fm, kind, &RobustOptions::default()).objective
    }

    #[test]
    fn ffc_dual_matches_cutting_plane_on_fig1() {
        for k in [3, 4] {
            for f in [1, 2] {
                let inst = fig1_instance(k);
                let fm = FailureModel::links(f);
                let dual = solve_ffc_dual(&inst, &fm, Objective::DemandScale, &Default::default())
                    .unwrap();
                let cut = cp(&inst, &fm, AdversaryKind::FfcTunnelCount);
                assert!(
                    (dual - cut).abs() < 1e-5,
                    "k={k} f={f}: dual {dual} vs cuts {cut}"
                );
            }
        }
    }

    #[test]
    fn pcf_tf_dual_matches_cutting_plane_on_fig1_fig3_fig5() {
        let cases: Vec<(Instance, usize)> = vec![
            (fig1_instance(4), 1),
            (fig1_instance(4), 2),
            (fig3_instance(), 1),
            (fig5_instance(Fig5Variant::TunnelsOnly), 2),
        ];
        for (inst, f) in cases {
            let fm = FailureModel::links(f);
            let dual =
                solve_pcf_tf_dual(&inst, &fm, Objective::DemandScale, &Default::default()).unwrap();
            let cut = cp(&inst, &fm, AdversaryKind::LinkBased);
            assert!(
                (dual - cut).abs() < 1e-5,
                "f={f}: dual {dual} vs cuts {cut}"
            );
        }
    }

    #[test]
    fn unsupported_inputs_are_structured_errors() {
        let inst = fig1_instance(3);
        // A group budget is outside the dualized models' scope.
        let srlg = FailureModel::srlgs(vec![vec![pcf_topology::LinkId(0)]], 1);
        for res in [
            solve_ffc_dual(&inst, &srlg, Objective::DemandScale, &Default::default()),
            solve_pcf_tf_dual(&inst, &srlg, Objective::DemandScale, &Default::default()),
        ] {
            assert_eq!(res.unwrap_err(), DualizedError::UnsupportedFailureModel);
        }
        // An instance with logical sequences is rejected, not asserted on.
        let ls_inst = crate::figures::fig4_ls_instance(3, 2, 3);
        let err = solve_pcf_tf_dual(
            &ls_inst,
            &FailureModel::links(1),
            Objective::DemandScale,
            &Default::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DualizedError::NotPureTunnels { lss } if lss > 0));
        assert!(err.to_string().contains("pure tunnel"));
    }

    #[test]
    fn duals_match_on_zoo_gravity() {
        let topo = pcf_topology::zoo::build("Sprint");
        let tm = pcf_traffic::gravity(&topo, 9);
        let inst = crate::schemes::tunnel_instance(&topo, &tm, 3);
        let fm = FailureModel::links(1);
        let dual =
            solve_pcf_tf_dual(&inst, &fm, Objective::DemandScale, &Default::default()).unwrap();
        let cut = cp(&inst, &fm, AdversaryKind::LinkBased);
        assert!(
            (dual - cut).abs() < 1e-4 * (1.0 + cut),
            "dual {dual} vs cuts {cut}"
        );
        let fdual =
            solve_ffc_dual(&inst, &fm, Objective::DemandScale, &Default::default()).unwrap();
        let fcut = cp(&inst, &fm, AdversaryKind::FfcTunnelCount);
        assert!(
            (fdual - fcut).abs() < 1e-4 * (1.0 + fcut),
            "dual {fdual} vs cuts {fcut}"
        );
    }
}
