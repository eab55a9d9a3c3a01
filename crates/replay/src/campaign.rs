//! Adversarial-churn campaigns: greedy worst-case event sequences against
//! live replay engines, one per scheme.
//!
//! A campaign asks the DRFE-R question operationally: *if an adversary
//! watches the network and always picks the next most damaging event,
//! how much admitted throughput does each scheme retain?* The search is
//! greedy and plan-guided: every candidate event (an SRLG burst, a node
//! failure, a single link cut, a partial-capacity degradation) is scored
//! by the plan's own protection certificate — [`availability_under`]
//! evaluates the dual-form expression `Σ a_l·alive_l + Σ b_q·h_q` whose
//! coefficients the robust solve produced, so no LP is re-solved per
//! candidate — and the minimizer is then *applied to the live engine*,
//! whose shedding realization is the ground truth the curve records.
//!
//! Running the same campaign against FFC, PCF-TF, and PCF-LS plans over
//! one topology and traffic matrix produces comparable
//! throughput-retention curves (the adversary adapts to each plan
//! separately, so every scheme faces its own worst sequence). The report
//! serializes deterministically — values quantized to 1e-6, an FNV-1a
//! digest over the quantized curve — so CI can gate on byte identity and
//! on the paper's separation: PCF-LS must retain strictly more absolute
//! throughput than FFC.

use crate::engine::ReplayEngine;
use crate::report::EventStage;
use crate::trace::{EventKind, LinkEvent};
use pcf_core::{
    availability_under, degraded_reservations, DegradeMode, FailureState, Instance, OVERLOAD_TOL,
};
use pcf_rng::json::{self, Json, Layout, ObjWriter};
use pcf_rng::Fnv1a;
use pcf_topology::LinkId;

/// One solved scheme entering a campaign.
pub struct CampaignPlan<'a> {
    /// Scheme label (`"ffc"`, `"pcf-tf"`, `"pcf-ls"`, ...).
    pub scheme: String,
    /// The instance the plan was solved on.
    pub inst: &'a Instance,
    /// Tunnel reservations.
    pub a: &'a [f64],
    /// Logical-sequence reservations.
    pub b: &'a [f64],
    /// Admitted demand per pair (`z_p · d_p`).
    pub served: &'a [f64],
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Adversarial events to pick (curve length).
    pub steps: usize,
    /// SRLG groups the adversary may fire as correlated bursts.
    pub groups: Vec<Vec<LinkId>>,
    /// Degradation level for partial-capacity candidates (permille of
    /// nominal surviving; clamped to `1..=999`).
    pub degrade_permille: u32,
    /// Concurrent-dead-link budget for the adversary; candidates that
    /// would exceed it are skipped (degradations are not counted — the
    /// links stay alive).
    pub max_down: usize,
    /// Relative feasibility tolerance for realization.
    pub tol: f64,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            steps: 4,
            groups: Vec::new(),
            degrade_permille: 500,
            max_down: 2,
            tol: OVERLOAD_TOL,
        }
    }
}

/// One adversarial event on one scheme's curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignStep {
    /// The chosen event, rendered in the trace language (`"srlg 2"`,
    /// `"node 4"`, `"down 7"`, `"degrade 3 500"`).
    pub event: String,
    /// The plan-certificate prediction of post-event delivered
    /// throughput that selected this event.
    pub predicted: f64,
    /// Throughput the live engine actually delivered after the event.
    pub delivered: f64,
    /// Demand shed at this step.
    pub shed: f64,
    /// Which ladder stage served the event.
    pub stage: EventStage,
}

/// One scheme's throughput-retention curve.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCurve {
    /// Scheme label.
    pub scheme: String,
    /// Admitted throughput before any event (`Σ served`).
    pub admitted: f64,
    /// The adversarial sequence, in the order it was applied.
    pub steps: Vec<CampaignStep>,
}

impl CampaignCurve {
    /// Throughput delivered after the final adversarial event (the
    /// admitted throughput if no event was applied).
    pub fn retained(&self) -> f64 {
        self.steps.last().map_or(self.admitted, |s| s.delivered)
    }

    /// Fraction of admitted throughput retained at the end (1 when
    /// nothing was admitted).
    pub fn retained_fraction(&self) -> f64 {
        if self.admitted <= 0.0 {
            1.0
        } else {
            self.retained() / self.admitted
        }
    }
}

/// The campaign outcome: one curve per scheme, deterministic serialization.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Topology name the campaign ran on.
    pub topology: String,
    /// Per-scheme curves, in input order.
    pub curves: Vec<CampaignCurve>,
}

/// Quantizes to 1e-6 for digesting and printing: campaign numbers are
/// sums of LP outputs, so byte-exact f64 comparison across toolchains is
/// too brittle a CI bar, but 1e-6 is far below any real throughput gap.
fn quantize(x: f64) -> i64 {
    (x * 1e6).round() as i64
}

impl CampaignReport {
    /// The curve for `scheme`, if it ran.
    pub fn curve(&self, scheme: &str) -> Option<&CampaignCurve> {
        self.curves.iter().find(|c| c.scheme == scheme)
    }

    /// The paper's separation, judged on this campaign: PCF-LS retains
    /// strictly more absolute throughput than FFC. `None` when either
    /// scheme is missing.
    pub fn separation_ok(&self) -> Option<bool> {
        let ffc = self.curve("ffc")?;
        let ls = self.curve("pcf-ls")?;
        Some(quantize(ls.retained()) > quantize(ffc.retained()))
    }

    /// FNV-1a digest over the quantized curves (schemes, events,
    /// predictions, deliveries, sheds, stages). Stable across runs,
    /// thread counts, and platforms.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_bytes(self.topology.as_bytes());
        for c in &self.curves {
            h.write_bytes(c.scheme.as_bytes());
            h.write_bytes(&quantize(c.admitted).to_le_bytes());
            for s in &c.steps {
                h.write_bytes(s.event.as_bytes());
                h.write_bytes(&quantize(s.predicted).to_le_bytes());
                h.write_bytes(&quantize(s.delivered).to_le_bytes());
                h.write_bytes(&quantize(s.shed).to_le_bytes());
                h.write_bytes(&[s.stage.code()]);
            }
        }
        h.finish()
    }

    /// Deterministic JSON: quantized values, the separation verdict, and
    /// the digest. Byte-identical across repeated runs.
    pub fn to_json(&self) -> String {
        let q = |x: f64| quantize(x) as f64 / 1e6;
        json::report(|w| {
            let w = w.str("topology", &self.topology).array(
                "curves",
                Layout::Lines,
                &self.curves,
                |o, c| {
                    ObjWriter::open(o, Layout::Inline)
                        .str("scheme", &c.scheme)
                        .fixed("admitted", q(c.admitted), 6)
                        .fixed("retained", q(c.retained()), 6)
                        .fixed("retained_fraction", q(c.retained_fraction()), 6)
                        .array("steps", Layout::Inline, &c.steps, |o, s| {
                            ObjWriter::open(o, Layout::Inline)
                                .str("event", &s.event)
                                .fixed("delivered", q(s.delivered), 6)
                                .fixed("shed", q(s.shed), 6)
                                .str("stage", s.stage.name())
                                .finish()
                        })
                        .finish()
                },
            );
            let w = match self.separation_ok() {
                Some(true) => w.str("separation", "pcf-ls > ffc"),
                Some(false) => w.str("separation", "VIOLATED"),
                None => w.value("separation", &Json::Null),
            };
            w.str("digest", &format!("{:016x}", self.digest()))
        })
    }
}

/// One candidate adversarial event: a label in the trace language plus
/// the link events it expands to.
struct Candidate {
    label: String,
    events: Vec<LinkEvent>,
}

/// Enumerates the adversary's move set in a fixed deterministic order:
/// SRLG bursts, node failures, single link cuts, then single-link
/// degradations.
fn candidates(inst: &Instance, opts: &CampaignOptions) -> Vec<Candidate> {
    let topo = inst.topo();
    let permille = opts.degrade_permille.clamp(1, 999);
    let mut out = Vec::new();
    for (gi, group) in opts.groups.iter().enumerate() {
        out.push(Candidate {
            label: format!("srlg {gi}"),
            events: group
                .iter()
                .filter(|l| l.index() < topo.link_count())
                .map(|&l| LinkEvent {
                    link: l,
                    kind: EventKind::Down,
                })
                .collect(),
        });
    }
    for n in topo.nodes() {
        out.push(Candidate {
            label: format!("node {}", n.0),
            events: topo
                .links()
                .filter(|&l| topo.link(l).touches(n))
                .map(|l| LinkEvent {
                    link: l,
                    kind: EventKind::Down,
                })
                .collect(),
        });
    }
    for l in topo.links() {
        out.push(Candidate {
            label: format!("down {}", l.index()),
            events: vec![LinkEvent {
                link: l,
                kind: EventKind::Down,
            }],
        });
    }
    for l in topo.links() {
        out.push(Candidate {
            label: format!("degrade {} {permille}", l.index()),
            events: vec![LinkEvent {
                link: l,
                kind: EventKind::Degrade { permille },
            }],
        });
    }
    out
}

/// Plan-certificate prediction of delivered throughput under a tentative
/// failure state: each pair delivers at most its admitted demand and at
/// most its protected availability (reservations rescaled for any
/// partial-capacity degradation).
fn predicted_delivered(
    inst: &Instance,
    a: &[f64],
    b: &[f64],
    served: &[f64],
    state: &FailureState,
) -> f64 {
    let a_eff = degraded_reservations(inst, state, a);
    inst.pair_ids()
        .map(|p| served[p.0].min(availability_under(inst, p, &a_eff, b, &state.dead).max(0.0)))
        .sum()
}

/// Runs the greedy adversarial campaign against every plan.
///
/// Each scheme gets its own fresh engine (shedding enabled) and its own
/// adaptive adversary; curves are directly comparable because the move
/// set, budget, and step count are shared. Fully deterministic: the
/// candidate order is fixed and ties break toward the earlier candidate.
pub fn run_campaign(plans: &[CampaignPlan<'_>], opts: &CampaignOptions) -> CampaignReport {
    let topology = plans
        .first()
        .map(|p| p.inst.topo().name().to_string())
        .unwrap_or_default();
    let curves = plans.iter().map(|plan| run_one(plan, opts)).collect();
    CampaignReport { topology, curves }
}

fn run_one(plan: &CampaignPlan<'_>, opts: &CampaignOptions) -> CampaignCurve {
    let (inst, a, b, served) = (plan.inst, plan.a, plan.b, plan.served);
    let admitted: f64 = served.iter().sum();
    let moves = candidates(inst, opts);
    let mut engine = ReplayEngine::new(inst, a, b, served, opts.tol, 64);
    engine.set_degrade(DegradeMode::Shed);
    let mut steps = Vec::with_capacity(opts.steps);
    let mut degraded = vec![false; inst.topo().link_count()];
    for _ in 0..opts.steps {
        let fs = engine.state();
        let dead_now = fs.dead.iter().filter(|&&d| d).count();
        // Score every admissible candidate against the plan's own
        // protection certificate; keep the most damaging one.
        let mut best: Option<(usize, f64)> = None;
        for (ci, cand) in moves.iter().enumerate() {
            let mut dead = fs.dead.clone();
            let mut cap_scale = fs.cap_scale.clone();
            let mut changed = false;
            for ev in &cand.events {
                match ev.kind {
                    EventKind::Down => {
                        if !dead[ev.link.index()] {
                            dead[ev.link.index()] = true;
                            changed = true;
                        }
                    }
                    EventKind::Degrade { permille } => {
                        if !dead[ev.link.index()] && !degraded[ev.link.index()] {
                            cap_scale[ev.link.index()] = f64::from(permille) / 1000.0;
                            changed = true;
                        }
                    }
                    EventKind::Up | EventKind::Wobble { .. } => {}
                }
            }
            if !changed {
                continue; // pure no-op against the current state
            }
            let new_dead = dead.iter().filter(|&&d| d).count();
            if new_dead > opts.max_down.max(dead_now) {
                continue; // over the adversary's concurrency budget
            }
            let Ok(state) = FailureState::with_cap_scale(inst, &dead, &cap_scale) else {
                continue;
            };
            let score = predicted_delivered(inst, a, b, served, &state);
            if best.is_none_or(|(_, s)| score < s) {
                best = Some((ci, score));
            }
        }
        let Some((ci, predicted)) = best else {
            break; // move set exhausted
        };
        let cand = &moves[ci];
        for ev in &cand.events {
            // Candidate links were filtered against the topology, so
            // apply cannot fail; a failure would only skip the event.
            let _ = engine.apply(ev);
            if let EventKind::Degrade { .. } = ev.kind {
                degraded[ev.link.index()] = true;
            }
        }
        let (delivered, shed, stage) = match engine.realize_degraded() {
            Ok(d) => (
                (admitted - d.shed_demand).max(0.0),
                d.shed_demand,
                EventStage::from(d.ladder_stage),
            ),
            Err(_) => (0.0, admitted, EventStage::Failed),
        };
        steps.push(CampaignStep {
            event: cand.label.clone(),
            predicted,
            delivered,
            shed,
            stage,
        });
    }
    CampaignCurve {
        scheme: plan.scheme.clone(),
        admitted,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pcf_core::{
        pcf_ls_instance, solve_ffc, solve_pcf_ls, tunnel_instance, FailureModel, RobustOptions,
    };
    use pcf_topology::zoo;
    use pcf_traffic::gravity;

    #[test]
    fn campaign_is_deterministic_and_monotone_in_damage() {
        let topo = zoo::build("Abilene");
        let tm = gravity(&topo, 11);
        let inst = pcf_ls_instance(&topo, &tm, 3);
        let sol = solve_pcf_ls(&inst, &FailureModel::links(1), &RobustOptions::default());
        let served = sol.served(&inst);
        let opts = CampaignOptions {
            steps: 3,
            groups: vec![vec![pcf_topology::LinkId(0), pcf_topology::LinkId(1)]],
            ..CampaignOptions::default()
        };
        let plan = CampaignPlan {
            scheme: "pcf-ls".into(),
            inst: &inst,
            a: &sol.a,
            b: &sol.b,
            served: &served,
        };
        let r1 = run_campaign(std::slice::from_ref(&plan), &opts);
        let r2 = run_campaign(std::slice::from_ref(&plan), &opts);
        assert_eq!(r1, r2);
        assert_eq!(r1.to_json(), r2.to_json());
        assert_eq!(r1.digest(), r2.digest());
        let curve = &r1.curves[0];
        assert_eq!(curve.steps.len(), 3);
        // Damage never helps: delivered throughput is non-increasing.
        let mut last = curve.admitted;
        for s in &curve.steps {
            assert!(
                s.delivered <= last + 1e-9,
                "event {} increased delivery {last} -> {}",
                s.event,
                s.delivered
            );
            assert!((s.delivered + s.shed - curve.admitted).abs() < 1e-6);
            last = s.delivered;
        }
        assert!(curve.retained() <= curve.admitted);
        assert!(r1.to_json().contains("\"digest\""));
    }

    /// A GML `label` may hold any string; the report must still parse.
    #[test]
    fn topology_names_are_escaped() {
        let name = "lab\\net\tA\u{1}";
        let rep = CampaignReport {
            topology: name.into(),
            curves: vec![CampaignCurve {
                scheme: "ffc".into(),
                admitted: 2.0,
                steps: vec![CampaignStep {
                    event: "down 0".into(),
                    predicted: 1.5,
                    delivered: 1.5,
                    shed: 0.5,
                    stage: EventStage::Rescaled,
                }],
            }],
        };
        let json = rep.to_json();
        let parsed = Json::parse(&json).unwrap_or_else(|e| panic!("{e}: {json}"));
        assert_eq!(parsed.get("topology").and_then(Json::as_str), Some(name));
    }

    #[test]
    fn pcf_ls_retains_more_than_ffc_under_the_same_adversary() {
        let topo = zoo::build("Abilene");
        let tm = gravity(&topo, 11);
        let fm = FailureModel::links(1);
        let ropts = RobustOptions::default();
        let ffc_inst = tunnel_instance(&topo, &tm, 3);
        let ffc_sol = solve_ffc(&ffc_inst, &fm, &ropts);
        let ffc_served = ffc_sol.served(&ffc_inst);
        let ls_inst = pcf_ls_instance(&topo, &tm, 3);
        let ls_sol = solve_pcf_ls(&ls_inst, &fm, &ropts);
        let ls_served = ls_sol.served(&ls_inst);
        let plans = [
            CampaignPlan {
                scheme: "ffc".into(),
                inst: &ffc_inst,
                a: &ffc_sol.a,
                b: &ffc_sol.b,
                served: &ffc_served,
            },
            CampaignPlan {
                scheme: "pcf-ls".into(),
                inst: &ls_inst,
                a: &ls_sol.a,
                b: &ls_sol.b,
                served: &ls_served,
            },
        ];
        let opts = CampaignOptions {
            steps: 4,
            groups: pcf_topology::SrlgSet::synthetic(&topo, 2, 4, 7).link_groups(),
            max_down: 3,
            ..CampaignOptions::default()
        };
        let report = run_campaign(&plans, &opts);
        let ffc = report.curve("ffc").unwrap();
        let ls = report.curve("pcf-ls").unwrap();
        assert!(
            report.separation_ok() == Some(true),
            "separation violated: ffc retained {} vs pcf-ls retained {}\n{}",
            ffc.retained(),
            ls.retained(),
            report.to_json()
        );
    }
}
