//! Probabilistic (pruned) design and capacity augmentation — the §6
//! extensions: design for the failure scenarios that actually matter, then
//! buy the cheapest capacity that lifts the guarantee to a target.
//!
//! ```text
//! cargo run --release --example probabilistic_design
//! ```

use pcf_core::validate::validate_all;
use pcf_core::{augment_capacity, solve_pcf_tf, tunnel_instance, FailureModel, RobustOptions};
use pcf_topology::zoo;
use pcf_traffic::gravity;

fn main() {
    let topo = zoo::build("B4");
    let (tm, _) = pcf_core::scale_to_mlu(&topo, &gravity(&topo, 9), 0.6);
    let inst = tunnel_instance(&topo, &tm, 3);
    let opts = RobustOptions::default();

    // 1. Classic all-f designs vs a probability-pruned design.
    //    Long-haul links (here: the fattest) fail more often.
    let probs: Vec<f64> = topo
        .links()
        .map(|l| if topo.capacity(l) >= 5.0 { 0.02 } else { 0.004 })
        .collect();
    let pruned = FailureModel::pruned_by_probability(&topo, &probs, 1e-4, 64);
    let n_pruned = pruned.scenario_count(&topo);

    let all1 = solve_pcf_tf(&inst, &FailureModel::links(1), &opts);
    let all2 = solve_pcf_tf(&inst, &FailureModel::links(2), &opts);
    let prb = solve_pcf_tf(&inst, &pruned, &opts);
    println!("guaranteed demand scale (PCF-TF, B4):");
    println!("  all single link failures      {:.4}", all1.objective);
    println!("  all double link failures      {:.4}", all2.objective);
    println!(
        "  {} scenarios with P >= 1e-4    {:.4}  <- likely doubles covered, far above f=2",
        n_pruned, prb.objective
    );

    // The pruned design is exactly safe on its own scenario list.
    let report = validate_all(&inst, &pruned, &prb.a, &prb.b, &prb.served(&inst), 1e-6);
    assert!(report.congestion_free());
    println!(
        "  pruned design audited over its {} scenarios: congestion-free",
        report.scenarios
    );

    // 2. Capacity augmentation: lift the all-single-failure guarantee by
    //    25% at minimum added capacity (§6: "simply making capacities
    //    variable").
    let target = all1.objective * 1.25;
    let aug = augment_capacity(&inst, &FailureModel::links(1), target, |_| 1.0, &opts)
        .expect("augmentation LP solves")
        .expect("augmentation converges");
    let upgraded: Vec<_> = topo
        .links()
        .filter(|l| aug.extra[l.index()] > 1e-6)
        .collect();
    println!("\nto guarantee {:.4} (+25%) under single failures:", target);
    println!(
        "  add {:.3} units of capacity across {} links:",
        aug.total_cost,
        upgraded.len()
    );
    for l in upgraded.iter().take(5) {
        let link = topo.link(*l);
        println!(
            "    {} ({} - {}): +{:.3} on {:.1}",
            l,
            topo.node_name(link.u),
            topo.node_name(link.v),
            aug.extra[l.index()],
            link.capacity
        );
    }
    if upgraded.len() > 5 {
        println!("    ... and {} more", upgraded.len() - 5);
    }
}
