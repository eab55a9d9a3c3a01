//! Quickstart: allocate congestion-free bandwidth on a WAN and compare
//! FFC against PCF's schemes.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pcf_core::{
    optimal_demand_scale, scale_to_mlu, FailureModel, RobustError, RobustOptions, ScenarioCoverage,
    Scheme,
};
use pcf_topology::zoo;
use pcf_traffic::gravity;

fn main() -> Result<(), RobustError> {
    // 1. A topology: one of the paper's 21 evaluation networks (synthetic
    //    stand-in; drop in a real Topology Zoo GML via pcf_topology::gml).
    let topo = zoo::build("Sprint");
    println!(
        "topology: {} ({} nodes, {} links)",
        topo.name(),
        topo.node_count(),
        topo.link_count()
    );

    // 2. Gravity-model traffic, normalised so the optimal-routing MLU is
    //    0.6, as in the paper's setup (§5).
    let tm = gravity(&topo, 42);
    let (tm, _) = scale_to_mlu(&topo, &tm, 0.6);
    println!(
        "traffic: {} node pairs, total demand {:.2}",
        tm.positive_pairs().len(),
        tm.total()
    );

    // 3. Design against any single link failure.
    let fm = FailureModel::links(1);
    let opts = RobustOptions::default();

    // FFC (the baseline) uses 2 tunnels — its best setting; PCF schemes use
    // 3 (more tunnels only help PCF, Proposition 2). `Scheme::plan` selects
    // the tunnels, builds the scheme's instance and solves it.
    let scale = |scheme: Scheme, k: usize| -> Result<f64, RobustError> {
        let plan = scheme.plan(&topo, tm.clone(), k, &fm, &opts, None)?;
        Ok(plan.sol.objective)
    };
    let ffc = scale(Scheme::Ffc, 2)?;
    let (opt, scenarios, _) = optimal_demand_scale(&topo, &tm, &fm, ScenarioCoverage::Exhaustive);

    println!("\nguaranteed demand scale under any single link failure:");
    println!("  {:<22} {:>8}  {:>9}", "scheme", "scale", "vs FFC");
    for (name, v) in [
        ("FFC (2 tunnels)", ffc),
        ("PCF-TF (3 tunnels)", scale(Scheme::PcfTf, 3)?),
        ("PCF-LS", scale(Scheme::PcfLs, 3)?),
        ("PCF-CLS", scale(Scheme::PcfCls, 3)?),
        ("optimal response", opt),
    ] {
        println!("  {:<22} {:>8.4}  {:>8.2}x", name, v, v / ffc);
    }
    println!("\n(optimal = per-scenario multi-commodity flow over {scenarios} scenarios)");
    Ok(())
}
