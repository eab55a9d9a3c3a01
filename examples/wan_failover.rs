//! WAN failover walkthrough: solve PCF-LS offline, then watch the *online*
//! response — the light-weight rescaling/linear-system step the paper's §4
//! describes — as links die, and audit congestion-freedom across every
//! targeted scenario.
//!
//! ```text
//! cargo run --release --example wan_failover
//! ```

use pcf_core::realize::{realize_routing, reservation_matrix, topological_order, FailureState};
use pcf_core::validate::validate_all;
use pcf_core::{pcf_ls_instance, scale_to_mlu, solve_pcf_ls, FailureModel, RobustOptions};
use pcf_topology::{zoo, LinkId};
use pcf_traffic::gravity;

fn main() {
    let topo = zoo::build("B4");
    let (tm, _) = scale_to_mlu(&topo, &gravity(&topo, 7), 0.6);
    let fm = FailureModel::links(1);

    // Offline: compute reservations (runs every few minutes in practice).
    let inst = pcf_ls_instance(&topo, &tm, 3);
    let sol = solve_pcf_ls(&inst, &fm, &RobustOptions::default());
    println!(
        "offline plan: demand scale {:.4} ({} tunnels, {} logical sequences, {} cutting-plane rounds)",
        sol.objective,
        inst.num_tunnels(),
        inst.num_lss(),
        sol.rounds
    );
    assert!(
        topological_order(&inst, &sol.b, &vec![true; inst.num_lss()]).is_some(),
        "shortest-path LSs are topologically sorted -> local proportional routing applies"
    );

    let served = sol.served(&inst);

    // Online: no failure.
    let no_fail = vec![false; topo.link_count()];
    let state = FailureState::new(&inst, &no_fail).expect("mask matches topology");
    let routing = realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6).unwrap();
    println!(
        "\nno failure:  max link utilization {:.3}",
        routing.max_utilization(&inst)
    );

    // Online: fail each of the three highest-capacity links in turn.
    let mut links: Vec<LinkId> = topo.links().collect();
    links.sort_by(|&a, &b| topo.capacity(b).partial_cmp(&topo.capacity(a)).unwrap());
    for &l in links.iter().take(3) {
        let mut dead = vec![false; topo.link_count()];
        dead[l.index()] = true;
        let state = FailureState::new(&inst, &dead).expect("mask matches topology");
        // The realization: the fully distributed proportional rescaling
        // (Prop. 7's walk)...
        let prop = realize_routing(&inst, &state, &sol.a, &sol.b, &served, 1e-6).unwrap();
        // ...against the centralized one linear system (Prop. 6), densely.
        let m = reservation_matrix(&inst, &state, &sol.a, &sol.b, &prop.pairs);
        let d: Vec<f64> = prop.pairs.iter().map(|p| served[p.0]).collect();
        let lin = pcf_lp::solve_dense(&m, &[d]).unwrap().remove(0);
        let delta: f64 = lin
            .iter()
            .zip(&prop.u)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!(
            "fail {} (cap {:>4.1}): max utilization {:.3}, live tunnels {}, |linear - proportional| = {:.2e}",
            l,
            topo.capacity(l),
            prop.max_utilization(&inst),
            state.tunnel_alive.iter().filter(|&&x| x).count(),
            delta
        );
    }

    // Audit: every targeted scenario.
    let report = validate_all(&inst, &fm, &sol.a, &sol.b, &served, 1e-6);
    println!(
        "\naudit over all {} single-failure scenarios: {} (max utilization {:.3})",
        report.scenarios,
        if report.congestion_free() {
            "CONGESTION-FREE"
        } else {
            "VIOLATIONS FOUND"
        },
        report.max_utilization
    );
    assert!(report.congestion_free());
}
