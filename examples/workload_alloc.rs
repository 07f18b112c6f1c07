//! Multi-application joint allocation on a shared platform.
//!
//! ```sh
//! cargo run --release --example workload_alloc
//! ```
//!
//! Two tenants of the `shared_platform` scenario — the 4-stage
//! mapping-search chain twice, the second with weight 2 and a 0.02 jobs/s
//! SLA — contend for the 12 heterogeneous processors.  The joint search
//! runs once per objective:
//!
//! * **maxmin** — maximize the worst weighted per-app throughput (fair);
//! * **weighted** — maximize the weighted sum (total goodput, may starve
//!   a tenant);
//! * **sla** — maximize the worst SLA headroom (`ρ / sla`, feasible iff
//!   ≥ 1).
//!
//! The smoke assertion at the end is the fairness/efficiency trade-off
//! itself: the max-min winner's *minimum* per-app throughput is at least
//! the weighted winner's — a weighted-sum objective is free to starve the
//! slow app, max-min is not.

use repstream::engine::{workload_search, Objective, PortfolioOptions, WorkloadSearchOptions};
use repstream::workload::scenarios;

fn main() {
    let workload = scenarios::shared_platform(2);
    println!(
        "joint allocation: {} apps on {} shared processors\n",
        workload.n_apps(),
        workload.platform().n_processors()
    );

    let mut min_by_objective = Vec::new();
    for objective in [Objective::MaxMin, Objective::Weighted, Objective::Sla] {
        let report = workload_search(
            &workload,
            WorkloadSearchOptions {
                objective,
                portfolio: PortfolioOptions {
                    random_candidates: 256,
                    seed: 2010,
                    ..Default::default()
                },
            },
        )
        .expect("search");
        let best = &report.best;
        let min = best.per_app.iter().copied().fold(f64::INFINITY, f64::min);
        println!(
            "objective {:<9} winner {:<10} per-app det {:?}  (min {:.5})",
            objective.label(),
            best.origin,
            best.per_app
                .iter()
                .map(|r| (r * 1e5).round() / 1e5)
                .collect::<Vec<_>>(),
            min
        );
        println!(
            "  contention: {} shared processors, {} shared links, busiest carries {} apps",
            report.contention.shared_processors,
            report.contention.shared_links,
            report.contention.max_processor_users
        );
        println!(
            "  evaluations: {} det + {} delta recomputes + {} exp \
             (shared chain cache: {} hits / {} misses)",
            report.det_evaluations,
            report.delta_recomputes,
            report.exp_evaluations,
            report.exp_cache.hits(),
            report.exp_cache.misses(),
        );
        min_by_objective.push((objective, min));
    }

    // The CI smoke check: fairness means the max-min winner cannot leave
    // any app below what the weighted-sum winner leaves its worst app.
    let maxmin_min = min_by_objective[0].1;
    let weighted_min = min_by_objective[1].1;
    assert!(
        maxmin_min >= weighted_min,
        "max-min winner's worst app ({maxmin_min}) fell below the \
         weighted winner's worst app ({weighted_min})"
    );
    println!(
        "\nfairness check: maxmin min-throughput {maxmin_min:.5} >= \
         weighted min-throughput {weighted_min:.5}  ok"
    );
}
