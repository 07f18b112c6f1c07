//! Mapping construction with the throughput evaluators (the paper's §8
//! "future work", implemented).
//!
//! ```sh
//! cargo run --release --example mapping_search
//! ```
//!
//! On the 12-processor heterogeneous `mapping_search` scenario, score the
//! greedy construction, then run the engine's **portfolio driver**
//! (greedy + parallel random batch + delta-scored hill climbing +
//! exponential re-rank) over the batch evaluation engine.

use repstream::core::mapping_opt::greedy;
use repstream::core::model::SystemRef;
use repstream::core::{deterministic, exponential};
use repstream::engine::{portfolio_search, PortfolioOptions};
use repstream::petri::shape::ExecModel;
use repstream::workload::scenarios;

fn main() {
    // Two heavy *adjacent* stages: the best mappings replicate both, so
    // the transfer between them becomes a u×v pattern where deterministic
    // and exponential throughputs genuinely differ (Theorem 4).
    let (app, platform) = scenarios::mapping_search();
    let model = ExecModel::Overlap;

    let g = greedy(&app, &platform, model).expect("greedy");
    println!(
        "greedy  det-throughput {:.5}  {:?}",
        g.throughput,
        g.mapping.teams()
    );

    // Under exponential variability the greedy mapping loses throughput
    // (Theorem 7: variability punishes replicated columns).
    let sys = SystemRef::new(&app, &platform, &g.mapping).expect("valid candidate");
    let exp = exponential::throughput_overlap(sys).expect("exp");
    let det = deterministic::analyze(sys, ExecModel::Overlap).throughput;
    println!(
        "greedy  exp {:.5} (det {:.5}, robustness {:.1}%)",
        exp.throughput,
        det,
        100.0 * exp.throughput / det
    );

    // The portfolio driver starts from greedy on the batch engine:
    // zero-clone scoring, memoized pattern periods, chunk-parallel random
    // batches, O(affected) hill-climb rescoring, chain-cached re-rank.
    let report = portfolio_search(
        &app,
        &platform,
        PortfolioOptions {
            random_candidates: 512,
            seed: 17,
            ..Default::default()
        },
    )
    .expect("portfolio");
    println!("\nportfolio finalists (det-ranked, exp re-ranked):");
    for c in &report.finalists {
        println!(
            "{:<11} det {:.5}  exp {:.5}  {:?}",
            c.origin,
            c.det,
            c.exp.expect("re-rank on"),
            c.mapping.teams()
        );
    }
    println!(
        "evaluations: {} det (batch) + {} delta column recomputes + {} exp \
         (chain cache: {} hits / {} misses)",
        report.det_evaluations,
        report.delta_recomputes,
        report.exp_evaluations,
        report.exp_cache.hits(),
        report.exp_cache.misses(),
    );
}
