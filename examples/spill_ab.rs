//! Release A/B smoke of the sharded spill-capable interner (CI): the
//! Theorem 2 direct quotient built with spill forced on (tiny limit, so
//! rows really go through the temp file) and the interner
//! sharded must be **bitwise** identical to the resident single-shard
//! reference — states, orbit sizes, representative bytes, enabled sets,
//! chain bits, and the end-to-end throughput.
//!
//! A second leg points the same machinery at the 10M-class 7×8 shape
//! under a deliberately small `max_states` budget: the spilled and the
//! resident BFS must walk the identical prefix and refuse at the same
//! budget, proving the spill path takes the big-shape route without
//! perturbing the scan order.  (The full 7×8 build-and-solve takes
//! minutes, not smoke; its spill-off/spill-on record is history in
//! `CHANGES.md`.)
//!
//! ```sh
//! cargo run --release --example spill_ab
//! ```

use repstream::core::exponential::{throughput_strict_report, ExpOptions};
use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::markov::marking::{MarkingError, MarkingOptions, QuotientGraph};
use repstream::markov::net::EventNet;
use repstream::petri::shape::{ExecModel, MappingShape, ResourceTable};
use repstream::petri::tpn::Tpn;

/// Spill limit small enough that every build parks rows on disk.
const TINY_SPILL: usize = 4 << 10;

/// The homogeneous Strict quotient of `teams` and the net's transition
/// rates, which rate its chain.
fn quotient_for(
    teams: &[usize],
    opts: MarkingOptions,
) -> Result<(QuotientGraph, Vec<f64>), MarkingError> {
    let shape = MappingShape::new(teams.to_vec());
    let tpn = Tpn::build(&shape, ExecModel::Strict);
    let rates = ResourceTable::from_fns(&shape, |_, _| 0.5, |_, _, _| 2.0);
    let (net, sym) = EventNet::from_tpn_with_symmetry(&tpn, &rates);
    let sym = sym.expect("homogeneous table keeps the row rotation");
    Ok((QuotientGraph::build(&net, &sym, opts)?, net.rates))
}

fn opts(threads: usize, shards: usize, spill: bool, max_states: usize) -> MarkingOptions {
    MarkingOptions {
        max_states,
        capacity: None,
        threads,
        interner_shards: shards,
        interner_spill: spill,
        spill_limit: if spill { TINY_SPILL } else { 0 },
        ..Default::default()
    }
}

fn main() {
    // Leg 1: 5×6 quotient, spilled+sharded matrix vs resident reference.
    let t = std::time::Instant::now();
    let (reference, rates) =
        quotient_for(&[5, 6], opts(1, 1, false, 1 << 22)).expect("reference build");
    let reference_ctmc = reference.ctmc_with_trans_rates(&rates);
    let reference_targets = reference_ctmc.structure().forward_targets();
    println!(
        "5x6 reference: {} states ({} full), {:?}, {} arena+interner bytes resident",
        reference.n_states(),
        reference.full_states(),
        t.elapsed(),
        reference.arena_stats().total()
    );
    let (mut buf_a, mut buf_b) = (Vec::new(), Vec::new());
    for threads in [1usize, 2, 4] {
        for shards in [4usize, 16] {
            let what = format!("threads {threads} shards {shards} spill on");
            let t = std::time::Instant::now();
            let (qg, _) = quotient_for(&[5, 6], opts(threads, shards, true, 1 << 22)).expect(&what);
            let ctmc = qg.ctmc_with_trans_rates(&rates);
            let stats = qg.arena_stats();
            assert!(
                stats.spill_bytes > 0,
                "{what}: a {TINY_SPILL}-byte limit must actually spill"
            );
            assert_eq!(qg.n_states(), reference.n_states(), "{what}: states");
            assert_eq!(qg.orbit_sizes(), reference.orbit_sizes(), "{what}: orbits");
            assert_eq!(
                ctmc.structure().forward_targets(),
                reference_targets,
                "{what}: forward targets"
            );
            for s in 0..reference.n_states() {
                assert_eq!(
                    qg.states.read_into(s, &mut buf_a),
                    reference.states.read_into(s, &mut buf_b),
                    "{what}: representative {s}"
                );
                assert_eq!(qg.enabled(s), reference.enabled(s), "{what}: enabled {s}");
                assert!(
                    ctmc.incoming(s)
                        .map(|(i, r)| (i, r.to_bits()))
                        .eq(reference_ctmc.incoming(s).map(|(i, r)| (i, r.to_bits()))),
                    "{what}: incoming {s}"
                );
                for (x, y) in ctmc.row_rates(s).zip(reference_ctmc.row_rates(s)) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{what}: rate bits of {s}");
                }
            }
            println!(
                "{what}: bitwise OK, {:?}, {} bytes spilled / {} resident",
                t.elapsed(),
                stats.spill_bytes,
                stats.total()
            );
        }
    }

    // End-to-end throughput through the public API must also be bitwise.
    let app = Application::uniform(2, 6.0, 12.0).expect("valid app");
    let platform = Platform::complete(vec![2.0; 11], 1.0).expect("valid platform");
    let mapping = Mapping::new(vec![(0..5).collect(), (5..11).collect()]).expect("valid mapping");
    let system = System::new(app, platform, mapping).expect("valid system");
    let resident = throughput_strict_report(&system, ExpOptions::default()).expect("resident");
    let spilled = throughput_strict_report(
        &system,
        ExpOptions {
            interner_spill: true,
            ..Default::default()
        },
    )
    .expect("spilled");
    assert_eq!(
        resident.throughput.to_bits(),
        spilled.throughput.to_bits(),
        "spill must be storage-only: {} vs {}",
        resident.throughput,
        spilled.throughput
    );
    println!(
        "5x6 end-to-end: rho = {:.12} (resident and spilled bitwise equal, \
         solver={} iters={})",
        spilled.throughput,
        spilled.solver.label(),
        spilled.iterations
    );

    // Leg 2: budget-capped 7×8 prefix — the 10M-class shape.  Both modes
    // must walk the identical BFS prefix and refuse at the same budget.
    const PREFIX_BUDGET: usize = 150_000;
    for threads in [1usize, 2] {
        let t = std::time::Instant::now();
        let resident = quotient_for(&[7, 8], opts(threads, 1, false, PREFIX_BUDGET)).err();
        let spilled = quotient_for(&[7, 8], opts(threads, 16, true, PREFIX_BUDGET)).err();
        let what = format!("7x8 prefix, threads {threads}");
        assert_eq!(
            resident,
            Some(MarkingError::TooManyStates(PREFIX_BUDGET)),
            "{what}: resident run must refuse at the budget"
        );
        assert_eq!(
            spilled, resident,
            "{what}: spilled run must refuse identically"
        );
        println!(
            "{what}: both modes refused at {PREFIX_BUDGET} states, {:?}",
            t.elapsed()
        );
    }
    println!("OK: sharded + spilled builds are bitwise identical to the resident reference");
}
