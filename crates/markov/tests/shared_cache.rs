//! Concurrency stress for the sharded [`SharedChainCache`] (serving-layer
//! satellite): 8 threads hammering mixed hot/cold signatures must each
//! get results **bitwise identical** to a cold sequential build, exactly
//! one build per distinct signature must happen, and a build killed
//! mid-BFS by a governor interrupt must never leave a partial entry
//! behind — the next caller rebuilds and gets the exact cold bits.

use repstream_markov::cache::{ChainCache, SharedChainCache};
use repstream_markov::govern::{Budget, RunConfig};
use repstream_petri::shape::{MappingShape, ResourceTable};
use std::sync::atomic::AtomicBool;

/// Homogeneous rates (orbit-invariant → the quotient path).
fn hom_rates(shape: &MappingShape) -> ResourceTable<f64> {
    ResourceTable::from_fns(shape, |_, _| 1.0 / 2.0, |_, _, _| 1.0 / 3.0)
}

/// Heterogeneous rates (slot-dependent → the full-chain path).
fn het_rates(shape: &MappingShape) -> ResourceTable<f64> {
    ResourceTable::from_fns(
        shape,
        |stage, slot| 1.0 / (1.0 + stage as f64 + 0.25 * slot as f64),
        |file, src, dst| 1.0 / (2.0 + file as f64 + 0.5 * src as f64 + 0.125 * dst as f64),
    )
}

/// The cold sequential truth: a fresh single-threaded cache per call, so
/// nothing is ever warm.
fn cold_strict(shape: &MappingShape, rates: &ResourceTable<f64>, opts: RunConfig) -> f64 {
    ChainCache::new()
        .strict_throughput(shape, rates, opts)
        .expect("cold build")
        .throughput
}

#[test]
fn eight_threads_mixed_hot_cold_bitwise_equal_to_cold() {
    // Mixed battery: two hot shapes everyone hammers + one cold shape
    // per thread.  Homogeneous entries take the quotient path,
    // heterogeneous ones the full chain — both flow through the shards.
    let hot: Vec<(Vec<usize>, bool)> = vec![(vec![2, 2], true), (vec![1, 2, 1], false)];
    let cold_per_thread: Vec<Vec<usize>> = vec![
        vec![1, 1],
        vec![2, 1],
        vec![1, 2],
        vec![3, 1],
        vec![1, 3],
        vec![2, 2, 1],
        vec![1, 1, 2],
        vec![3, 2],
    ];
    let opts = RunConfig::default();

    // Expected bits, cold and sequential, before any sharing happens.
    let expect = |teams: &[usize], hom: bool| -> u64 {
        let shape = MappingShape::new(teams.to_vec());
        let rates = if hom {
            hom_rates(&shape)
        } else {
            het_rates(&shape)
        };
        cold_strict(&shape, &rates, opts).to_bits()
    };
    let hot_bits: Vec<u64> = hot.iter().map(|(t, h)| expect(t, *h)).collect();
    let cold_bits: Vec<u64> = cold_per_thread.iter().map(|t| expect(t, false)).collect();

    let cache = SharedChainCache::with_shards(8);
    std::thread::scope(|s| {
        for (tid, cold_teams) in cold_per_thread.iter().enumerate() {
            let cache = &cache;
            let hot = &hot;
            let hot_bits = &hot_bits;
            let cold_bits = &cold_bits;
            s.spawn(move || {
                for round in 0..6 {
                    // Hot shapes in a per-thread rotation so lock
                    // acquisition order differs across threads.
                    let (teams, hom) = &hot[(tid + round) % hot.len()];
                    let shape = MappingShape::new(teams.clone());
                    let rates = if *hom {
                        hom_rates(&shape)
                    } else {
                        het_rates(&shape)
                    };
                    let sol = cache
                        .strict_throughput(&shape, &rates, opts)
                        .expect("hot solve");
                    assert_eq!(
                        sol.throughput.to_bits(),
                        hot_bits[(tid + round) % hot.len()],
                        "thread {tid} round {round}: hot {teams:?} diverged from cold build"
                    );
                    // This thread's private cold shape.
                    let shape = MappingShape::new(cold_teams.clone());
                    let rates = het_rates(&shape);
                    let sol = cache
                        .strict_throughput(&shape, &rates, opts)
                        .expect("cold solve");
                    assert_eq!(
                        sol.throughput.to_bits(),
                        cold_bits[tid],
                        "thread {tid} round {round}: cold {cold_teams:?} diverged"
                    );
                }
            });
        }
    });

    // One BFS per distinct signature, ever: 2 hot + 8 cold shapes.
    let stats = cache.stats();
    assert_eq!(
        stats.strict_misses,
        hot.len() + cold_per_thread.len(),
        "every distinct signature builds exactly once"
    );
    // 8 threads × 6 rounds × 2 solves = 96 total; the rest were warm.
    assert_eq!(stats.strict_hits + stats.strict_misses, 96);
    assert!(stats.strict_hits >= 96 - 10);
}

#[test]
fn pattern_chains_share_across_threads_bitwise() {
    // The (u, v) pattern cache keys on dimensions only; the solve runs
    // per rate matrix.  All threads ask for mixed (u, v) with
    // thread-dependent rates and must match their own cold build.
    // Pattern dimensions must be coprime (the u×v inner chain).
    let dims = [(1usize, 2usize), (1, 3), (2, 3), (3, 2)];
    let rate_for = |u: usize, v: usize, salt: usize| -> Vec<Vec<f64>> {
        (0..u)
            .map(|i| {
                (0..v)
                    .map(|j| 1.0 + (i * v + j + salt) as f64 / 8.0)
                    .collect()
            })
            .collect()
    };
    let cache = SharedChainCache::new();
    std::thread::scope(|s| {
        for tid in 0..8 {
            let cache = &cache;
            s.spawn(move || {
                for round in 0..4 {
                    let (u, v) = dims[(tid + round) % dims.len()];
                    let rate = rate_for(u, v, tid);
                    let warm = cache
                        .pattern_throughput(&rate, 1 << 16)
                        .expect("pattern solve");
                    let cold = ChainCache::new()
                        .pattern_throughput(&rate, 1 << 16)
                        .expect("cold pattern");
                    assert_eq!(
                        warm.to_bits(),
                        cold.to_bits(),
                        "thread {tid} ({u}×{v}) diverged from cold"
                    );
                }
            });
        }
    });
    assert_eq!(cache.stats().pattern_misses, dims.len());
}

#[test]
fn interrupted_build_leaves_no_partial_entry() {
    static CANCELLED: AtomicBool = AtomicBool::new(true);

    let shape = MappingShape::new(vec![2, 2, 1]);
    let rates = het_rates(&shape);
    let cache = SharedChainCache::new();

    // A pre-cancelled budget interrupts the marking BFS at its first
    // governor checkpoint — mid-build, with the shard lock held.
    let doomed = RunConfig {
        budget: Budget::UNLIMITED.cancelled_by(&CANCELLED),
        ..Default::default()
    };
    for _ in 0..3 {
        let err = cache
            .strict_throughput(&shape, &rates, doomed)
            .expect_err("pre-cancelled build must not succeed");
        assert!(
            err.interrupt().is_some(),
            "failure must be the governor interrupt, got {err:?}"
        );
    }
    // Nothing was served from cache: every doomed attempt re-entered the
    // builder (a partial entry would have turned attempt 2+ into hits).
    assert_eq!(cache.stats().strict_hits, 0);

    // The same signature, unlimited: a full rebuild, bitwise the cold
    // sequential answer — the poisoned attempts left nothing behind.
    let sol = cache
        .strict_throughput(&shape, &rates, RunConfig::default())
        .expect("rebuild after interrupts");
    let cold = cold_strict(&shape, &rates, RunConfig::default());
    assert_eq!(sol.throughput.to_bits(), cold.to_bits());

    // And now it is genuinely cached: a repeat is a warm hit with the
    // same bits.
    let again = cache
        .strict_throughput(&shape, &rates, RunConfig::default())
        .expect("warm hit");
    assert_eq!(again.throughput.to_bits(), cold.to_bits());
    assert!(again.cache_hit, "second unlimited solve must be warm");
    assert!(cache.stats().strict_hits >= 1);
}

#[test]
fn shard_counts_round_up_and_solve_identically() {
    let shape = MappingShape::new(vec![2, 1]);
    let rates = hom_rates(&shape);
    let expected = cold_strict(&shape, &rates, RunConfig::default()).to_bits();
    for shards in [0, 1, 3, 16, 33] {
        let cache = SharedChainCache::with_shards(shards);
        assert!(cache.shards().is_power_of_two(), "shards={shards}");
        let sol = cache
            .strict_throughput(&shape, &rates, RunConfig::default())
            .expect("solve");
        assert_eq!(sol.throughput.to_bits(), expected, "shards={shards}");
    }
}
