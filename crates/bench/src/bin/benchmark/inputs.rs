//! The benchmark's own input generator: `--seed` feeds only this module,
//! the library receives the generated systems.
//!
//! Inputs of op `i` of a workload depend only on `(seed, workload, i)`, so
//! a run that completes more ops in its time budget sees a prefix-extended
//! input sequence, never a different one.

use repstream::core::model::{Application, Mapping, Platform, System};

/// xorshift64* — the benchmark's private generator (deliberately not the
/// workspace's `rand` shim, which a later change may replace).
#[derive(Debug, Clone)]
pub struct XorShift(u64);

impl XorShift {
    /// Seeded through one splitmix64 step so that nearby seeds (op
    /// indices) give unrelated streams and the state is never zero.
    pub fn new(seed: u64) -> XorShift {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        XorShift((z ^ (z >> 31)).max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next_u64() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The stream of op `op` of workload number `workload` under `seed`.
pub fn op_rng(seed: u64, workload: u64, op: u64) -> XorShift {
    XorShift::new(
        seed ^ workload.wrapping_mul(0xA24B_AED4_963E_E407)
            ^ op.wrapping_mul(0x9FB2_1C65_1E98_DF25),
    )
}

/// Consecutive processors `0..Σ teams` split into teams of the given sizes.
fn consecutive_mapping(teams: &[usize]) -> Mapping {
    let mut next = 0;
    let teams = teams
        .iter()
        .map(|&r| {
            next += r;
            (next - r..next).collect()
        })
        .collect();
    Mapping::new(teams).expect("consecutive teams are disjoint and non-empty")
}

/// `hom(R₁×…×R_n)`: one work, one file size, one speed, one bandwidth, so
/// the TPN's row rotation survives into the rate table and the Strict
/// chain is solved on the direct quotient.
pub fn hom(teams: &[usize], work: f64, file: f64) -> System {
    let app = Application::uniform(teams.len(), work, file).expect("positive work and file size");
    let platform =
        Platform::homogeneous(teams.iter().sum(), 2.0, 1.0).expect("positive speed and bandwidth");
    System::new(app, platform, consecutive_mapping(teams)).expect("mapping fits the platform")
}

/// `het(R₁×…×R_n)`: per-processor speeds drawn from `rng`, so the rotation
/// does not survive and the Strict chain is the full marking graph.
pub fn het(teams: &[usize], rng: &mut XorShift) -> System {
    let app = Application::uniform(teams.len(), 6.0, 12.0).expect("positive work and file size");
    let speeds = (0..teams.iter().sum())
        .map(|_| rng.range(1.0, 2.0))
        .collect();
    let platform = Platform::complete(speeds, 1.0).expect("positive speeds and bandwidth");
    System::new(app, platform, consecutive_mapping(teams)).expect("mapping fits the platform")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let speeds = |seed: u64, op: u64| -> Vec<u64> {
            let sys = het(&[2, 3], &mut op_rng(seed, 3, op));
            (0..5).map(|p| sys.platform().speed(p).to_bits()).collect()
        };
        assert_eq!(speeds(2010, 7), speeds(2010, 7));
        assert_ne!(speeds(2010, 7), speeds(2011, 7));
        assert_ne!(speeds(2010, 7), speeds(2010, 8));
    }

    #[test]
    fn range_stays_in_bounds() {
        let mut rng = XorShift::new(0);
        for _ in 0..10_000 {
            let x = rng.range(4.0, 8.0);
            assert!((4.0..8.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn hom_keeps_the_rotation_het_breaks_it() {
        let h = hom(&[2, 3], 6.0, 12.0);
        assert!((0..5).all(|p| h.platform().speed(p) == 2.0));
        assert_eq!(h.mapping().teams(), &[vec![0, 1], vec![2, 3, 4]]);
        let x = het(&[2, 3], &mut XorShift::new(1));
        assert_ne!(x.platform().speed(0), x.platform().speed(1));
    }
}
