//! Krylov and over-relaxation stationary solvers: restarted GMRES on the
//! singular system `πQ = 0`, and SOR on the balance equations.
//!
//! # Restarted GMRES on `πQ = 0`
//!
//! The stationary distribution is the left null vector of the generator:
//! `πQ = 0`, `Σπ = 1`.  We treat it as the linear system `A x = 0` with
//! the row-vector operator `A : x ↦ xQ` — a *gather* over the incoming
//! CSR (the exact structure of the power sweep, and chunk-parallel the
//! same way, so matvecs are bitwise deterministic for any thread count).
//!
//! The system is singular (rank `n − 1` for an irreducible chain) with
//! right-hand side zero, so plain GMRES would converge to the useless
//! `x = 0`.  Two standard devices make it well behaved:
//!
//! * **start on the simplex** — `x₀ = 1/n`, so the initial residual
//!   `r₀ = −x₀Q` is nonzero and lies in the range of `A` (every `xQ` has
//!   zero component sum, because rows of `Q` sum to zero).  The Krylov
//!   corrections therefore stay in the zero-sum subspace, where `A` is
//!   nonsingular, and `Σx = 1` is preserved up to rounding;
//! * **renormalized deflation** — after every restart the iterate is
//!   rescaled to unit sum, deflating the slow drift along the null
//!   direction that floating-point accumulation would otherwise feed.
//!
//! Each `GMRES_RESTART`-deep cycle runs the Arnoldi recurrence with
//! modified Gram–Schmidt, maintains the QR factorization of the small
//! Hessenberg matrix with Givens rotations (so the least-squares
//! residual norm is available *per step* for free), solves the
//! triangular system, and applies the correction.  All workspaces — the
//! Krylov basis, the Hessenberg columns, the rotation pairs, the
//! right-hand side — are allocated once and reused across restarts.
//!
//! Convergence is judged on the true max-norm stationarity residual
//! `‖xQ‖_∞` (the same contract [`Ctmc::stationary_solve`] verifies), not
//! on the least-squares estimate alone.
//!
//! # Jacobi right-scaling
//!
//! With [`Precond::Jacobi`] the Krylov recurrence runs on the scaled
//! operator `A′ : x ↦ (xQ)D⁻¹`, `D = diag(max(exit_j, →1))` — one extra
//! multiply per matvec entry, applied after the same deterministic
//! gather, so matvecs stay bitwise deterministic for any thread count.
//! Exit rates *are* the diagonal magnitudes of `Q` (`q_jj = −exit_j`),
//! so this equalizes column norms exactly where stiff rate tables spread
//! them; absorbing states (exit 0) keep scale 1, preserving the
//! division-free NaN story.  Because `D` is invertible, `x(QD⁻¹) = 0 ⇔
//! xQ = 0`: the iterate needs no untransforming and the final acceptance
//! still verifies the *unpreconditioned* residual.  Two care points:
//!
//! * **stopping** — the in-cycle least-squares estimate and the restart
//!   `beta` live in the scaled norm, so they are compared against
//!   `tol / max(D)` (since `‖xQ‖_∞ ≤ max(D)·‖(xQ)D⁻¹‖₂`), keeping the
//!   certificate sound in the caller's unscaled contract;
//! * **deflation** — scaled residuals no longer have exactly zero
//!   component sum, so corrections can drift off the simplex; the
//!   per-restart renormalization (already required for floating-point
//!   drift) absorbs exactly this component, since the drift direction is
//!   the null direction the deflation removes.
//!
//! # SOR
//!
//! [`Ctmc::stationary_sor`] is the Gauss–Seidel sweep of
//! [`Ctmc::stationary_gauss_seidel`] with an over-relaxation blend:
//!
//! ```text
//!   π_j ← (1 − ω)·π_j + ω·( Σ_{i→j} π_i r_ij ) / exit_j
//! ```
//!
//! With `ω = 1` it *is* Gauss–Seidel; [`SOR_OMEGA`] (1.2) accelerates
//! the sparse, shallow marking chains measurably.  Over-relaxation is
//! not unconditionally convergent on this fixed-point form, so the sweep
//! watches its own per-sweep change and halves `ω` toward 1 whenever the
//! change stalls ([`SOR_ADAPT_PERIOD`]) — worst case it degrades to
//! plain Gauss–Seidel instead of oscillating.  It is the measured
//! primary of the top-end plan (SOR → GMRES → power): on the 6×7
//! quotient it converges in ~10× fewer sweeps than power takes
//! iterations, while GMRES pays O(restart · n) orthogonalization per
//! matvec and serves as the robust residual-verified fallback.

use crate::ctmc::{normalize, solver_checkpoint, unlimited, Ctmc, Precond};
use crate::govern::{Budget, Interrupt};

/// Arnoldi depth per GMRES cycle.  Deep enough that the million-state
/// quotient chains converge in a handful of restarts; shallow enough
/// that the basis (`(m+1)·n` doubles) stays far below the chain itself.
pub const GMRES_RESTART: usize = 40;

/// Matvec budget of one [`Ctmc::stationary_solve`] GMRES attempt —
/// roughly 250 restarts, far past anything a converging chain needs, and
/// still cheap next to power's 200 000-sweep budget.
pub const GMRES_MAX_MATVECS: usize = 10_000;

/// Over-relaxation factor the automatic policy uses for SOR.
pub const SOR_OMEGA: f64 = 1.2;

/// Sweeps between stall checks of the adaptive SOR damping: when the
/// max relative change has not contracted since the previous checkpoint,
/// the over-relaxation is halved toward 1 (plain Gauss–Seidel, which is
/// convergent on these chains).
pub const SOR_ADAPT_PERIOD: usize = 16;

/// Treat a norm at or below this as exact zero (breakdown guard).
const TINY: f64 = 1e-300;

impl Ctmc {
    /// Stationary distribution by restarted GMRES on `πQ = 0` (see the
    /// module docs of [`crate::krylov`]).
    ///
    /// `tol` is the **absolute max-norm stationarity residual** to reach
    /// (`‖πQ‖_∞ ≤ tol`); iteration stops after `max_matvecs` operator
    /// applications otherwise.  Unlike the relaxation solvers this never
    /// divides by exit rates, so zero-exit (absorbing) states are handled
    /// without NaNs.  The result is clamped to the simplex (tiny negative
    /// overshoot zeroed) and normalized to unit sum.
    pub fn stationary_gmres(&self, tol: f64, max_matvecs: usize) -> Vec<f64> {
        self.stationary_gmres_pc(Precond::None, tol, max_matvecs)
    }

    /// [`Ctmc::stationary_gmres`] with an explicit diagonal scaling —
    /// [`Precond::Jacobi`] is what the automatic policy's `gmres` entry
    /// runs (see the module docs on right-scaling).  `tol` remains the
    /// **unpreconditioned** max-norm residual to certify; the scaling
    /// only changes the operator iterated on, never the contract.
    pub fn stationary_gmres_pc(&self, precond: Precond, tol: f64, max_matvecs: usize) -> Vec<f64> {
        unlimited(|b| self.gmres_restarted(GMRES_RESTART, tol, max_matvecs, precond, b)).0
    }

    /// Restarted GMRES with explicit Arnoldi depth.  Returns the iterate
    /// and the number of operator applications (matvecs) spent; `budget`
    /// is checked once per restart cycle.  [`Ctmc::stationary_solve`]
    /// runs it at [`GMRES_RESTART`] deep for [`GMRES_MAX_MATVECS`].
    pub(crate) fn gmres_restarted(
        &self,
        restart: usize,
        tol: f64,
        max_matvecs: usize,
        precond: Precond,
        budget: &Budget,
    ) -> Result<(Vec<f64>, usize), Interrupt> {
        let n = self.n_states();
        assert!(n > 0);
        if n == 1 {
            return Ok((vec![1.0], 0));
        }
        let m = restart.clamp(2, n.max(2));
        let mut x = vec![1.0 / n as f64; n];
        // Jacobi right-scaling: invd[j] multiplies entry j after every
        // gather (empty = identity, so the plain path is untouched, not
        // merely multiplied by 1.0).  Absorbing states keep scale 1.
        let invd: Vec<f64> = match precond {
            Precond::None => Vec::new(),
            Precond::Jacobi => (0..n)
                .map(|j| {
                    let d = self.exit_rate(j);
                    if d > 0.0 {
                        1.0 / d
                    } else {
                        1.0
                    }
                })
                .collect(),
        };
        // Scaled-norm stopping threshold: ‖xQ‖_∞ ≤ max(D)·‖(xQ)D⁻¹‖₂,
        // so certifying `tol` through the scaled operator needs the
        // estimates under `tol / max(D)` (max(D) = 1 unpreconditioned).
        let max_d = invd.iter().fold(1.0f64, |acc, &s| acc.max(1.0 / s));
        let tol_pc = tol / max_d;
        // Workspaces, allocated once and reused across restarts.
        let mut v = vec![0.0f64; (m + 1) * n]; // Krylov basis, rows of n
        let mut h = vec![0.0f64; m * (m + 1)]; // Hessenberg, column-major
        let mut cs = vec![0.0f64; m];
        let mut sn = vec![0.0f64; m];
        let mut g = vec![0.0f64; m + 1];
        let mut y = vec![0.0f64; m];
        let mut matvecs = 0usize;

        while matvecs < max_matvecs {
            solver_checkpoint(budget, n, matvecs)?;
            // r0 = −(xQ)D⁻¹ into the first basis slot (D = I when plain).
            {
                let v0 = &mut v[..n];
                self.apply_q(&x, v0);
                matvecs += 1;
                if invd.is_empty() {
                    for val in v0.iter_mut() {
                        *val = -*val;
                    }
                } else {
                    for (val, &s) in v0.iter_mut().zip(&invd) {
                        *val = -*val * s;
                    }
                }
            }
            let beta = norm2(&v[..n]);
            // A 2-norm bounds the max-norm, so a tiny beta certifies the
            // residual contract directly (through `max(D)` when scaled).
            if beta <= tol_pc.max(TINY) {
                break;
            }
            let inv_beta = 1.0 / beta;
            for val in v[..n].iter_mut() {
                *val *= inv_beta;
            }
            g[0] = beta;
            for gi in g[1..].iter_mut() {
                *gi = 0.0;
            }

            // Arnoldi with modified Gram–Schmidt + Givens least squares.
            let mut k = 0usize; // columns completed this cycle
            for j in 0..m {
                let (basis, rest) = v.split_at_mut((j + 1) * n);
                let w = &mut rest[..n];
                self.apply_q(&basis[j * n..(j + 1) * n], w);
                matvecs += 1;
                if !invd.is_empty() {
                    for (wv, &s) in w.iter_mut().zip(&invd) {
                        *wv *= s;
                    }
                }
                let col = &mut h[j * (m + 1)..(j + 1) * (m + 1)];
                for (i, hij) in col.iter_mut().enumerate().take(j + 1) {
                    let vi = &basis[i * n..(i + 1) * n];
                    let d = dot(w, vi);
                    *hij = d;
                    for (wv, &bv) in w.iter_mut().zip(vi) {
                        *wv -= d * bv;
                    }
                }
                let hnext = norm2(w);
                col[j + 1] = hnext;
                // Previous rotations on the new column, then a new
                // rotation zeroing the subdiagonal entry.
                for i in 0..j {
                    let (a, b) = (col[i], col[i + 1]);
                    col[i] = cs[i] * a + sn[i] * b;
                    col[i + 1] = -sn[i] * a + cs[i] * b;
                }
                let (a, b) = (col[j], col[j + 1]);
                let r = (a * a + b * b).sqrt();
                if r <= TINY {
                    (cs[j], sn[j]) = (1.0, 0.0);
                } else {
                    (cs[j], sn[j]) = (a / r, b / r);
                }
                col[j] = cs[j] * a + sn[j] * b;
                col[j + 1] = 0.0;
                let gj = g[j];
                g[j] = cs[j] * gj;
                g[j + 1] = -sn[j] * gj;
                k = j + 1;

                let happy = hnext <= TINY; // invariant subspace reached
                if !happy {
                    let inv = 1.0 / hnext;
                    for wv in w.iter_mut() {
                        *wv *= inv;
                    }
                }
                // |g[j+1]| is the least-squares residual 2-norm (in the
                // scaled norm when preconditioned); leave the cycle
                // early once it is safely under target (the true
                // unpreconditioned residual is re-verified below).
                if happy || g[j + 1].abs() <= 0.25 * tol_pc || matvecs >= max_matvecs {
                    break;
                }
            }

            // Back-substitute R y = g and apply the correction x += V y.
            for i in (0..k).rev() {
                let mut acc = g[i];
                for (jj, &yjj) in y.iter().enumerate().take(k).skip(i + 1) {
                    acc -= h[jj * (m + 1) + i] * yjj;
                }
                let d = h[i * (m + 1) + i];
                y[i] = if d.abs() > TINY { acc / d } else { 0.0 };
            }
            for (i, &yi) in y.iter().enumerate().take(k) {
                if yi != 0.0 {
                    for (xv, &bv) in x.iter_mut().zip(&v[i * n..(i + 1) * n]) {
                        *xv += yi * bv;
                    }
                }
            }

            // Renormalized deflation: plain corrections live in the
            // zero-sum subspace, so this removes only floating-point
            // drift along the null direction; scaled corrections carry a
            // genuine (still null-direction) sum component, and this
            // same rescale is what absorbs it (see the module docs).
            // Either way, renormalizing every restart is what keeps the
            // iteration anchored on the simplex.
            let total: f64 = x.iter().sum();
            if total.is_finite() && total.abs() > TINY {
                let inv = 1.0 / total;
                for xv in x.iter_mut() {
                    *xv *= inv;
                }
            } else {
                // Catastrophic drift (defective chain): restart cold.
                for xv in x.iter_mut() {
                    *xv = 1.0 / n as f64;
                }
            }
            if self.stationarity_residual(&x) <= tol {
                break;
            }
        }

        // Near convergence any negative component is rounding-level
        // overshoot; clamp and renormalize so callers get a distribution.
        for xv in x.iter_mut() {
            if *xv < 0.0 {
                *xv = 0.0;
            }
        }
        let total: f64 = x.iter().sum();
        if total.is_finite() && total > TINY {
            let inv = 1.0 / total;
            for xv in x.iter_mut() {
                *xv *= inv;
            }
        }
        Ok((x, matvecs))
    }

    /// Stationary distribution by successive over-relaxation of the
    /// balance equations (Gauss–Seidel with blend factor `omega`; see
    /// the module docs of [`crate::krylov`]).
    ///
    /// Stops when the max relative change of a sweep drops below `tol` or
    /// after `max_sweeps`.  Over-relaxation (`omega > 1`) is not
    /// unconditionally convergent on these fixed-point sweeps: when the
    /// per-sweep change stalls instead of contracting, `omega` is halved
    /// toward 1 every [`SOR_ADAPT_PERIOD`] sweeps, so the iteration
    /// degrades gracefully to plain Gauss–Seidel rather than oscillating
    /// forever.  The adaptation is a pure function of the iteration
    /// history — bitwise deterministic.  Like Gauss–Seidel this divides
    /// by exit rates, so chains with absorbing states produce NaNs —
    /// callers that cannot tolerate a miss should verify
    /// [`Ctmc::stationarity_residual`] and fall back, as
    /// [`Ctmc::stationary_solve`] does.
    pub fn stationary_sor(&self, omega: f64, tol: f64, max_sweeps: usize) -> Vec<f64> {
        unlimited(|b| self.sor(omega, tol, max_sweeps, b)).0
    }

    /// The SOR sweep loop: the iterate and the sweeps spent; `budget` is
    /// checked at each [`SOR_ADAPT_PERIOD`] stall check.
    pub(crate) fn sor(
        &self,
        omega: f64,
        tol: f64,
        max_sweeps: usize,
        budget: &Budget,
    ) -> Result<(Vec<f64>, usize), Interrupt> {
        let n = self.n_states();
        assert!(n > 0);
        if n == 1 {
            return Ok((vec![1.0], 0));
        }
        let mut omega = omega;
        let mut pi = vec![1.0 / n as f64; n];
        let mut sweeps = 0usize;
        // Stall detection: the change recorded at the last checkpoint.
        let mut checkpoint_change = f64::INFINITY;
        for it in 0..max_sweeps {
            sweeps = it + 1;
            let mut max_rel = 0.0f64;
            for j in 0..n {
                let (src, rates) = self.in_row(j);
                let mut acc = 0.0;
                for (&i, &r) in src.iter().zip(rates) {
                    acc += pi[i as usize] * r;
                }
                let gs = acc / self.exit_rate(j);
                let old = pi[j];
                let new = old + omega * (gs - old);
                pi[j] = new;
                let scale = old.abs().max(new.abs());
                if scale > 0.0 {
                    max_rel = max_rel.max((new - old).abs() / scale);
                }
            }
            // Renormalize every sweep, matching Gauss–Seidel (drift
            // guard; also what makes `tol` a relative criterion).
            normalize(&mut pi);
            if max_rel < tol {
                break;
            }
            if sweeps.is_multiple_of(SOR_ADAPT_PERIOD) {
                solver_checkpoint(budget, n, sweeps)?;
                // Not contracting since the last checkpoint (oscillation
                // or divergence from over-relaxation): damp toward 1.
                // Slow-but-steady contraction is left alone — only a
                // near-flat or growing change trips the damping.
                if omega > 1.0 && (!max_rel.is_finite() || max_rel >= 0.98 * checkpoint_change) {
                    omega = 1.0 + (omega - 1.0) * 0.5;
                    if omega < 1.0 + 1e-3 {
                        omega = 1.0;
                    }
                }
                checkpoint_change = max_rel;
            }
        }
        Ok((pi, sweeps))
    }
}

/// Sequential dot product (deterministic reduction order).
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm with a sequential reduction.
fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_state(lam: f64, mu: f64) -> Ctmc {
        Ctmc::new(vec![vec![(1, lam)], vec![(0, mu)]])
    }

    #[test]
    fn gmres_two_state_closed_form() {
        let c = two_state(2.0, 3.0);
        let pi = c.stationary_gmres(1e-12, 1_000);
        assert!((pi[0] - 0.6).abs() < 1e-10, "{pi:?}");
        assert!((pi[1] - 0.4).abs() < 1e-10, "{pi:?}");
        assert!(c.stationarity_residual(&pi) < 1e-11);
    }

    #[test]
    fn sor_two_state_closed_form() {
        let c = two_state(2.0, 3.0);
        let pi = c.stationary_sor(SOR_OMEGA, 1e-14, 10_000);
        assert!((pi[0] - 0.6).abs() < 1e-10, "{pi:?}");
        assert!(c.stationarity_residual(&pi) < 1e-10);
    }

    #[test]
    fn gmres_uniform_ring() {
        let n = 17;
        let rows: Vec<Vec<(usize, f64)>> = (0..n).map(|i| vec![((i + 1) % n, 3.0)]).collect();
        let c = Ctmc::new(rows);
        let pi = c.stationary_gmres(1e-12, 5_000);
        for &p in &pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-10, "{pi:?}");
        }
    }

    #[test]
    fn gmres_single_state() {
        let c = Ctmc::new(vec![Vec::new()]);
        assert_eq!(c.stationary_gmres(1e-12, 10), vec![1.0]);
        assert_eq!(c.stationary_sor(SOR_OMEGA, 1e-12, 10), vec![1.0]);
    }

    #[test]
    fn jacobi_gmres_matches_plain_on_stiff_chain() {
        // Rates spread over 6 decades: exactly the column-scale spread
        // Jacobi equalizes.  Both variants must land on the same
        // stationary vector to far below the acceptance contract.
        let rows = vec![
            vec![(1, 1.0e3), (2, 5.0e-2)],
            vec![(2, 7.0e2), (0, 1.0e-3)],
            vec![(0, 2.0e-1), (3, 9.0e2)],
            vec![(0, 4.0e-3), (1, 6.0e1)],
        ];
        let c = Ctmc::new(rows);
        let plain = c.stationary_gmres_pc(Precond::None, 1e-12, 10_000);
        let pc = c.stationary_gmres_pc(Precond::Jacobi, 1e-12, 10_000);
        for (a, b) in plain.iter().zip(&pc) {
            assert!((a - b).abs() < 1e-10, "plain {plain:?} vs jacobi {pc:?}");
        }
        assert!(c.stationarity_residual(&pc) < 1e-11);
    }

    #[test]
    fn jacobi_gmres_handles_absorbing_chain() {
        // Absorbing state keeps scale 1: no division by a zero exit.
        let rows: Vec<Vec<(usize, f64)>> = (0..8)
            .map(|i| {
                if i + 1 < 8 {
                    vec![(i + 1, 2.0)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let c = Ctmc::new(rows);
        let pi = c.stationary_gmres_pc(Precond::Jacobi, 1e-12, 5_000);
        assert!(pi.iter().all(|v| v.is_finite()), "{pi:?}");
        assert!((pi[7] - 1.0).abs() < 1e-9, "mass {} at absorber", pi[7]);
    }

    #[test]
    fn gmres_handles_absorbing_chain() {
        // One absorbing state: relaxation NaNs out, GMRES must not.
        let n = 12;
        let rows: Vec<Vec<(usize, f64)>> = (0..n)
            .map(|i| {
                if i + 1 < n {
                    vec![(i + 1, 1.0)]
                } else {
                    Vec::new()
                }
            })
            .collect();
        let c = Ctmc::new(rows);
        let pi = c.stationary_gmres(1e-12, 5_000);
        assert!(pi.iter().all(|v| v.is_finite()), "{pi:?}");
        assert!(
            (pi[n - 1] - 1.0).abs() < 1e-9,
            "mass {} at absorber",
            pi[n - 1]
        );
    }
}
