//! The README's "never a panic" held end to end (`--features
//! fault-inject`): the `repstream` binary, armed through
//! `REPSTREAM_FAULT`, must turn a solver stall into report text and an
//! exit code from the taxonomy, never exit 101.  Example A's report has
//! one solver checkpoint (the Theorem 2 chain's Gauss–Seidel solve; its
//! pattern chains are small enough for GTH), so `solver-stall:0` lands
//! there and degrades to bounds, and the larger `N` pin that a plan which
//! never fires leaves the run alone.

#![cfg(feature = "fault-inject")]

use std::process::Command;

#[test]
fn solver_stall_never_panics_the_cli() {
    for n in 0..8 {
        let out = Command::new(env!("CARGO_BIN_EXE_repstream"))
            .arg("example-a")
            .env("REPSTREAM_FAULT", format!("solver-stall:{n}"))
            .output()
            .expect("run repstream example-a");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("solver-stall:{n}\nstdout:\n{stdout}\nstderr:\n{stderr}");
        assert_ne!(out.status.code(), Some(101), "{what}");
        assert!(out.status.code().is_some(), "killed by a signal: {what}");
        assert!(!stdout.contains("panicked"), "{what}");
        assert!(!stderr.contains("panicked"), "{what}");
        if n == 0 {
            let degraded = stdout
                .lines()
                .find(|l| l.contains("degraded=yes"))
                .unwrap_or_else(|| panic!("no degraded= line: {what}"));
            assert!(degraded.contains("reason=solver-stall"), "{what}");
        }
    }
}
