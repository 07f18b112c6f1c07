//! Release A/B smoke of the resource governor (CI): a deadline armed
//! over the 10M-class 7×8 Strict chain must degrade to the cached
//! N.B.U.E. bounds **within the deadline plus a one-second grace** —
//! the per-BFS-level / per-solver-checkpoint cooperative checks bound
//! how far past the deadline a build can coast.  And with no deadline
//! (or one that never fires) the governor must be bitwise invisible:
//! the report text is byte-identical to the ungoverned run.
//!
//! ```sh
//! cargo run --release --example deadline_ab
//! ```

use repstream::core::model::{Application, Mapping, Platform, System};
use repstream::core::report::{
    system_report, system_report_status, DegradeMode, ReportOptions, ReportStatus,
};
use repstream::markov::govern::{Budget, InterruptReason, RunConfig};
use std::time::{Duration, Instant};

/// A two-stage system whose Strict Theorem 2 chain has the given team
/// sizes (the 7×8 shape is the 14.06M-lumped-state scale record).
fn system_for(teams: (usize, usize)) -> System {
    let (u, v) = teams;
    let app = Application::uniform(2, 6.0, 12.0).expect("valid app");
    let platform = Platform::complete(vec![2.0; u + v], 1.0).expect("valid platform");
    let mapping =
        Mapping::new(vec![(0..u).collect(), (u..u + v).collect()]).expect("valid mapping");
    System::new(app, platform, mapping).expect("valid system")
}

fn main() {
    // Leg 1: the un-fired governor is bitwise invisible.  The 5×6 chain
    // completes well inside an hour, so the far deadline never fires and
    // the governed report must be byte-identical to the ungoverned one.
    let small = system_for((5, 6));
    let t = Instant::now();
    let plain = system_report(&small, ReportOptions::default());
    let t_plain = t.elapsed();
    let governed_opts = ReportOptions {
        run: RunConfig {
            budget: Budget::deadline_in(Duration::from_secs(3600)),
            ..Default::default()
        },
        degrade: DegradeMode::Bounds,
        ..Default::default()
    };
    let t = Instant::now();
    let (governed, status) = system_report_status(&small, governed_opts);
    let t_governed = t.elapsed();
    assert_eq!(status, ReportStatus::Ok, "a one-hour deadline never fires");
    assert_eq!(
        plain, governed,
        "an un-fired budget must not change one output byte"
    );
    println!(
        "5x6: governed report byte-identical to ungoverned \
         ({t_plain:.2?} vs {t_governed:.2?})"
    );

    // Leg 2: a 5 s deadline over the 7×8 prefix.  The full build-and-
    // solve runs for minutes; the governor must abort at a BFS level
    // boundary and fall back to the N.B.U.E. sandwich, all within the
    // deadline plus the one-second grace.
    const DEADLINE: Duration = Duration::from_secs(5);
    const GRACE: Duration = Duration::from_secs(1);
    let big = system_for((7, 8));
    let opts = ReportOptions {
        run: RunConfig {
            max_states: 1 << 25,
            budget: Budget::deadline_in(DEADLINE),
            ..Default::default()
        },
        degrade: DegradeMode::Bounds,
        ..Default::default()
    };
    let t = Instant::now();
    let (report, status) = system_report_status(&big, opts);
    let elapsed = t.elapsed();
    assert_eq!(
        status,
        ReportStatus::Degraded(InterruptReason::Deadline),
        "the 7x8 build must overrun a 5 s deadline and degrade"
    );
    assert!(
        report.contains("degraded=yes method=bounds-fallback reason=deadline"),
        "degradation provenance missing from the report:\n{report}"
    );
    assert!(
        report.contains("N.B.U.E. fallback: throughput in ["),
        "bounds fallback missing from the report:\n{report}"
    );
    assert!(
        elapsed <= DEADLINE + GRACE,
        "degraded report took {elapsed:.2?}, past the {DEADLINE:?} deadline + {GRACE:?} grace"
    );
    let provenance = report
        .lines()
        .filter(|l| l.contains("degraded=") || l.contains("progress:") || l.contains("fallback"))
        .collect::<Vec<_>>()
        .join("\n");
    println!("7x8 under a {DEADLINE:?} deadline: degraded in {elapsed:.2?}\n{provenance}");
    println!(
        "OK: deadline degradation inside the grace window, un-fired governor bitwise invisible"
    );
}
