//! Every figure at `--smoke --seed 7`, pinned to the committed
//! `figures_smoke.txt` and held to the claim the paper makes of it; then
//! the `figures` binary itself: its stdout and CSV, and an unwritable
//! `--out` refused before any figure runs.

use repstream_bench::figures::FIGURES;
use repstream_bench::Table;
use std::process::Command;
use std::sync::OnceLock;

const EXPECTED_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/figures_smoke.txt");
const HEADER: &str = "\
# Every `figures NAME --smoke --seed 7`, in FIGURES order; the wall-clock
# `seconds` cells of `timing` and `ablation` read `*`.
# Regenerate: REPSTREAM_BLESS=1 cargo test -p repstream-bench --test figures
";

/// The smoke tables, computed once for every test of this file, with the
/// wall-clock column masked.
fn tables() -> &'static [(&'static str, Table)] {
    static TABLES: OnceLock<Vec<(&'static str, Table)>> = OnceLock::new();
    TABLES.get_or_init(|| {
        FIGURES
            .iter()
            .map(|&(name, figure)| {
                let table = figure(true, 7);
                let mut masked = Table::new(table.headers());
                for row in table.rows() {
                    let cells = row.iter().zip(table.headers());
                    masked.row(
                        cells
                            .map(|(cell, h)| if h == "seconds" { "*" } else { cell })
                            .map(str::to_string)
                            .collect(),
                    );
                }
                (name, masked)
            })
            .collect()
    })
}

fn table(name: &str) -> &'static Table {
    &tables().iter().find(|(n, _)| *n == name).expect("figure").1
}

fn section(name: &str, table: &Table) -> String {
    format!("== {name}\n{}", table.render())
}

/// The cells of column `header`, parsed as numbers.
fn column(table: &Table, header: &str) -> Vec<f64> {
    let c = table.headers().iter().position(|h| h == header);
    let c = c.unwrap_or_else(|| panic!("no column {header:?}"));
    let cell = |r: &Vec<String>| r[c].parse().unwrap_or_else(|_| panic!("{r:?}"));
    table.rows().iter().map(cell).collect()
}

#[test]
fn smoke_tables_match_the_committed_text() {
    let sections: Vec<String> = tables().iter().map(|(n, t)| section(n, t)).collect();
    let text = format!("{HEADER}{}", sections.concat());
    if std::env::var_os("REPSTREAM_BLESS").is_some() {
        std::fs::write(EXPECTED_PATH, &text).expect("write the expected text");
    }
    let expected = std::fs::read_to_string(EXPECTED_PATH).expect("read the expected text");
    for got in &sections {
        assert!(expected.contains(got), "not in the committed text:\n{got}");
    }
    assert_eq!(text, expected);
}

/// Fig. 12: the Overlap TPN has no backward dependence, so chaining more
/// stages moves neither analytic series.
#[test]
fn fig12_analytic_series_are_flat_in_the_stage_count() {
    for header in ["Exp (Theorem 4)", "Cst (theory)"] {
        let col = column(table("fig12"), header);
        assert!(col.iter().all(|&x| x == col[0]), "{header}: {col:?}");
    }
}

/// Fig. 13: a `u = v` pattern is `u` independent links, where
/// exponential times cost nothing (Theorem 4's `u′ = v′ = 1`).
#[test]
fn fig13_square_patterns_read_one_under_theorem_4() {
    let t = table("fig13");
    let thm = column(t, "Exp (Theorem 4)");
    let square: Vec<f64> = (t.rows().iter().zip(thm))
        .filter(|(r, _)| r[0].split_once('.').is_some_and(|(u, v)| u == v))
        .map(|(_, x)| x)
        .collect();
    assert_eq!(square, [1.0, 1.0]);
}

/// Fig. 15: the decomposition reproduces `max(u′,v′)/(u′+v′−1)`.
#[test]
fn fig15_theorem_equals_the_closed_form() {
    let t = table("fig15");
    assert_eq!(column(t, "Exp (Theorem)"), column(t, "closed_form_ratio"));
}

/// Fig. 16 (Theorem 7): every N.B.U.E. law lies between the exponential
/// and the constant curve.
#[test]
fn fig16_nbue_laws_lie_in_the_sandwich() {
    let t = table("fig16");
    let (exp, cst) = (column(t, "Exp"), column(t, "Cst"));
    for law in &t.headers()[3..] {
        for (i, x) in column(t, law).into_iter().enumerate() {
            assert!(exp[i] <= x && x <= cst[i], "{law} row {i}: {x}");
        }
    }
}

/// `capacity`: the bounded chain increases toward the Theorem 3 limit.
#[test]
fn capacity_bounded_chain_increases_to_the_limit() {
    let t = table("capacity");
    let (rho, limit) = (column(t, "bounded_ctmc"), column(t, "thm3_limit"));
    assert!(rho.windows(2).all(|w| w[0] < w[1]), "{rho:?}");
    assert!(rho.iter().zip(&limit).all(|(r, l)| r < l), "{rho:?}");
}

/// `theorem8`: deterministic ≥ associated ≥ independent on every row.
#[test]
fn theorem8_ordering_holds_on_every_row() {
    let t = table("theorem8");
    let c = t.headers().iter().position(|h| h == "ordering_ok").unwrap();
    assert!(t.rows().iter().all(|r| r[c] == "true"));
}

/// Table 1: under Overlap some resource is always critical.
#[test]
fn table1_overlap_always_has_a_critical_resource() {
    let t = table("table1");
    let overlap = t.rows().iter().filter(|r| r[1] == "overlap");
    assert!(overlap.map(|r| &r[2]).all(|n| n == "0"));
}

fn figures(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_figures"))
        .args(args)
        .output()
        .expect("launch figures")
}

#[test]
fn binary_prints_the_table_and_writes_its_csv() {
    let path = std::env::temp_dir().join(format!("figures-{}-fig13.csv", std::process::id()));
    let out = figures(&[
        "fig13",
        "--smoke",
        "--seed",
        "7",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let t = table("fig13");
    assert_eq!(String::from_utf8(out.stdout).unwrap(), t.render());
    assert_eq!(std::fs::read_to_string(&path).unwrap(), t.csv());
    let _ = std::fs::remove_file(path);
}

#[test]
fn unwritable_out_exits_2_before_any_figure_runs() {
    let dir = std::env::temp_dir().join(format!("figures-{}-missing", std::process::id()));
    let path = dir.join("x.csv");
    let out = figures(&["fig13", "--smoke", "--out", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).starts_with("error: cannot create"));
}
