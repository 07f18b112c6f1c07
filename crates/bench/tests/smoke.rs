//! Every figure binary must run in `--smoke` mode and produce a table.

use std::process::Command;

fn run(bin: &str) -> String {
    let out = Command::new(bin)
        .args(["--smoke", "--seed", "7"])
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

macro_rules! smoke {
    ($name:ident, $env:literal, $must_contain:literal) => {
        #[test]
        fn $name() {
            let text = run(env!($env));
            assert!(
                text.contains($must_contain),
                "missing {:?} in output:\n{text}",
                $must_contain
            );
            assert!(text.lines().count() >= 3, "no table rows:\n{text}");
        }
    };
}

smoke!(table1_smoke, "CARGO_BIN_EXE_table1", "no_critical");
smoke!(fig10_smoke, "CARGO_BIN_EXE_fig10", "Cst (theory)");
smoke!(fig11_smoke, "CARGO_BIN_EXE_fig11", "std_dev");
smoke!(fig12_smoke, "CARGO_BIN_EXE_fig12", "Exp (Theorem 4)");
smoke!(fig13_smoke, "CARGO_BIN_EXE_fig13", "Exp (Theorem 4)");
smoke!(fig14_smoke, "CARGO_BIN_EXE_fig14", "Thm3 CTMC");
smoke!(fig15_smoke, "CARGO_BIN_EXE_fig15", "closed_form_ratio");
smoke!(fig16_smoke, "CARGO_BIN_EXE_fig16", "Beta 2");
smoke!(fig17_smoke, "CARGO_BIN_EXE_fig17", "Uniform 5");
smoke!(timing_smoke, "CARGO_BIN_EXE_timing", "eg_sim");
smoke!(
    ablation_smoke,
    "CARGO_BIN_EXE_ablation",
    "Theorem 1 columnwise"
);
smoke!(theorem8_smoke, "CARGO_BIN_EXE_theorem8", "associated");
smoke!(capacity_smoke, "CARGO_BIN_EXE_capacity", "thm3_limit");

#[test]
fn csv_output_written() {
    let dir = std::env::temp_dir().join("repstream_smoke_csv");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("fig13.csv");
    let out = Command::new(env!("CARGO_BIN_EXE_fig13"))
        .args(["--smoke", "--out", path.to_str().unwrap()])
        .output()
        .expect("launch fig13");
    assert!(out.status.success());
    let csv = std::fs::read_to_string(&path).expect("csv written");
    assert!(csv.starts_with("u.v,"));
    assert!(csv.lines().count() >= 2);
}
