//! # repstream-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation (§7).  Performance is measured by the `benchmark` binary
//! (`src/bin/benchmark/`), which stands alone and does not use this
//! library.
//!
//! Every binary prints a CSV-like table to stdout (and optionally to a
//! file) so the series can be plotted directly.  All binaries accept:
//!
//! * `--smoke` — tiny parameters, used by the integration tests;
//! * `--seed <u64>` — master seed (default 2010, the paper's year);
//! * `--out <path>` — also write the CSV to a file.
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `table1` | Table 1 — experiments without critical resources |
//! | `fig10`  | Throughput vs number of processed data sets |
//! | `fig11`  | Min/max/avg/std-dev across 500 runs |
//! | `fig12`  | Fidelity: throughput vs number of stages |
//! | `fig13`  | Single homogeneous communication vs Theorem 4 |
//! | `fig14`  | Single heterogeneous communication |
//! | `fig15`  | Constant-vs-exponential ratio `max(u,v)/(u+v−1)` |
//! | `fig16`  | N.B.U.E. laws inside the Theorem 7 sandwich |
//! | `fig17`  | Laws outside the N.B.U.E. class |
//! | `timing` | §7.7 — running time of every tool |
//! | `ablation` | engine ablations (columnwise vs global, GTH vs power, …) |
//! | `capacity` | finite-buffer truncation of the Overlap chain vs Theorem 3 |
//! | `theorem8` | the associated case of §6.2 (Theorem 8) |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::io::Write;

/// Common command-line arguments of the figure binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Tiny parameters for integration tests.
    pub smoke: bool,
    /// Master seed.
    pub seed: u64,
    /// Optional CSV output path.
    pub out: Option<String>,
}

impl Args {
    /// Parse from `std::env::args`.  Unknown flags abort with usage help.
    pub fn parse() -> Args {
        let mut args = Args {
            smoke: false,
            seed: 2010,
            out: None,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < argv.len() {
            match argv[i].as_str() {
                "--smoke" => args.smoke = true,
                "--seed" => {
                    i += 1;
                    args.seed = argv
                        .get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs a u64"));
                }
                "--out" => {
                    i += 1;
                    args.out = Some(
                        argv.get(i)
                            .cloned()
                            .unwrap_or_else(|| usage("--out needs a path")),
                    );
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown flag {other}")),
            }
            i += 1;
        }
        args
    }
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!("usage: <binary> [--smoke] [--seed <u64>] [--out <path>]");
    std::process::exit(if msg.is_empty() { 0 } else { 2 });
}

/// A simple column-oriented results table that prints aligned text and
/// writes CSV.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Format a float with 6 significant digits (compact, plot-friendly).
    pub fn num(v: f64) -> String {
        if v == 0.0 {
            "0".into()
        } else if v.abs() >= 1e6 || v.abs() < 1e-4 {
            format!("{v:.4e}")
        } else {
            format!("{v:.6}")
        }
    }

    /// Print aligned to stdout and, if requested, CSV to `out`.
    pub fn emit(&self, out: Option<&str>) {
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(c, h)| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(h.len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let stdout = std::io::stdout();
        let mut lock = stdout.lock();
        let fmt_row = |cells: &[String]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(c, s)| format!("{:>w$}", s, w = widths[c]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        writeln!(lock, "{}", fmt_row(&self.headers)).unwrap();
        writeln!(
            lock,
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        )
        .unwrap();
        for r in &self.rows {
            writeln!(lock, "{}", fmt_row(r)).unwrap();
        }
        if let Some(path) = out {
            let mut f =
                std::io::BufWriter::new(std::fs::File::create(path).expect("create output file"));
            writeln!(f, "{}", self.headers.join(",")).unwrap();
            for r in &self.rows {
                writeln!(f, "{}", r.join(",")).unwrap();
            }
        }
    }
}

/// Wall-clock helper returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = std::time::Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), Table::num(0.5)]);
        t.row(vec!["22".into(), Table::num(1234567.0)]);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(Table::num(0.0), "0");
        assert!(Table::num(1e-7).contains('e'));
    }

    #[test]
    fn timed_measures() {
        let (v, s) = timed(|| 41 + 1);
        assert_eq!(v, 42);
        assert!(s >= 0.0);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new(&["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }
}
