//! # repstream-bench
//!
//! The experiment harness: one function per table/figure of the paper's
//! evaluation (§7) in [`figures`], run by the `figures` binary.
//! Performance is measured by the `benchmark` binary
//! (`src/bin/benchmark/`), which stands alone and does not use this
//! library.
//!
//! `figures NAME [--smoke] [--seed <u64>] [--out <path>]` prints the
//! figure's table aligned to stdout (and as CSV to `--out`) so the series
//! can be plotted directly:
//!
//! * `--smoke` — tiny parameters, used by the integration tests;
//! * `--seed <u64>` — master seed (default 2010, the paper's year);
//! * `--out <path>` — also write the CSV to a file.
//!
//! | `NAME`   | Reproduces |
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

pub mod figures;

/// A simple column-oriented results table that renders aligned text and
/// CSV.
#[derive(Debug, Clone)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new<S: AsRef<str>>(headers: &[S]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of already-formatted cells.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// The column headers.
    pub fn headers(&self) -> &[String] {
        &self.headers
    }

    /// The rows, in insertion order.
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
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

    /// Right-aligned text: the headers, a dash rule, then the rows.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.headers.len())
            .map(|c| {
                self.rows
                    .iter()
                    .map(|r| r[c].len())
                    .chain(std::iter::once(self.headers[c].len()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let line = |cells: Vec<String>| cells.join("  ") + "\n";
        let aligned = |cells: &[String]| {
            line(
                cells
                    .iter()
                    .zip(&widths)
                    .map(|(s, &w)| format!("{s:>w$}"))
                    .collect(),
            )
        };
        let mut text = aligned(&self.headers);
        text += &line(widths.iter().map(|&w| "-".repeat(w)).collect());
        for r in &self.rows {
            text += &aligned(r);
        }
        text
    }

    /// Comma-separated values: the header line, then the rows.
    pub fn csv(&self) -> String {
        std::iter::once(&self.headers)
            .chain(&self.rows)
            .map(|r| r.join(",") + "\n")
            .collect()
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
        assert_eq!(
            t.render(),
            " a        bb\n--  --------\n 1  0.500000\n22  1.2346e6\n"
        );
        assert_eq!(t.csv(), "a,bb\n1,0.500000\n22,1.2346e6\n");
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
