//! Outside-in spans: the benchmark times its own calls into each layer's
//! public functions.  Spans stay in memory and are written out when the
//! run ends; nothing here is reached while end-to-end metrics are timed.

use crate::json::Json;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<u32>,
    pub name: &'static str,
    /// The op (request, analysis, search) this span belongs to.
    pub op: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Work counted where it happened (states, nnz, iterations, bytes …).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span recorder.  A span's id is its index in `spans`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// Tracers of one run share `epoch`, so merged spans share a clock.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn begin_op(&mut self, op: u32) {
        assert!(self.open.is_empty(), "an op starts with no span open");
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent: self.open.last().copied(),
            name,
            op: self.op,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// Time one call as a leaf span.
    pub fn leaf<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name);
        let out = call();
        self.exit(id);
        out
    }

    pub fn count(&mut self, id: u32, key: &'static str, value: f64) {
        self.spans[id as usize].counts.push((key, value));
    }

    /// Every span's own time, by id: its duration minus what its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Append another thread's spans, keeping parent links intact.
    pub fn merge(&mut self, other: Tracer) {
        let shift = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + shift);
            s
        }));
    }

    /// Seconds spent per op in spans called `name`, indexed by op; an op
    /// without such a span reads 0.
    pub fn per_op(&self, name: &str, ops: usize) -> Vec<f64> {
        let mut out = vec![0.0; ops];
        for s in self.spans.iter().filter(|s| s.name == name) {
            out[s.op as usize] += s.seconds();
        }
        out
    }

    /// Seconds covered per op by the direct children of the span called
    /// `root` — the part of an op a replay accounts for.
    pub fn covered_per_op(&self, root: &str, ops: usize) -> Vec<f64> {
        // One pass over the spans, not one per root: a serve trace holds
        // tens of thousands of them.
        let mut out = vec![0.0; ops];
        for s in &self.spans {
            if s.parent
                .is_some_and(|p| self.spans[p as usize].name == root)
            {
                out[s.op as usize] += s.seconds();
            }
        }
        out
    }

    /// What spans called `name` counted as `key`, indexed by op; an op
    /// without such a count reads 0.
    pub fn counted(&self, name: &str, key: &str, ops: usize) -> Vec<f64> {
        let mut out = vec![0.0; ops];
        for s in self.spans.iter().filter(|s| s.name == name) {
            if let Some(&(_, value)) = s.counts.iter().find(|(k, _)| *k == key) {
                out[s.op as usize] = value;
            }
        }
        out
    }

    pub fn has(&self, name: &str) -> bool {
        self.spans.iter().any(|s| s.name == name)
    }

    /// One JSON object per span, as an array with one span per line.
    pub fn write_json(&self, workload: &str, out: &mut impl Write) -> io::Result<()> {
        let self_ns = self.self_ns();
        writeln!(out, "[")?;
        for (id, s) in self.spans.iter().enumerate() {
            let span = Json::obj([
                ("id", Json::Num(id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("workload", Json::str(workload)),
                ("op", Json::Num(s.op as f64)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("self_ns", Json::Num(self_ns[id] as f64)),
                (
                    "counts",
                    Json::obj(s.counts.iter().map(|&(k, v)| (k, Json::Num(v)))),
                ),
            ]);
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(out, "{span}{comma}")?;
        }
        writeln!(out, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set times: root 0..100 with children 10..40
    /// (holding a grandchild 15..25) and 50..90, then a second op.
    fn fixture() -> Tracer {
        let mut t = Tracer::new(Instant::now());
        t.begin_op(0);
        let root = t.enter("replay");
        let a = t.enter("layer.a");
        let g = t.enter("layer.g");
        t.exit(g);
        t.exit(a);
        let b = t.enter("layer.b");
        t.count(b, "states", 86016.0);
        t.exit(b);
        t.exit(root);
        t.begin_op(1);
        let again = t.enter("layer.a");
        t.exit(again);
        for (id, (start, end)) in [(0, 100), (10, 40), (15, 25), (50, 90), (200, 207)]
            .into_iter()
            .enumerate()
        {
            t.spans[id].start_ns = start;
            t.spans[id].end_ns = end;
        }
        t
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // The grandchild counts against its parent only, not the root.
        assert_eq!(fixture().self_ns(), vec![100 - 30 - 40, 30 - 10, 10, 40, 7]);
    }

    #[test]
    fn per_op_sums_and_coverage() {
        let t = fixture();
        let a = t.per_op("layer.a", 2);
        assert!(
            (a[0] - 30e-9).abs() < 1e-18 && (a[1] - 7e-9).abs() < 1e-18,
            "{a:?}"
        );
        assert_eq!(t.per_op("layer.b", 2)[1], 0.0);
        let covered = t.covered_per_op("replay", 2);
        assert!(
            (covered[0] - 70e-9).abs() < 1e-18 && covered[1] == 0.0,
            "{covered:?}"
        );
        assert_eq!(t.counted("layer.b", "states", 2), vec![86016.0, 0.0]);
        assert_eq!(t.counted("layer.a", "states", 2), vec![0.0, 0.0]);
        assert!(t.has("layer.g") && !t.has("layer.x"));
    }

    #[test]
    fn merge_keeps_parent_links() {
        let mut t = fixture();
        t.merge(fixture());
        assert_eq!(t.spans.len(), 10);
        assert_eq!(t.spans[6].parent, Some(5));
        assert_eq!(t.spans[7].parent, Some(6));
        assert_eq!(t.self_ns()[5], 30);
    }

    #[test]
    fn span_file_is_json_with_self_time() {
        let t = fixture();
        let mut buf = Vec::new();
        t.write_json("cold_quotient", &mut buf).unwrap();
        let parsed = Json::parse(std::str::from_utf8(&buf).unwrap()).unwrap();
        let spans = parsed.as_arr().unwrap();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[0].get("self_ns").and_then(Json::as_f64), Some(30.0));
        assert_eq!(spans[2].get("parent").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            spans[3].get("counts").and_then(|c| c.get("states")),
            Some(&Json::Num(86016.0))
        );
        assert_eq!(spans[4].get("op").and_then(Json::as_f64), Some(1.0));
        assert_eq!(
            spans[4].get("workload").and_then(Json::as_str),
            Some("cold_quotient")
        );
    }
}
