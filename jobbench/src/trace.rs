//! In-memory spans recorded around calls into the program's layers, with
//! self time per layer and a Chrome trace-event export.
//!
//! A span's layer is its name up to the first `.`. Spans of the `job`
//! layer are the benchmark's own structure (job, epoch, round, step): their
//! self time is time no layer call covers.

use std::collections::BTreeMap;
use std::time::Instant;

/// The layer name of the benchmark's structural spans.
pub const STRUCTURE: &str = "job";

#[derive(Debug, Clone)]
pub struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans of one traced job, which all share the recorder's job id.
#[derive(Debug)]
pub struct Recorder {
    job: u64,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(job: u64) -> Self {
        Recorder {
            job,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    /// Runs `f` inside a span with no children.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in seconds of every span called `name`, in order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Self time per span: its duration minus its direct children's.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Seconds of self time per layer.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer()).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// Chrome trace-event JSON (complete events, microseconds), which
    /// Perfetto and chrome://tracing open offline.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"span\": {i}, \"parent\": {parent}, \"job\": {}}}}}{}\n",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                self.job,
                if i + 1 == self.spans.len() { "" } else { "," }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut rec = Recorder::new(7);
        rec.spans = vec![
            span("job", 0, 100, None),
            span("job.step", 10, 90, Some(0)),
            span("gnn.sample", 10, 40, Some(1)),
            span("tensor.backward", 50, 80, Some(1)),
        ];
        let by_layer = rec.self_time_by_layer();
        // job: 20 ns outside the step, 20 ns inside it but in no call.
        assert!((by_layer["job"] - 40e-9).abs() < 1e-15);
        assert!((by_layer["gnn"] - 30e-9).abs() < 1e-15);
        assert!((by_layer["tensor"] - 30e-9).abs() < 1e-15);
        assert_eq!(rec.durations("gnn.sample").len(), 1);
    }

    #[test]
    fn spans_nest_and_export() {
        let mut rec = Recorder::new(3);
        let root = rec.open("job");
        let x = rec.leaf("nn.adam", || 5);
        rec.close(root);
        assert_eq!(x, 5);
        assert_eq!(rec.spans()[1].parent, Some(0));
        let json = rec.chrome_json();
        assert!(json.contains("\"name\": \"nn.adam\", \"cat\": \"nn\""));
        assert!(json.contains("\"job\": 3"));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut rec = Recorder::new(0);
        let a = rec.open("job");
        let _b = rec.open("job.step");
        rec.close(a);
    }
}
