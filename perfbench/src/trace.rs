//! In-memory spans recorded around calls into each layer, per-layer self
//! time, and a Chrome trace-event writer (opens in Perfetto or
//! `chrome://tracing`).
//!
//! Spans are kept in memory while the benchmark runs and written once at
//! the end. Every span records its layer (the crate whose public function
//! it times), its parent and the job it belongs to.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The crate whose public function this span times (`imp-sim`, ...),
    /// or `bench` for the benchmark's own job envelope.
    pub layer: &'static str,
    /// Nanoseconds since the recorder started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    pub job: u64,
    /// True when the duration was read from a telemetry timer and the
    /// span was placed at the start of its parent: the length is
    /// measured, the position within the parent is not.
    pub placed: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans in memory.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a measured span and returns its index.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        (start_ns, end_ns): (u64, u64),
        parent: Option<usize>,
        job: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            layer,
            start_ns,
            end_ns,
            parent,
            job,
            placed: false,
        });
        self.spans.len() - 1
    }

    /// Records a span whose duration was read from a telemetry timer,
    /// placed at `start_ns` (clamped to end within the parent).
    pub fn push_placed(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        start_ns: u64,
        dur_ns: u64,
        parent: usize,
        job: u64,
    ) -> usize {
        let end_ns = (start_ns + dur_ns).min(self.spans[parent].end_ns);
        let i = self.push(
            name,
            layer,
            (start_ns.min(end_ns), end_ns),
            Some(parent),
            job,
        );
        self.spans[i].placed = true;
        i
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<usize>,
        job: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.now();
        let out = f();
        let end = self.now();
        (out, self.push(name, layer, (start, end), parent, job))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-layer self time in nanoseconds: each span's duration minus the
/// durations of its direct children, summed by layer.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        *out.entry(s.layer).or_insert(0) += s.dur_ns().saturating_sub(covered);
    }
    out
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond precision, as Chrome trace events expect.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1000, ns % 1000)
}

/// Serializes spans as a Chrome trace-event JSON object: one complete
/// (`"ph":"X"`) event per line, layer as the category, and the span's
/// index, parent and job in `args`, so self time can be recomputed from
/// the file alone. `metadata` is a JSON object written verbatim.
pub fn chrome_json(spans: &[Span], metadata: &str) -> String {
    let mut s = String::with_capacity(spans.len() * 160 + metadata.len() + 64);
    s.push_str("{\"displayTimeUnit\":\"ms\",\"metadata\":");
    s.push_str(metadata);
    s.push_str(",\"traceEvents\":[\n");
    for (i, span) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            concat!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},",
                "\"pid\":1,\"tid\":1,\"args\":{{\"id\":{},\"parent\":{},\"job\":{},\"placed\":{}}}}}"
            ),
            escape(&span.name),
            span.layer,
            micros(span.start_ns),
            micros(span.dur_ns()),
            i,
            parent,
            span.job,
            span.placed,
        );
    }
    s.push_str("\n]}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: format!("{layer}.span"),
            layer,
            start_ns: start,
            end_ns: end,
            parent,
            job: 0,
            placed: false,
        }
    }

    fn sample() -> Vec<Span> {
        vec![
            span("bench", 0, 1_000, None),
            span("imp", 10, 900, Some(0)),
            span("imp-compiler", 10, 300, Some(1)),
            span("imp-compiler", 20, 120, Some(2)),
            span("imp-sim", 400, 850, Some(1)),
            span("imp-verify", 1_100, 1_234, None),
        ]
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = self_times(&sample());
        assert_eq!(t["bench"], 1_000 - 890);
        assert_eq!(t["imp"], 890 - 290 - 450);
        // The phase child is the same layer: the layer's self time is the
        // whole compile span.
        assert_eq!(t["imp-compiler"], 290);
        assert_eq!(t["imp-sim"], 450);
        assert_eq!(t["imp-verify"], 134);
        // Self times partition the top-level spans exactly.
        assert_eq!(t.values().sum::<u64>(), 1_000 + 134);
    }

    #[test]
    fn placed_spans_stay_inside_their_parent() {
        let mut r = Recorder::new();
        let job = r.push("job", "bench", (100, 200), None, 7);
        let c = r.push_placed("compile", "imp-compiler", 150, 500, job, 7);
        assert_eq!((r.spans()[c].start_ns, r.spans()[c].end_ns), (150, 200));
        assert!(r.spans()[c].placed);
        assert_eq!(r.spans()[c].parent, Some(job));
    }

    #[test]
    fn timed_spans_are_ordered() {
        let mut r = Recorder::new();
        let (v, i) = r.time("work", "imp-dfg", None, 1, || 41 + 1);
        assert_eq!(v, 42);
        let s = &r.spans()[i];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!((s.layer, s.job), ("imp-dfg", 1));
    }

    /// Extracts the raw text of `"key":<value>` from one event line.
    fn field<'a>(line: &'a str, key: &str) -> &'a str {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat).expect("field present") + pat.len();
        let rest = &line[at..];
        let end = rest.find([',', '}']).expect("field terminated");
        rest[..end].trim_matches('"')
    }

    fn ns(micros: &str) -> u64 {
        let (whole, frac) = micros.split_once('.').expect("micros with fraction");
        whole.parse::<u64>().unwrap() * 1000 + frac.parse::<u64>().unwrap()
    }

    #[test]
    fn chrome_file_reproduces_self_times() {
        let spans = sample();
        let json = chrome_json(&spans, "{\"workload\":\"test\"}");
        assert!(
            json.starts_with("{\"displayTimeUnit\":\"ms\",\"metadata\":{\"workload\":\"test\"}")
        );
        let events: Vec<&str> = json
            .lines()
            .filter(|l| l.contains("\"ph\":\"X\""))
            .collect();
        assert_eq!(events.len(), spans.len());
        let parsed: Vec<Span> = events
            .iter()
            .map(|line| {
                let start = ns(field(line, "ts"));
                let layer = spans
                    .iter()
                    .map(|s| s.layer)
                    .find(|l| *l == field(line, "cat"))
                    .expect("known layer");
                let parent = match field(line, "parent") {
                    "null" => None,
                    p => Some(p.parse().unwrap()),
                };
                span(layer, start, start + ns(field(line, "dur")), parent)
            })
            .collect();
        assert_eq!(self_times(&parsed), self_times(&spans));
    }

    #[test]
    fn names_are_escaped() {
        let mut s = span("bench", 0, 1, None);
        s.name = "a\"b\\c\n".to_string();
        let json = chrome_json(&[s], "{}");
        assert!(json.contains("\"name\":\"a\\\"b\\\\c\\u000a\""));
    }

    #[test]
    fn micros_keep_nanoseconds() {
        assert_eq!(micros(0), "0.000");
        assert_eq!(micros(1_234_567), "1234.567");
        assert_eq!(micros(5), "0.005");
    }
}
