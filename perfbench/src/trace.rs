//! The benchmark's own span recorder.
//!
//! Every public call the benchmark makes into a workspace crate can be
//! wrapped in a span: name, layer (the crate), label (kernel or
//! experiment), start, end and parent. Spans stay in memory and are
//! written out once, at the end of a traced run. A layer's self time is
//! the summed duration of its spans minus the part their child spans
//! cover.
//!
//! With tracing off, [`Tracer::enter`] and [`Tracer::exit`] read no
//! clock and record nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The call, e.g. `Simulator::run`.
    pub name: String,
    /// The workspace crate the call goes into (`sim`, `isa`, ...).
    pub layer: String,
    /// What the call worked on: a kernel or experiment name.
    pub label: String,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for an open span; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle to Tracer::exit"]
pub struct SpanId(Option<usize>);

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` makes every call a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off from now.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, layer: &str, name: &str, label: &str) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            label: label.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes `id` and any span still open inside it (left open by a
    /// panic the caller caught).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, layer: &str, name: &str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(layer, name, label);
        let out = f();
        self.exit(id);
        out
    }

    /// Records `dur_ns` of time the program measured itself (a batched
    /// phase such as the oracle's per-commit checks) as a child of
    /// `parent`, placed at the parent's start.
    pub fn add_measured_child(&mut self, parent: SpanId, layer: &str, name: &str, dur_ns: u64) {
        let Some(p) = parent.0 else { return };
        if dur_ns == 0 {
            return;
        }
        let start_ns = self.spans[p].start_ns;
        let label = self.spans[p].label.clone();
        self.spans.push(Span {
            name: name.to_string(),
            layer: layer.to_string(),
            label,
            start_ns,
            end_ns: start_ns + dur_ns.min(self.spans[p].dur_ns()),
            parent: Some(p),
        });
    }

    /// Adopts spans recorded elsewhere (a child process), shifting them
    /// to start at `offset_ns` and nesting their roots in the innermost
    /// open span.
    pub fn adopt(&mut self, spans: Vec<Span>, offset_ns: u64) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        for s in spans {
            self.spans.push(Span {
                start_ns: s.start_ns + offset_ns,
                end_ns: s.end_ns + offset_ns,
                parent: s.parent.map(|p| p + base).or(parent),
                ..s
            });
        }
    }

    /// Nanoseconds since the epoch, for [`Tracer::adopt`] offsets.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total seconds and call count of spans named `name`.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0), |(t, n), s| (t + s.dur_ns() as f64 / 1e9, n + 1))
    }

    /// Seconds in spans named `name` whose label is `label`.
    pub fn total_for(&self, name: &str, label: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.label == label)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .sum()
    }

    /// Each span's self time: its duration minus its children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self seconds summed per layer.
    pub fn layer_self_s(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.layer.clone()).or_insert(0.0) += ns as f64 / 1e9;
        }
        out
    }

    /// Serializes the spans as a one-line JSON array: the format a child
    /// process hands its spans to the parent in.
    pub fn spans_json(&self) -> String {
        self.spans_json_sep(", ")
    }

    fn spans_json_sep(&self, sep: &str) -> String {
        let mut out = String::from("[");
        let self_ns = self.self_ns();
        for (i, (s, own)) in self.spans.iter().zip(self_ns).enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\": {i}, \"name\": {}, \"layer\": {}, \"label\": {}, \"start_ns\": {}, \
                 \"end_ns\": {}, \"self_ns\": {own}, \"parent\": {parent}}}",
                quote(&s.name),
                quote(&s.layer),
                quote(&s.label),
                s.start_ns,
                s.end_ns,
            );
        }
        out.push(']');
        out
    }

    /// Parses [`Tracer::spans_json`] output.
    pub fn parse_spans(v: &nwo_sim::obs::json::JsonValue) -> Option<Vec<Span>> {
        v.as_array()?
            .iter()
            .map(|s| {
                Some(Span {
                    name: s.get("name")?.as_str()?.to_string(),
                    layer: s.get("layer")?.as_str()?.to_string(),
                    label: s.get("label")?.as_str()?.to_string(),
                    start_ns: s.get("start_ns")?.as_u64()?,
                    end_ns: s.get("end_ns")?.as_u64()?,
                    parent: s.get("parent").and_then(|p| p.as_u64()).map(|p| p as usize),
                })
            })
            .collect()
    }

    /// The trace file: every span plus the per-layer self times.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"layer_self_s\": {{",
            quote(workload)
        );
        for (i, (layer, s)) in self.layer_self_s().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{}: {s:.6}", quote(layer));
        }
        out.push_str("},\n\"spans\": ");
        out.push_str(&self.spans_json_sep(",\n "));
        out.push_str("}\n");
        out
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::new();
    nwo_sim::obs::json::write_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "call".into(),
            layer: layer.into(),
            label: String::new(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.adopt(
            vec![
                span("bench", 0, 100, None),
                span("sim", 10, 40, Some(0)),
                span("sim", 50, 90, Some(0)),
                span("ckpt", 60, 70, Some(2)),
            ],
            0,
        );
        assert_eq!(t.self_ns(), vec![30, 30, 30, 10]);
        let layers = t.layer_self_s();
        assert!((layers["sim"] - 60e-9).abs() < 1e-15);
        assert!((layers["bench"] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn off_records_nothing_and_spans_round_trip() {
        let mut off = Tracer::new(false);
        let id = off.enter("sim", "Simulator::new", "k");
        off.exit(id);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.enter("bench", "experiment", "fig1");
        on.time("sim", "Simulator::run", "gcc", || ());
        on.add_measured_child(outer, "verify", "oracle-step", 0);
        on.exit(outer);
        let parsed = nwo_sim::obs::json::parse(&on.spans_json()).unwrap();
        assert_eq!(Tracer::parse_spans(&parsed).unwrap(), on.spans());
    }

    #[test]
    fn exit_closes_spans_a_panic_left_open() {
        let mut t = Tracer::new(true);
        let outer = t.enter("bench", "op", "k");
        let _inner = t.enter("sim", "Simulator::run", "k");
        t.exit(outer);
        assert!(t
            .spans()
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.end_ns > 0));
        let next = t.enter("sim", "Simulator::new", "k");
        t.exit(next);
        assert_eq!(t.spans()[2].parent, None);
    }
}
