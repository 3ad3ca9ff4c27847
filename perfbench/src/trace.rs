//! The benchmark's own spans, recorded around each call into a layer.
//!
//! Spans are kept in memory while the workload runs and written out as
//! JSONL when it ends, followed by the program's kernel spans (armed for
//! the traced rounds only) in `commsched_telemetry`'s export format. A
//! layer's self time is the sum of its spans' durations minus the part
//! covered by their child spans.

use commsched_telemetry as telemetry;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::time::Instant;

/// Directory, relative to the working directory, the trace is written to.
pub const OUT_DIR: &str = ".perfbench";

struct SpanRec {
    name: &'static str,
    parent: Option<usize>,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    armed: bool,
    t0: Instant,
    spans: Vec<SpanRec>,
    stack: Vec<usize>,
    op: u64,
}

/// Handle of an open span; `NONE` when the tracer is disarmed.
#[derive(Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    const NONE: SpanId = SpanId(usize::MAX);
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            armed: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    /// Arm or disarm recording (and the program's kernel spans) for the
    /// next round. A tracer built with `enabled == false` never arms.
    pub fn arm(&mut self, on: bool) {
        self.armed = self.enabled && on;
        telemetry::set_tracing(self.armed);
    }

    /// Start a new operation: spans opened from here on carry its id.
    pub fn begin_op(&mut self) -> SpanId {
        self.op += 1;
        self.enter("op")
    }

    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.armed {
            return SpanId::NONE;
        }
        let id = self.spans.len();
        self.spans.push(SpanRec {
            name,
            parent: self.stack.last().copied(),
            op: self.op,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(id);
        SpanId(id)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == usize::MAX {
            return;
        }
        self.spans[id.0].end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id.0), "spans close in LIFO order");
    }

    /// Run `f` inside a span named `name`; returns its value and wall
    /// time in milliseconds (measured whether or not the tracer is armed).
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let t0 = Instant::now();
        let out = f();
        let elapsed = crate::ms(t0.elapsed());
        self.exit(id);
        (out, elapsed)
    }

    /// Per-layer self times in milliseconds, summed over every span.
    fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*child);
            *out.entry(s.name).or_insert(0.0) += own as f64 / 1e6;
        }
        out
    }

    /// Write the spans and the kernel events to
    /// `.perfbench/trace-<workload>-<seed>.jsonl`; return summary lines.
    pub fn finish(&mut self, workload: &str, seed: u64) -> std::io::Result<Vec<String>> {
        telemetry::set_tracing(false);
        let (kernel, dropped) = telemetry::trace::drain();
        std::fs::create_dir_all(OUT_DIR)?;
        let path = format!("{OUT_DIR}/trace-{workload}-{seed}.jsonl");
        let mut w = std::io::BufWriter::new(std::fs::File::create(&path)?);
        let mut line = String::new();
        let self_times = self.self_times();
        for (i, s) in self.spans.iter().enumerate() {
            line.clear();
            let _ = write!(
                line,
                "{{\"source\":\"bench\",\"id\":{i},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_us\":{:.3},\"dur_us\":{:.3}}}",
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
            writeln!(w, "{line}")?;
        }
        for (layer, self_ms) in &self_times {
            writeln!(
                w,
                "{{\"source\":\"summary\",\"layer\":\"{layer}\",\"self_ms\":{self_ms:.3}}}"
            )?;
        }
        telemetry::trace::export_jsonl(&kernel, &mut w)?;
        w.flush()?;
        let mut summary = vec![format!(
            "trace: {} bench spans, {} kernel events ({dropped} dropped) written to {path}",
            self.spans.len(),
            kernel.len()
        )];
        for (layer, self_ms) in &self_times {
            summary.push(format!("trace: self time {layer:<10} {self_ms:>12.3} ms"));
        }
        Ok(summary)
    }
}
