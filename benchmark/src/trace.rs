//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions (spans inside the program are a
//! later issue). They stay in memory while the workload runs and are
//! written out as JSON lines at exit. A layer's self time is its span's
//! duration minus the part its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `<module>.<call>`, e.g. `core.batch.prepare_static`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Step / request id shared by every span of one step or request.
    pub req: u64,
    /// Row / slot counts observed at this boundary.
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to
/// [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// Stack-structured span recorder (one per thread that records).
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, req: u64) -> SpanId {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req,
            counts: Vec::new(),
        });
        self.stack.push(id);
        SpanId(id)
    }

    /// Closes `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let top = self.stack.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Attaches a count to the innermost open span.
    pub fn count(&mut self, name: &'static str, value: u64) {
        let top = *self.stack.last().expect("count outside any span");
        self.spans[top as usize].counts.push((name, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-name totals over a span list.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the time covered by direct children.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus its direct children's
/// durations (children nest strictly inside their parent and never
/// overlap each other — the tracer is a stack).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Totals by span name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(own) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Sum of one named count over all spans.
pub fn count_total(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .flat_map(|s| s.counts.iter())
        .filter(|(n, _)| *n == name)
        .map(|(_, v)| v)
        .sum()
}

/// Seconds of `name` spans (0.0 when none were recorded).
pub fn secs(totals: &BTreeMap<&'static str, NameTotal>, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |t| t.total_ns as f64 * 1e-9)
}

/// Waterfall coverage of a traced loop: Σ self time of every span
/// below a `roots`-named (step / request) span ÷ the loop's wall time.
/// What is missing is the loop's own glue between the timed calls.
/// Spans named `exclude`, and everything below them, are left out
/// (probes that repeat work; the caller nets them out of the wall too).
pub fn waterfall_coverage(spans: &[Span], roots: &[&str], exclude: &str, loop_wall_ns: u64) -> f64 {
    let own = self_times(spans);
    // Parents precede their children (spans are pushed on entry), so
    // one forward pass propagates both flags.
    let mut below_root = vec![false; spans.len()];
    let mut excluded = vec![false; spans.len()];
    let mut covered = 0u64;
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            let p = p as usize;
            below_root[i] = below_root[p] || roots.contains(&spans[p].name);
            excluded[i] = excluded[p];
        }
        excluded[i] |= s.name == exclude;
        if below_root[i] && !excluded[i] {
            covered += own[i];
        }
    }
    if loop_wall_ns == 0 {
        return 0.0;
    }
    covered as f64 / loop_wall_ns as f64
}

/// True when some span named `name` has an ancestor named `ancestor`.
pub fn occurs_under(spans: &[Span], name: &str, ancestor: &str) -> bool {
    spans.iter().filter(|s| s.name == name).any(|s| {
        let mut p = s.parent;
        while let Some(i) = p {
            if spans[i as usize].name == ancestor {
                return true;
            }
            p = spans[i as usize].parent;
        }
        false
    })
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        write!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}",
            s.name,
            s.start_ns,
            s.end_ns,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.req
        )?;
        if !s.counts.is_empty() {
            let counts: Vec<String> = s
                .counts
                .iter()
                .map(|(n, v)| format!("\"{n}\":{v}"))
                .collect();
            write!(w, ",\"counts\":{{{}}}", counts.join(","))?;
        }
        writeln!(w, "}}")?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // step [0,100] ⊃ prep [10,40] ⊃ read [20,30]; step ⊃ compute [40,90]
        let spans = vec![
            span("step", 0, 100, None),
            span("prep", 10, 40, Some(0)),
            span("read", 20, 30, Some(1)),
            span("compute", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50]);
        let t = totals_by_name(&spans);
        assert_eq!(t["prep"].total_ns, 30);
        assert_eq!(t["prep"].self_ns, 20);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert!((waterfall_coverage(&spans, &["step"], "probe", 100) - 0.8).abs() < 1e-12);
        // Excluding `prep` drops it and the `read` below it.
        assert!((waterfall_coverage(&spans, &["step"], "prep", 100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_accumulate_over_repeated_names() {
        let spans = vec![
            span("step", 0, 10, None),
            span("work", 1, 9, Some(0)),
            span("step", 10, 30, None),
            span("work", 12, 22, Some(2)),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(t["work"].calls, 2);
        assert_eq!(t["work"].total_ns, 18);
        assert_eq!(t["step"].self_ns, 12);
        assert!((secs(&t, "work") - 18e-9).abs() < 1e-18);
        assert_eq!(secs(&t, "absent"), 0.0);
    }

    #[test]
    fn tracer_links_parents_and_counts() {
        let mut t = Tracer::new();
        let a = t.enter("outer", 7);
        let b = t.enter("inner", 7);
        t.count("rows", 5);
        t.exit(b);
        t.count("rows", 2);
        t.exit(a);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].req, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(count_total(s, "rows"), 7);
        assert!(occurs_under(s, "inner", "outer"));
        assert!(!occurs_under(s, "outer", "inner"));
    }
}
