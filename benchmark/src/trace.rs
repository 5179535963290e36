//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span is `{name, start_ns, end_ns, parent, req}`: `parent` is the
//! span that was open when it began, `req` ties the spans of one
//! request or step together. Spans stay in memory and are written as
//! ndjson when the run ends. A disabled tracer records nothing and
//! costs one branch per span.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `farm.step` or `layer.sim.block`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request or step the span belongs to.
    pub req: Option<u64>,
}

/// Per-name totals over a trace: `(name, spans, total_ns, self_ns)`.
pub type SelfTimes = Vec<(&'static str, u64, u64, u64)>;

/// A span recorder owned by one thread.
#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `recording` is set, timing from `epoch`.
    pub fn new(recording: bool, epoch: Instant) -> Self {
        Tracer { recording, epoch, spans: Vec::new(), open: Vec::new() }
    }

    /// An empty tracer for another thread, sharing this one's epoch and
    /// recording state; fold it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Tracer::new(self.recording, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn recording(&self) -> bool {
        self.recording
    }

    /// Starts or stops recording (already open spans stay open).
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: Option<u64>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.recording {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, req });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Appends another thread's spans; its top-level spans become
    /// children of the span open here.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Each span's self time: its duration minus the part of it that
    /// its children's intervals cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name, in first-seen order.
    pub fn self_times(&self) -> SelfTimes {
        let mut out: SelfTimes = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            let row = match out.iter().position(|r| r.0 == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push((s.name, 0, 0, 0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.end_ns - s.start_ns;
            row.3 += own;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_ndjson(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (id, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{},\"self_ns\":{own}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("root", None, |t| {
            t.span("a", Some(1), |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            t.span("b", Some(2), |_| {});
        });
        let own = t.self_ns();
        let s = &t.spans;
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        let kids = (s[1].end_ns - s[1].start_ns) + (s[2].end_ns - s[2].start_ns);
        assert_eq!(own[0], (s[0].end_ns - s[0].start_ns) - kids);
        assert_eq!(t.self_times()[0].0, "root");
    }

    #[test]
    fn a_stopped_tracer_records_nothing_and_forks_rebase_on_absorb() {
        let mut t = Tracer::new(false, Instant::now());
        t.span("skipped", None, |_| {});
        assert!(t.spans.is_empty());
        t.set_recording(true);
        t.span("outer", None, |t| {
            let mut f = t.fork();
            f.span("inner", None, |_| {});
            t.absorb(f);
        });
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
