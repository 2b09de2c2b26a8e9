//! The benchmark's own span tracer: wall-clock spans recorded around
//! each call into a layer, kept in memory and written once at the end
//! as Chrome-trace JSON.
//!
//! Spans nest through [`Tracer::span`]: a span opened inside another's
//! closure is its child. Every span carries a run id, shared by a
//! top-level span and all its descendants, so one setup or one replay
//! reads as one request in the trace viewer.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    runs: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            runs: 0,
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost
    /// open span, and returns `f`'s result with the span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, usize) {
        let parent = self.open.last().copied();
        let run = match parent {
            Some(p) => self.spans[p].run,
            None => {
                self.runs += 1;
                self.runs
            }
        };
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Wall seconds of span `id`.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].secs()
    }

    /// Spans that are direct children of `id`.
    pub fn children(&self, id: usize) -> impl Iterator<Item = &SpanRec> {
        self.spans.iter().filter(move |s| s.parent == Some(id))
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// time its children cover. Children run one after another on the
    /// span's thread, so they never overlap.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Per-name totals `(name, count, total_s, self_s)` in first-seen
    /// order.
    pub fn totals(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let own = self.self_ns();
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(own) {
            let row = match out.iter().position(|r| r.0 == s.name) {
                Some(i) => &mut out[i],
                None => {
                    out.push((s.name, 0, 0.0, 0.0));
                    out.last_mut().expect("just pushed")
                }
            };
            row.1 += 1;
            row.2 += s.secs();
            row.3 += own as f64 * 1e-9;
        }
        out
    }

    /// Names of every recorded span.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.spans.iter().map(|s| s.name)
    }

    /// The spans as a Chrome-trace JSON array of complete (`ph: X`)
    /// events in microseconds, one track, with run id, parent index and
    /// self time in each event's args.
    pub fn chrome_trace(&self, process: &str) -> String {
        let own = self.self_ns();
        let mut out = String::from("[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\
             \"args\":{{\"name\":\"{process}\"}}}}"
        );
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\
                 \"run\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.run,
                own as f64 / 1e3,
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_runs_group_descendants() {
        let mut t = Tracer::default();
        let (_, outer) = t.span("a.outer", |t| {
            t.span("b.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("b.inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let (_, other) = t.span("a.other", |_| ());
        let own = t.self_ns();
        let kids: u64 = t.children(outer).map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(
            own[outer],
            t.spans[outer].end_ns - t.spans[outer].start_ns - kids
        );
        assert!(kids >= 4_000_000);
        assert_eq!(t.spans[1].run, t.spans[outer].run);
        assert_ne!(t.spans[other].run, t.spans[outer].run);
        let totals = t.totals();
        assert_eq!(totals[1].0, "b.inner");
        assert_eq!(totals[1].1, 2);
        let json = t.chrome_trace("test");
        assert!(json.starts_with('[') && json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 4);
    }
}
