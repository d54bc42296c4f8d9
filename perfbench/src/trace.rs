//! The traced run's span recorder.
//!
//! Spans (name, start, end, parent, request id) are recorded around calls
//! into each layer's public functions, kept in memory, and written out as
//! TSV when the run ends. A span's *self time* is its duration minus the
//! part of its interval its child spans cover. A disabled recorder runs
//! the same closures without recording; [`span_cost_ns`] times the
//! difference.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. `f` receives the recorder and
    /// the new span's id, to open child spans under it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(&mut Tracer, Option<usize>) -> R,
    ) -> R {
        if !self.enabled {
            return f(self, None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            request,
        });
        let start = self.now();
        let result = f(self, Some(id));
        let end = self.now();
        let span = &mut self.spans[id];
        span.start = start;
        span.end = end;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like `spans()`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_unstable();
                // Length of the union of the children's intervals, clipped
                // to the parent's.
                let mut union = 0;
                let mut reach = span.start;
                for (start, end) in covered {
                    let start = start.max(reach);
                    let end = end.min(span.end);
                    if end > start {
                        union += end - start;
                        reach = end;
                    }
                }
                span.duration() - union
            })
            .collect()
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|span| span.name == name)
            .map(|span| span.duration() as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every span called `name`.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(span, _)| span.name == name)
            .map(|(_, self_ns)| self_ns as f64 / 1e3)
            .collect()
    }

    /// Write every span as TSV: id, name, start_ns, end_ns, parent,
    /// request, self_ns.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns")?;
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = span.parent.map_or("-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{self_ns}",
                span.name, span.start, span.end, span.request
            )?;
        }
        out.flush()
    }
}

/// Nanoseconds one recorded span adds: `count` empty spans with the
/// recorder on minus the same closures with it off, best of five rounds
/// each (the difference is far below the noise of a replay of real work,
/// so it is measured on its own).
pub fn span_cost_ns(count: usize) -> f64 {
    let round = |enabled| {
        let mut tracer = Tracer::new(enabled);
        let started = Instant::now();
        for i in 0..count {
            tracer.span("cost", None, i as u64, |_, _| std::hint::black_box(i));
        }
        started.elapsed().as_nanos() as f64
    };
    let best = |enabled| (0..5).map(|_| round(enabled)).fold(f64::INFINITY, f64::min);
    let (on, off) = (best(true), best(false));
    (on - off) / count as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut tracer = Tracer::new(true);
        tracer.span("root", None, 7, |t, root| {
            spin(200);
            t.span("child", root, 7, |_, _| spin(300));
            t.span("child", root, 7, |t, child| {
                t.span("grandchild", child, 7, |_, _| spin(100));
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().all(|s| s.request == 7 && s.end >= s.start));
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let self_ns = tracer.self_times();
        let children: u64 = spans[1].duration() + spans[2].duration();
        assert_eq!(self_ns[0], spans[0].duration() - children);
        assert_eq!(self_ns[2], spans[2].duration() - spans[3].duration());
        assert_eq!(self_ns[3], spans[3].duration());
        assert!(self_ns[0] >= 200_000);
    }

    #[test]
    fn a_disabled_tracer_runs_the_work_and_records_nothing() {
        let mut tracer = Tracer::new(false);
        let value = tracer.span("root", None, 0, |t, id| {
            assert_eq!(id, None);
            t.span("child", id, 0, |_, _| 41) + 1
        });
        assert_eq!(value, 42);
        assert!(tracer.spans().is_empty());
    }
}
