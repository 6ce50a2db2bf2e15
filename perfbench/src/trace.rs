//! Spans around the benchmark's calls into each layer, kept in memory and
//! written out with the ledger when a run ends.
//!
//! A disabled tracer records nothing and only calls through, so the
//! untraced repetitions that give the end-to-end numbers pay for one
//! branch per layer call.

use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `layer` is the repository module the call enters,
/// `name` the public function, `parent` the enclosing span (the
/// repetition's root span for every layer call).
#[derive(Debug, Clone)]
pub struct Span {
    pub layer: &'static str,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(t0: Instant) -> Self {
        Tracer {
            on: false,
            t0,
            rep: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turn recording on or off and tag later spans with repetition `rep`.
    pub fn arm(&mut self, on: bool, rep: u32) {
        self.on = on;
        self.rep = rep;
    }

    /// Run `f` inside a span named `layer`/`name` when recording is on.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start: self.t0.elapsed().as_secs_f64(),
            end: 0.0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end = self.t0.elapsed().as_secs_f64();
        out
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every `layer.name` in repetition `rep`: each span's
/// duration minus the part its direct children cover, summed by name.
pub fn self_times(spans: &[Span], rep: u32) -> BTreeMap<String, f64> {
    let mut child = vec![0.0; spans.len()];
    for s in spans.iter().filter(|s| s.rep == rep) {
        if let Some(p) = s.parent {
            child[p] += s.secs();
        }
    }
    let mut out = BTreeMap::new();
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.rep == rep) {
        *out.entry(format!("{}.{}", s.layer, s.name)).or_insert(0.0) += s.secs() - child[i];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                layer: "harness",
                name: "rep",
                start: 0.0,
                end: 10.0,
                parent: None,
                rep: 1,
            },
            Span {
                layer: "dta",
                name: "ia",
                start: 1.0,
                end: 4.0,
                parent: Some(0),
                rep: 1,
            },
            Span {
                layer: "dta",
                name: "ia",
                start: 5.0,
                end: 7.0,
                parent: Some(0),
                rep: 1,
            },
        ];
        let t = self_times(&spans, 1);
        assert_eq!(t["harness.rep"], 5.0);
        assert_eq!(t["dta.ia"], 5.0);
        assert!(self_times(&spans, 2).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(Instant::now());
        assert_eq!(tr.span("dta", "ia", |_| 7), 7);
        assert!(tr.spans().is_empty());
        tr.arm(true, 3);
        tr.span("harness", "rep", |tr| tr.span("dta", "ia", |_| ()));
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[1].rep, 3);
    }
}
