//! In-memory span recorder.
//!
//! The benchmark wraps each of its own calls into a layer's public
//! function in a span: name, start, end, parent span and request id.
//! Spans stay in memory and are written out once the run ends. A span's
//! self time is its duration minus the part of that interval its child
//! spans cover (children of one parent may overlap, e.g. pipelined
//! requests, so the covered part is the union of their intervals).
//!
//! A disabled tracer records nothing: `span` just runs the closure, so
//! the untraced run pays one branch per call.

use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `access.matrix_congestion`.
    pub name: &'static str,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request (operation) id shared by the spans of one operation.
    pub request: u64,
}

/// Span recorder (see the module docs).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the origin of `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            request,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Record a span measured elsewhere (e.g. by a load-generator thread),
    /// nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant, request: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.stack.last().copied(),
                request,
            });
        }
    }

    /// Every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}\n",
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request
            ));
        }
        out
    }
}

/// Self time of every span, in ns (same order as `spans`).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
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
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 70, 80, Some(0)),
            span("d", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        assert_eq!(t, vec![100 - 40 - 10, 30 - 8, 20, 10, 8]);
        // Without overlapping siblings, self times partition the root.
        let flat = vec![span("op", 0, 100, None), span("a", 10, 40, Some(0))];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_spans_record_parents() {
        let mut t = Tracer::new(true);
        t.span("op", 7, |t| t.span("inner", 7, |_| ()));
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].request, 7);
        let mut off = Tracer::new(false);
        off.span("op", 0, |_| ());
        assert!(off.spans().is_empty());
    }
}
