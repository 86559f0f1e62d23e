//! The per-layer ledger: turns trace records into span self times and into
//! the share of a measured interval that no layer span covers.
//!
//! A span's *self time* is its duration minus the time its child spans
//! cover. Spans nest per emitting context — `(trace, lane, scope)` — and
//! the store's stage spans nest inside each other (`instrumented` →
//! `regions` → `typings` → `ipc_profiles`), so without the subtraction a
//! stage would be charged for the stages it waited on. Nesting is rebuilt
//! from each span's own open/close wall times, because a driver cell index
//! (the study lane's scope) repeats across the plans of one study.

use std::collections::BTreeMap;

use phase_trace::{Kind, TraceRecord};

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The probe name.
    pub name: &'static str,
    /// Open time on the trace clock, nanoseconds.
    pub open_ns: u64,
    /// Close time on the trace clock, nanoseconds.
    pub close_ns: u64,
    /// Duration minus the time covered by its child spans.
    pub self_ns: u64,
}

impl Span {
    /// The span's duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.close_ns - self.open_ns
    }
}

/// Every closed span in `records`, with its self time.
pub fn spans(records: &[TraceRecord]) -> Vec<Span> {
    let mut groups: BTreeMap<(u64, u8, u32), Vec<Span>> = BTreeMap::new();
    for record in records {
        if record.kind != Kind::SpanClose {
            continue;
        }
        groups
            .entry((record.trace_id, record.lane.rank(), record.scope))
            .or_default()
            .push(Span {
                name: record.name,
                open_ns: record.t_ns.saturating_sub(record.value),
                close_ns: record.t_ns,
                self_ns: record.value,
            });
    }
    let mut out = Vec::new();
    for (_, mut group) in groups {
        // Parents sort before their children: earlier open, then longer.
        group.sort_by(|a, b| a.open_ns.cmp(&b.open_ns).then(b.close_ns.cmp(&a.close_ns)));
        let mut stack: Vec<usize> = Vec::new();
        for index in 0..group.len() {
            while let Some(&top) = stack.last() {
                if group[top].close_ns <= group[index].open_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&parent) = stack.last() {
                let child = group[index].duration_ns();
                group[parent].self_ns = group[parent].self_ns.saturating_sub(child);
            }
            stack.push(index);
        }
        out.extend(group);
    }
    out
}

/// Nanoseconds of `[from_ns, to_ns)` covered by at least one of the spans
/// `keep` selects.
pub fn covered_ns(spans: &[Span], from_ns: u64, to_ns: u64, keep: impl Fn(&Span) -> bool) -> u64 {
    let mut intervals: Vec<(u64, u64)> = spans
        .iter()
        .filter(|span| keep(span))
        .map(|span| (span.open_ns.max(from_ns), span.close_ns.min(to_ns)))
        .filter(|(open, close)| open < close)
        .collect();
    intervals.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for (open, close) in intervals {
        current = match current {
            Some((start, end)) if open <= end => Some((start, end.max(close))),
            Some((start, end)) => {
                total += end - start;
                Some((open, close))
            }
            None => Some((open, close)),
        };
    }
    total + current.map_or(0, |(start, end)| end - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phase_trace::{Domain, Lane};

    fn close(name: &'static str, scope: u32, open_ns: u64, close_ns: u64) -> TraceRecord {
        TraceRecord {
            trace_id: 1,
            lane: Lane::Study,
            scope,
            seq: 0,
            kind: Kind::SpanClose,
            domain: Domain::Wall,
            name,
            t_ns: close_ns,
            value: close_ns - open_ns,
            detail: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = [
            close("instrumented", 0, 0, 100),
            close("regions", 0, 10, 60),
            close("typings", 0, 20, 50),
            close("cells", 1, 0, 30),
        ];
        let spans = spans(&records);
        let self_of = |name: &str| spans.iter().find(|s| s.name == name).unwrap().self_ns;
        assert_eq!(self_of("instrumented"), 50);
        assert_eq!(self_of("regions"), 20);
        assert_eq!(self_of("typings"), 30);
        assert_eq!(self_of("cells"), 30, "other scopes are not children");
    }

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        let records = [
            close("a", 0, 0, 40),
            close("b", 1, 30, 60),
            close("c", 2, 80, 200),
        ];
        let spans = spans(&records);
        assert_eq!(covered_ns(&spans, 0, 100, |_| true), 80);
        assert_eq!(covered_ns(&spans, 0, 100, |s| s.name != "b"), 60);
    }
}
