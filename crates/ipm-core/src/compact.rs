//! Trace compaction & retention: conservation-checked merging of adjacent
//! records.
//!
//! The paper's premise is *low-overhead, always-on* monitoring: IPM keeps
//! fixed-size tables precisely so long runs don't grow memory. The trace
//! ring inherited that hard cap but paid for it by dropping newest-first
//! once full — a long run's trace lost its shape exactly where it got
//! interesting. This module adds the retention layer:
//!
//! * [`CompactPolicy`] — when a ring passes its high-water mark, a pass
//!   merges adjacent short records of the same event signature into one
//!   summary record carrying [`TraceAgg`] `{count, total, min, max}` plus
//!   one kept exemplar interval, so the timeline keeps its envelope under
//!   the same hard memory cap.
//! * [`compact_records`] — the in-place merge pass itself. It **conserves
//!   per-signature event count and total virtual time exactly**: summing
//!   [`TraceRecord::event_count`] / [`TraceRecord::busy_total`] over the
//!   output equals the same sums over the input, per signature (proptested
//!   in `tests/properties.rs`, model-checked under loom).

use crate::trace::TraceRecord;
use std::cmp::Ordering;

/// Aggregate payload of a summary record: the statistics of every record
/// merged into it. `count`/`total` are conserved quantities; `min`/`max`
/// bound every merged record's individual duration; `exemplar` is the
/// `(begin, end)` interval of the longest single record absorbed, kept so
/// a compacted timeline still shows one representative real slice.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceAgg {
    /// Original records represented (each raw record counts 1).
    pub count: u64,
    /// Summed individual durations, virtual seconds.
    pub total: f64,
    /// Shortest individual duration merged.
    pub min: f64,
    /// Longest individual duration merged.
    pub max: f64,
    /// `(begin, end)` of the longest single record merged — the exemplar.
    pub exemplar: (f64, f64),
}

/// Retention policy of a trace ring.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompactPolicy {
    /// Resident records that trigger a compaction pass; 0 disables
    /// compaction entirely (the pre-retention drop-only mode).
    pub high_water: usize,
    /// Only records whose longest individual duration is at most this
    /// (virtual seconds) are merged — long slices always survive
    /// individually. `INFINITY` merges everything mergeable.
    pub max_merge_duration: f64,
}

impl CompactPolicy {
    /// Compaction off: a full ring drops the new record, as before.
    pub const DISABLED: Self = Self {
        high_water: 0,
        max_merge_duration: f64::INFINITY,
    };

    /// Compact a ring whenever it holds `high_water` records, merging
    /// any run of adjacent same-signature records.
    pub fn with_high_water(high_water: usize) -> Self {
        Self {
            high_water,
            max_merge_duration: f64::INFINITY,
        }
    }

    /// Restrict merging to records no longer than `secs`.
    pub fn merge_at_most(mut self, secs: f64) -> Self {
        self.max_merge_duration = secs;
        self
    }

    /// Whether this policy ever compacts.
    pub fn is_enabled(&self) -> bool {
        self.high_water > 0
    }
}

impl Default for CompactPolicy {
    fn default() -> Self {
        Self::DISABLED
    }
}

/// Drain/export ordering: `(begin, end)`.
pub(crate) fn cmp_time(a: &TraceRecord, b: &TraceRecord) -> Ordering {
    a.begin
        .partial_cmp(&b.begin)
        .expect("finite timestamps")
        .then(a.end.partial_cmp(&b.end).expect("finite timestamps"))
}

/// Two records share an event signature when every field the perf table
/// keys on matches: kind, name, detail, byte attribute, user region, and
/// device stream. Only same-signature records may merge, so a summary is
/// attributable exactly like the raw records it absorbed.
pub fn same_signature(a: &TraceRecord, b: &TraceRecord) -> bool {
    a.kind == b.kind
        && a.bytes == b.bytes
        && a.region == b.region
        && a.stream == b.stream
        && a.name == b.name
        && a.detail == b.detail
}

/// Is this record eligible for merging under `policy`? Records carrying a
/// correlation id never merge — flow arrows (`cudaLaunch` → kernel) must
/// keep binding to a real slice — and neither do records longer than the
/// policy's merge ceiling.
fn mergeable(rec: &TraceRecord, policy: &CompactPolicy) -> bool {
    rec.corr == 0 && rec.longest() <= policy.max_merge_duration
}

/// Fold `rec` into `tail` (same signature, `tail` immediately precedes
/// `rec` in time order). The summary spans `first_begin .. last_end`.
fn fold(tail: &mut TraceRecord, rec: &TraceRecord) {
    let a = tail.agg_or_unit();
    let b = rec.agg_or_unit();
    tail.agg = Some(TraceAgg {
        count: a.count + b.count,
        total: a.total + b.total,
        min: a.min.min(b.min),
        max: a.max.max(b.max),
        exemplar: if b.max > a.max {
            b.exemplar
        } else {
            a.exemplar
        },
    });
    tail.end = rec.end; // last_end; begin stays first_begin
    tail.corr = 0;
}

/// One compaction pass over a time-sorted buffer: merge every run of
/// adjacent, mergeable, same-signature records into a single summary
/// record. In-place, stable, O(n). Returns how many records were
/// compacted away (input length minus output length).
pub fn compact_records(buf: &mut Vec<TraceRecord>, policy: &CompactPolicy) -> usize {
    let before = buf.len();
    let mut write = 0usize;
    for read in 0..buf.len() {
        if write > 0 {
            let (head, rest) = buf.split_at_mut(read);
            let tail = &mut head[write - 1];
            let rec = &rest[0];
            if mergeable(tail, policy) && mergeable(rec, policy) && same_signature(tail, rec) {
                fold(tail, rec);
                continue;
            }
        }
        buf.swap(write, read);
        write += 1;
    }
    buf.truncate(write);
    before - write
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceKind;
    use ipm_interpose::CallHandle;

    fn id(name: &str) -> ipm_interpose::CallId {
        CallHandle::of(name).id
    }

    fn rec(name: &str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name: id(name),
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        }
    }

    #[test]
    fn adjacent_same_signature_records_merge_into_a_summary() {
        let mut buf = vec![
            rec("cudaLaunch", 0.0, 0.1),
            rec("cudaLaunch", 0.2, 0.5),
            rec("cudaLaunch", 0.6, 0.7),
            rec("MPI_Send", 1.0, 1.2),
        ];
        let removed = compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(removed, 2);
        assert_eq!(buf.len(), 2);
        let s = &buf[0];
        assert_eq!(s.name, id("cudaLaunch"));
        assert_eq!(s.begin, 0.0, "first_begin");
        assert_eq!(s.end, 0.7, "last_end");
        let a = s.agg.expect("summary");
        assert_eq!(a.count, 3);
        assert!((a.total - 0.5).abs() < 1e-12);
        assert!((a.min - 0.1).abs() < 1e-12);
        assert!((a.max - 0.3).abs() < 1e-12);
        assert_eq!(a.exemplar, (0.2, 0.5), "longest slice kept as exemplar");
        assert!(buf[1].agg.is_none(), "lone record stays raw");
    }

    #[test]
    fn summaries_merge_with_later_records_and_conserve() {
        let mut buf = vec![rec("x", 0.0, 1.0), rec("x", 1.0, 2.0), rec("x", 2.0, 2.25)];
        compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(buf.len(), 1);
        // a second pass over [summary, new records] keeps conserving
        buf.push(rec("x", 3.0, 3.5));
        compact_records(&mut buf, &CompactPolicy::with_high_water(1));
        assert_eq!(buf.len(), 1);
        let a = buf[0].agg.unwrap();
        assert_eq!(a.count, 4);
        assert!((a.total - 2.75).abs() < 1e-12);
        assert_eq!(a.min, 0.25);
        assert_eq!(a.max, 1.0);
        assert_eq!(buf[0].event_count(), 4);
        assert!((buf[0].busy_total() - 2.75).abs() < 1e-12);
    }

    #[test]
    fn correlated_and_long_records_never_merge() {
        let mut launch = rec("cudaLaunch", 0.0, 0.1);
        launch.corr = 7;
        let mut launch2 = rec("cudaLaunch", 0.2, 0.3);
        launch2.corr = 8;
        let mut buf = vec![launch, launch2];
        assert_eq!(
            compact_records(&mut buf, &CompactPolicy::with_high_water(1)),
            0
        );

        let policy = CompactPolicy::with_high_water(1).merge_at_most(0.05);
        let mut buf = vec![
            rec("k", 0.0, 0.01),
            rec("k", 0.1, 0.11),
            rec("k", 1.0, 2.0), // long: survives individually
            rec("k", 2.0, 2.01),
        ];
        assert_eq!(compact_records(&mut buf, &policy), 1);
        assert_eq!(buf.len(), 3);
        assert!(buf[1].agg.is_none() && (buf[1].end - buf[1].begin) == 1.0);
    }

    #[test]
    fn different_signatures_split_runs() {
        let mut a = rec("cudaMemcpy(H2D)", 0.0, 0.1);
        a.bytes = 64;
        let mut b = rec("cudaMemcpy(H2D)", 0.2, 0.3);
        b.bytes = 128; // different byte attribute: different signature
        let mut buf = vec![a, b];
        assert_eq!(
            compact_records(&mut buf, &CompactPolicy::with_high_water(1)),
            0
        );
    }
}
