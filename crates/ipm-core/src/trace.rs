//! Streaming event trace: bounded per-rank rings and Perfetto export.
//!
//! The paper's IPM is strictly post-mortem: the hash table aggregates, the
//! banner summarizes, event ordering is lost. This module adds the
//! event-stream layer modern GPU telemetry systems build on:
//!
//! * [`TraceRing`] — a bounded per-rank ring (one buffer under one lock)
//!   capturing one compact [`TraceRecord`] per wrapped call, KTT
//!   completion, and `@CUDA_HOST_IDLE` interval, with **exact drop
//!   accounting**: the invariant `captured + dropped == emitted` holds at
//!   every instant, under concurrent emission, whether or not the ring
//!   overflowed.
//! * [`TraceRank`] — one rank's exporter input: its records, the device
//!   ground truth (`gpu-sim` [`ProfRecord`]s), and the clock-alignment
//!   epoch. Rendering lives in the unified [`crate::export`] pipeline
//!   (`Export::…​.to(ChromeTrace | Otlp)`); the validator and JSON parser
//!   are re-exported below so established `trace::` paths keep working.
//!
//! Retention is layered on by [`crate::compact`]: a [`CompactPolicy`] makes
//! a ring past its high-water mark merge adjacent same-signature records
//! into summary records (so long runs keep timeline shape under the hard
//! cap), and the accounting invariant widens to
//! `captured + dropped + compacted_away == emitted`.

use crate::compact::{cmp_time, compact_records, CompactPolicy, TraceAgg};
use ipm_gpu_sim::ProfRecord;
use ipm_interpose::CallId;
// Model-checking flavour: under `--cfg loom` the ring lock is a loom mutex,
// so every interleaving of concurrent pushes and drains is explored (see
// `tests/loom.rs`). The APIs are identical.
#[cfg(loom)]
use loom::sync::Mutex;
#[cfg(not(loom))]
use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// What a trace record describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceKind {
    /// A host-side wrapped API call (the Fig. 2 anatomy).
    Call,
    /// A device-side kernel execution interval (KTT completion).
    KernelExec,
    /// An implicit host-blocking interval (`@CUDA_HOST_IDLE`).
    HostIdle,
}

impl TraceKind {
    /// Stable one-letter tag used by the XML encoding.
    pub fn tag(self) -> char {
        match self {
            TraceKind::Call => 'C',
            TraceKind::KernelExec => 'K',
            TraceKind::HostIdle => 'I',
        }
    }

    /// Inverse of [`TraceKind::tag`].
    pub fn from_tag(tag: char) -> Option<Self> {
        match tag {
            'C' => Some(TraceKind::Call),
            'K' => Some(TraceKind::KernelExec),
            'I' => Some(TraceKind::HostIdle),
            _ => None,
        }
    }
}

/// One captured event: a compact, fixed-shape, plain-data record. Names
/// are interned [`CallId`]s — the same identity the perf table keys on —
/// resolved to strings only by the writers
/// ([`ipm_interpose::NameTable::name`]).
#[derive(Clone, Debug, PartialEq)]
pub struct TraceRecord {
    pub kind: TraceKind,
    /// Registry name (`cudaMemcpy(D2H)`, `MPI_Allreduce`, …) or, for
    /// `KernelExec`, the `@CUDA_EXEC_STRMxx` pseudo-event name.
    pub name: CallId,
    /// Kernel symbol for `KernelExec` records.
    pub detail: Option<CallId>,
    /// Begin timestamp, virtual seconds.
    pub begin: f64,
    /// End timestamp, virtual seconds.
    pub end: f64,
    pub bytes: u64,
    /// Active user region at capture time.
    pub region: u16,
    /// Device stream for `KernelExec`; `None` means the host lane.
    pub stream: Option<u32>,
    /// Correlation id linking a `cudaLaunch` call to its kernel execution
    /// (0 when untracked).
    pub corr: u64,
    /// Present on summary records produced by compaction: the aggregate of
    /// every record merged in. `None` means a raw, single-event record.
    pub agg: Option<TraceAgg>,
}

impl TraceRecord {
    /// Whether this record is a compaction summary.
    pub fn is_summary(&self) -> bool {
        self.agg.is_some()
    }

    /// Original events this record represents: 1 for a raw record, the
    /// merged count for a summary. Σ `event_count` is the conserved
    /// quantity compaction never changes.
    pub fn event_count(&self) -> u64 {
        self.agg.map_or(1, |a| a.count)
    }

    /// Summed busy time this record represents, virtual seconds: its own
    /// duration for a raw record, the merged total for a summary (the
    /// summary's `end - begin` span also covers the gaps *between* merged
    /// events, so it is not the conserved quantity — this is).
    pub fn busy_total(&self) -> f64 {
        self.agg.map_or(self.end - self.begin, |a| a.total)
    }

    /// Longest individual duration this record represents (merge-ceiling
    /// checks compare against this, so a summary never smuggles a long
    /// slice past the policy).
    pub(crate) fn longest(&self) -> f64 {
        self.agg.map_or(self.end - self.begin, |a| a.max)
    }

    /// This record's aggregate, treating a raw record as a unit summary.
    pub(crate) fn agg_or_unit(&self) -> TraceAgg {
        self.agg.unwrap_or(TraceAgg {
            count: 1,
            total: self.end - self.begin,
            min: self.end - self.begin,
            max: self.end - self.begin,
            exemplar: (self.begin, self.end),
        })
    }
}

// ---------------------------------------------------------------------------
// The ring
// ---------------------------------------------------------------------------

/// Default ring capacity (records).
pub const DEFAULT_TRACE_CAPACITY: usize = 1 << 16;

/// A consistent sample of a ring's cumulative counters, taken under one
/// lock acquisition (see [`TraceRing::counters`]); always satisfies
/// `captured + dropped + compacted == emitted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraceCounters {
    /// Records offered (the sum of the other three).
    pub emitted: u64,
    /// Records stored and still individually accounted for.
    pub captured: u64,
    /// Records refused because the ring was full.
    pub dropped: u64,
    /// Records absorbed into summaries by compaction passes.
    pub compacted: u64,
}

/// The ring's record buffer plus bookkeeping that only ever changes under
/// the ring's lock (so it needs no atomics of its own).
#[derive(Default)]
struct Buffer {
    records: Vec<TraceRecord>,
    /// Most records ever resident.
    hwm: usize,
    /// Records stored and still accounted for (cumulative, survives
    /// drains; a compaction pass moves the merged-away count from here to
    /// `compacted_away`, so `captured` always tallies records that were
    /// either drained raw or are resident — raw or inside a summary's
    /// `event_count`).
    captured: u64,
    /// Records refused.
    dropped: u64,
    /// Records absorbed into summaries by compaction passes.
    compacted_away: u64,
    /// Set when an append broke the buffer's `(begin, end)` order; cleared
    /// by the sort that precedes a compaction pass or drain. A rank appends
    /// in virtual-time order except when an interval is reported after a
    /// later one (a KTT sweep's kernel completions, a host-idle interval),
    /// so the common case is a cheap tail comparison and no sort at all.
    unsorted: bool,
    /// Amortization gate: the next compaction pass runs only once the
    /// buffer has grown past this, so a buffer full of unmergeable records
    /// doesn't pay an O(len) scan on every push.
    compact_gate: usize,
}

/// A bounded per-rank trace ring: one buffer under one lock.
///
/// A full ring drops the *new* record (launches must never block on
/// telemetry). Drop accounting is exact by construction: every offer
/// increments exactly one of `captured` or `dropped` under the lock, a
/// compaction pass moves absorbed records from `captured` to
/// `compacted_away` under the same lock, and `emitted` is *defined* as the
/// sum of all three — so `captured + dropped + compacted_away == emitted`
/// holds at every instant, under any interleaving of pushers (with
/// compaction disabled, `compacted_away` stays 0).
pub struct TraceRing {
    buffer: Mutex<Buffer>,
    capacity: usize,
    policy: CompactPolicy,
}

impl TraceRing {
    /// Ring with `capacity` record slots (clamped to at least 1) and
    /// compaction disabled (a full ring drops).
    pub fn new(capacity: usize) -> Self {
        Self::with_policy(capacity, CompactPolicy::DISABLED)
    }

    /// Ring with an explicit retention policy: once the ring holds
    /// `policy.high_water` records, pushes first run a compaction pass
    /// merging adjacent same-signature records into summaries.
    pub fn with_policy(capacity: usize, policy: CompactPolicy) -> Self {
        Self {
            buffer: Mutex::new(Buffer::default()),
            capacity: capacity.max(1),
            policy,
        }
    }

    /// Total record capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retention policy this ring was built with.
    pub fn policy(&self) -> CompactPolicy {
        self.policy
    }

    /// Offer one record; returns `false` (and counts a drop) if the ring
    /// is full. The hot path is one uncontended lock and plain arithmetic
    /// under it. With a retention policy set, a ring at its high-water
    /// mark first compacts in place (amortized by `compact_gate`, so
    /// unmergeable workloads degrade to the plain drop path rather than
    /// rescanning every push).
    pub fn push(&self, rec: TraceRecord) -> bool {
        let mut b = self.buffer.lock();
        if self.policy.is_enabled()
            && b.records.len() >= self.policy.high_water
            && b.records.len() >= b.compact_gate
        {
            if std::mem::take(&mut b.unsorted) {
                b.records.sort_by(cmp_time);
            }
            let before = b.records.len();
            let removed = compact_records(&mut b.records, &self.policy) as u64;
            b.captured -= removed;
            b.compacted_away += removed;
            b.compact_gate = b.records.len() + before / 8;
        }
        if b.records.len() >= self.capacity {
            b.dropped += 1;
            return false;
        }
        if b.records
            .last()
            .is_some_and(|last| cmp_time(&rec, last).is_lt())
        {
            b.unsorted = true;
        }
        b.records.push(rec);
        b.captured += 1;
        b.hwm = b.hwm.max(b.records.len());
        true
    }

    /// Records offered so far (captured plus dropped plus compacted away).
    pub fn emitted(&self) -> u64 {
        self.counters().emitted
    }

    /// All cumulative counters, read under one lock acquisition, so the
    /// returned sample satisfies `captured + dropped + compacted ==
    /// emitted` even while writers and compaction passes are running.
    pub fn counters(&self) -> TraceCounters {
        let b = self.buffer.lock();
        TraceCounters {
            emitted: b.captured + b.dropped + b.compacted_away,
            captured: b.captured,
            dropped: b.dropped,
            compacted: b.compacted_away,
        }
    }

    /// Records stored and still individually accounted for (drained
    /// records still count; records absorbed into summaries move to
    /// [`TraceRing::compacted_away`]).
    pub fn captured(&self) -> u64 {
        self.buffer.lock().captured
    }

    /// Records refused because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.buffer.lock().dropped
    }

    /// Records absorbed into summary records by compaction passes. Their
    /// count and busy time live on in the summaries' [`TraceAgg`]s:
    /// Σ `event_count` over resident + drained records always equals
    /// `emitted - dropped`.
    pub fn compacted_away(&self) -> u64 {
        self.buffer.lock().compacted_away
    }

    /// Records currently resident.
    pub fn len(&self) -> usize {
        self.buffer.lock().records.len()
    }

    /// Whether no records are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// High-water mark of resident records: the most records the ring has
    /// ever held at once (exact, never exceeding capacity).
    pub fn high_water_mark(&self) -> u64 {
        self.buffer.lock().hwm as u64
    }

    /// High-water memory footprint in bytes (record slots only).
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_mark() * std::mem::size_of::<TraceRecord>() as u64
    }

    /// Remove and return every resident record in `(begin, end)` order.
    /// Frees ring space for further capture; counters are cumulative and
    /// unaffected. The sort is stable and runs outside the lock, only if a
    /// push broke the buffer's order.
    pub fn drain(&self) -> Vec<TraceRecord> {
        let (mut records, unsorted) = {
            let mut b = self.buffer.lock();
            (
                std::mem::take(&mut b.records),
                std::mem::take(&mut b.unsorted),
            )
        };
        if unsorted {
            records.sort_by(cmp_time);
        }
        records
    }

    /// Copy every resident record without removing it, in the same
    /// `(begin, end)` order [`TraceRing::drain`] returns.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let (mut records, unsorted) = {
            let b = self.buffer.lock();
            (b.records.clone(), b.unsorted)
        };
        if unsorted {
            records.sort_by(cmp_time);
        }
        records
    }
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// One rank's inputs to the exporter.
#[derive(Clone, Debug, Default)]
pub struct TraceRank {
    pub rank: usize,
    /// Host name, shown in the Perfetto process label.
    pub host: String,
    /// This rank's clock-alignment epoch, virtual seconds: the shared
    /// cluster instant (first `MPI_Init` return) expressed on the rank's
    /// own clock. The exporter subtracts it from every timestamp, so
    /// merged multi-rank lanes line up at `ts = 0` even when ranks booted
    /// at different absolute times. 0 means unaligned (single-rank export
    /// or pre-epoch logs).
    pub epoch: f64,
    /// Host-side records (drained or snapshotted from the rank's ring).
    pub records: Vec<TraceRecord>,
    /// Device-side ground truth from the simulator profiler. When present,
    /// device lanes are built from these (they include memcpys and carry
    /// true durations); the ring's `KernelExec` records are used as the
    /// fallback when the profiler was disabled.
    pub prof: Vec<ProfRecord>,
}

// ---------------------------------------------------------------------------
// Moved items
// ---------------------------------------------------------------------------

// The Chrome validator and the JSON parser live in the unified export
// pipeline (`crate::export::chrome`) and the shared JSON module
// (`crate::jsonw`); re-exported here so the established `ipm_core::trace::…`
// paths keep working.
pub use crate::export::chrome::{validate_chrome_trace, TraceStats};
pub use crate::jsonw::{parse_json, Json};

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_interpose::CallHandle;
    use std::sync::Arc;

    fn call(name: &str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name: CallHandle::of(name).id,
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
    fn record_and_key_sizes_stay_pinned() {
        // both carry interned ids, not fat string pointers: a ring slot is
        // plain data and a table key hashes plain integers
        assert_eq!(std::mem::size_of::<crate::sig::SigKey>(), 24);
        assert!(std::mem::size_of::<TraceRecord>() <= 112);
    }

    #[test]
    fn ring_accounting_is_exact_without_overflow() {
        let ring = TraceRing::new(16);
        for i in 0..10 {
            assert!(ring.push(call("x", i as f64, i as f64 + 0.5)));
        }
        assert_eq!(ring.emitted(), 10);
        assert_eq!(ring.captured(), 10);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(ring.captured() + ring.dropped(), ring.emitted());
        assert_eq!(ring.len(), 10);
        assert_eq!(ring.high_water_mark(), 10);
    }

    #[test]
    fn full_ring_drops_and_accounts() {
        let ring = TraceRing::new(4);
        let mut accepted = 0;
        for i in 0..20 {
            if ring.push(call("x", i as f64, i as f64)) {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 4);
        assert_eq!(ring.emitted(), 20);
        assert_eq!(ring.captured(), 4);
        assert_eq!(ring.dropped(), 16);
        assert_eq!(ring.captured() + ring.dropped(), ring.emitted());
    }

    #[test]
    fn drain_frees_space_and_sorts() {
        let ring = TraceRing::new(8);
        for &t in &[3.0, 1.0, 2.0] {
            ring.push(call("x", t, t + 0.1));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 3);
        assert!(drained.windows(2).all(|w| w[0].begin <= w[1].begin));
        assert!(ring.is_empty());
        // freed space accepts new records
        assert!(ring.push(call("y", 9.0, 9.5)));
        assert_eq!(ring.captured(), 4);
    }

    #[test]
    fn concurrent_emission_keeps_accounting_exact() {
        let ring = Arc::new(TraceRing::new(256));
        std::thread::scope(|scope| {
            for t in 0..8 {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..100 {
                        ring.push(call("k", (t * 100 + i) as f64, (t * 100 + i) as f64 + 0.5));
                    }
                });
            }
        });
        assert_eq!(ring.emitted(), 800);
        assert_eq!(ring.captured() + ring.dropped(), 800);
        assert_eq!(ring.len() as u64, ring.captured());
    }

    #[test]
    fn compacting_ring_stays_under_high_water_and_conserves() {
        let ring = TraceRing::with_policy(1 << 12, CompactPolicy::with_high_water(64));
        let n: u64 = 10_000;
        for i in 0..n {
            let t = i as f64 * 0.001;
            assert!(ring.push(call("cudaLaunch", t, t + 0.0005)), "never drops");
        }
        assert_eq!(ring.emitted(), n);
        assert_eq!(ring.dropped(), 0);
        assert_eq!(
            ring.captured() + ring.dropped() + ring.compacted_away(),
            ring.emitted()
        );
        // the gate lets the ring overshoot the high-water mark by at most
        // len/8 between passes; it must stay far below the raw count
        assert!(ring.len() <= 64 + 64 / 8 + 1, "resident: {}", ring.len());
        let resident = ring.drain();
        let events: u64 = resident.iter().map(TraceRecord::event_count).sum();
        assert_eq!(events, n, "per-signature event count conserved");
        let total: f64 = resident.iter().map(TraceRecord::busy_total).sum();
        assert!((total - n as f64 * 0.0005).abs() < 1e-6);
    }

    #[test]
    fn disabled_policy_is_the_old_drop_behavior() {
        let ring = TraceRing::with_policy(4, CompactPolicy::DISABLED);
        for i in 0..20 {
            ring.push(call("x", i as f64, i as f64));
        }
        assert_eq!(ring.captured(), 4);
        assert_eq!(ring.dropped(), 16);
        assert_eq!(ring.compacted_away(), 0);
    }

    #[test]
    fn drain_returns_every_record_in_time_order() {
        let ring = TraceRing::new(64);
        for i in 0..32 {
            ring.push(call("x", i as f64, i as f64 + 0.5));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 32);
        assert!(drained
            .windows(2)
            .all(|w| (w[0].begin, w[0].end) <= (w[1].begin, w[1].end)));
    }

    #[test]
    fn counters_sweep_matches_individual_accessors() {
        let ring = TraceRing::with_policy(8, CompactPolicy::with_high_water(2));
        for i in 0..50 {
            ring.push(call("x", i as f64, i as f64 + 0.5));
        }
        let c = ring.counters();
        assert_eq!(c.emitted, ring.emitted());
        assert_eq!(c.captured, ring.captured());
        assert_eq!(c.dropped, ring.dropped());
        assert_eq!(c.compacted, ring.compacted_away());
        assert_eq!(c.captured + c.dropped + c.compacted, c.emitted);
    }

    #[test]
    fn counters_ledger_closes_while_writers_race() {
        // the one-lock counter read must return a closing ledger at any
        // instant, concurrent pushes notwithstanding
        let ring = Arc::new(TraceRing::with_policy(
            64,
            CompactPolicy::with_high_water(8),
        ));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let ring = ring.clone();
                scope.spawn(move || {
                    for i in 0..500 {
                        let b = (t * 500 + i) as f64;
                        ring.push(call("k", b, b + 0.5));
                    }
                });
            }
            let ring = ring.clone();
            scope.spawn(move || {
                for _ in 0..200 {
                    let c = ring.counters();
                    assert_eq!(
                        c.captured + c.dropped + c.compacted,
                        c.emitted,
                        "mid-run counter sweep tore"
                    );
                }
            });
        });
    }
}
