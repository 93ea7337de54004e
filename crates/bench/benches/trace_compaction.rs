//! Microbenchmark: what does the compaction/retention engine cost, and
//! what does it buy?
//!
//! Two criterion series time the push hot path with the compactor off and
//! on (a bursty same-signature stream, the shape the merge pass targets).
//! The custom report then runs a 200k-event synthetic workload through
//! both configurations and records peak and final resident records,
//! compacted vs. not (retention under a 4k high-water mark).
//!
//! The report is also written to `BENCH_trace.json` at the workspace root,
//! stamped with the host it ran on, so later runs can diff it.

use criterion::{criterion_group, Criterion};
use ipm_core::{CompactPolicy, TraceKind, TraceRecord, TraceRing};
use ipm_interpose::CallHandle;
use std::hint::black_box;

/// Quantum keeping all virtual timestamps dyadic (exact sums).
const Q: f64 = 1.0 / (1 << 20) as f64;

fn rec(name: &'static str, begin: f64, end: f64) -> TraceRecord {
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

/// The synthetic workload: bursts of identical short calls (64 per burst,
/// three rotating signatures) — compressible, like a polling loop or a
/// solver's per-step call pattern.
fn feed(ring: &TraceRing, events: u64) {
    let names = ["cudaLaunch", "cudaMemcpy(D2H)", "MPI_Send"];
    let mut t = 0.0f64;
    for i in 0..events {
        let name = names[((i / 64) % 3) as usize];
        let dur = ((i % 13) + 1) as f64 * Q;
        ring.push(rec(name, t, t + dur));
        t += dur + Q;
    }
}

fn bench_push_paths(c: &mut Criterion) {
    let plain = TraceRing::new(1 << 20);
    let mut t = 0.0f64;
    c.bench_function("trace_push_uncompacted", |b| {
        b.iter(|| {
            t += 2.0 * Q;
            black_box(plain.push(rec("cudaLaunch", t, t + Q)))
        })
    });

    let compacting = TraceRing::with_policy(1 << 20, CompactPolicy::with_high_water(4096));
    let mut t = 0.0f64;
    c.bench_function("trace_push_compacting", |b| {
        b.iter(|| {
            t += 2.0 * Q;
            black_box(compacting.push(rec("cudaLaunch", t, t + Q)))
        })
    });
}

fn compaction_report() {
    const EVENTS: u64 = 200_000;

    let fill = |policy: CompactPolicy| {
        let ring = TraceRing::with_policy(1 << 20, policy);
        feed(&ring, EVENTS);
        let peak = ring.high_water_mark();
        let resident = ring.len();
        let effective: u64 = ring.drain().iter().map(|r| r.event_count()).sum();
        assert_eq!(effective, EVENTS - ring.dropped(), "conservation");
        (peak, resident, ring.compacted_away())
    };
    let plain = fill(CompactPolicy::DISABLED);
    let compacted = fill(CompactPolicy::with_high_water(4096));

    let json = format!(
        "{{\n  \"host\": {},\n  \"events\": {EVENTS},\n  \"uncompacted\": {{\"resident_peak\": {}, \"resident_final\": {}}},\n  \"compacted\": {{\"resident_peak\": {}, \"resident_final\": {}, \"compacted_away\": {}}}\n}}\n",
        ipm_bench::host_json("BENCH_trace.json"),
        plain.0, plain.1, compacted.0, compacted.1, compacted.2,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(path, &json).expect("write BENCH_trace.json");
    println!("trace compaction report -> BENCH_trace.json\n{json}");
    assert!(
        compacted.0 < plain.0,
        "compaction must lower peak residency: {} vs {}",
        compacted.0,
        plain.0
    );
}

criterion_group!(benches, bench_push_paths);

fn main() {
    benches();
    compaction_report();
}
