//! The record-path hotpath benchmark behind the interning refactor's
//! acceptance bar: recorded calls per second, multi-threaded, interned
//! `CallId` path vs. the legacy string-keyed path, plus the steady-state
//! heap-allocation count per recorded call.
//!
//! All three paths run the *identical* `wrap_call` anatomy and differ only
//! in the sink behind it:
//!
//! * **null** — [`NullSink`]: the wrapper skeleton alone, the reference
//!   the interned path is normalized by;
//! * **interned** — [`Ipm`] as [`MonitorSink`]: `SigKey` built from the
//!   interned [`CallHandle`], deposited into the calling thread's delta
//!   cell (no shared lock, no allocation in steady state);
//! * **legacy** — [`LegacyMirror`] behind the same self-overhead
//!   accounting the old monitor did: name resolved *per call*, a fresh
//!   `Arc<str>` allocated for the signature, one string-hashed map behind
//!   one global mutex.
//!
//! The report is written to `BENCH_wrapper.json` at the workspace root.
//! With `IPM_BENCH_SMOKE=1` the run additionally gates against the
//! *committed* report: if `interned_over_null` (interned throughput over
//! null-sink throughput in the same round, median over rounds, so the
//! host's speed cancels out) falls more than `IPM_BENCH_TOLERANCE`
//! (default 0.2, i.e. 20%) below the committed ratio, the process exits
//! non-zero — the CI bench-smoke step. Smoke runs never rewrite the
//! committed baseline.

use ipm_core::{Ipm, IpmConfig, LegacyMirror};
use ipm_interpose::{wrap_call, CallHandle, MonitorSink, NullSink};
use ipm_sim_core::SimClock;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

// ---------------------------------------------------------------------------
// Counting allocator: every heap allocation in the process bumps a counter,
// so "0 allocations per steady-state recorded call" is measured, not argued.
// ---------------------------------------------------------------------------

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

// ---------------------------------------------------------------------------
// The legacy sink: the pre-interning monitor's record path, including its
// self-overhead accounting, so the measured difference is purely the
// representation (per-call string/Arc + global mutex vs. SigKey + TLS cell).
// ---------------------------------------------------------------------------

struct LegacySink {
    mirror: Arc<LegacyMirror>,
    self_ns: AtomicU64,
}

impl LegacySink {
    fn new() -> Self {
        Self {
            mirror: LegacyMirror::new(),
            self_ns: AtomicU64::new(0),
        }
    }
}

impl MonitorSink for LegacySink {
    fn update(&self, call: CallHandle, bytes: u64, duration: f64) {
        let t = Instant::now();
        self.mirror.update(call, bytes, 0, duration);
        self.self_ns
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Workload: a rotating mix of monitored calls, some byte-attributed, the
// shape a facade feeds the sink during a solver loop.
// ---------------------------------------------------------------------------

fn call_mix() -> [CallHandle; 4] {
    [
        CallHandle::of("cudaLaunch"),
        CallHandle::of("cudaMemcpy(H2D)"),
        CallHandle::of("MPI_Send"),
        CallHandle::of("cudaStreamQuery"),
    ]
}

/// Hammer `sink` from `threads` threads, `per_thread` recorded calls each;
/// returns recorded calls per second.
fn throughput(threads: usize, per_thread: u64, clock: &SimClock, sink: &dyn MonitorSink) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mix = call_mix();
                for i in 0..per_thread {
                    let call = mix[(i & 3) as usize];
                    let bytes = if i & 1 == 0 { 0 } else { 4096 };
                    wrap_call(clock, sink, call, bytes, 0.0, || black_box(i));
                }
            });
        }
    });
    (threads as u64 * per_thread) as f64 / t0.elapsed().as_secs_f64()
}

/// Heap allocations per steady-state recorded call: warm the path (cell
/// registration, map growth, signature insertion), then count allocations
/// over a long single-threaded run of already-seen signatures.
fn steady_state_allocs_per_call(clock: &SimClock, sink: &dyn MonitorSink) -> f64 {
    const CALLS: u64 = 100_000;
    let mix = call_mix();
    for i in 0..256u64 {
        let call = mix[(i & 3) as usize];
        let bytes = if i & 1 == 0 { 0 } else { 4096 };
        wrap_call(clock, sink, call, bytes, 0.0, || black_box(i));
    }
    let before = ALLOCS.load(Ordering::SeqCst);
    for i in 0..CALLS {
        let call = mix[(i & 3) as usize];
        let bytes = if i & 1 == 0 { 0 } else { 4096 };
        wrap_call(clock, sink, call, bytes, 0.0, || black_box(i));
    }
    (ALLOCS.load(Ordering::SeqCst) - before) as f64 / CALLS as f64
}

/// A top-level number from the committed report.
fn read_committed(path: &str, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let key = format!("\"{field}\":");
    let at = text.find(&key)? + key.len();
    let rest = text[at..].trim_start();
    let end = rest.find([',', '\n', '}'])?;
    rest[..end].trim().parse().ok()
}

fn main() {
    const PER_THREAD: u64 = 500_000;
    const ROUNDS: usize = 5;
    // recorder threads model concurrent monitored streams (ranks/threads
    // on a node); contention on the legacy global mutex is part of what
    // the refactor removes, so the count is fixed, not core-derived
    let threads: usize = std::env::var("IPM_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);

    // fresh sinks per path; tracing off (the paper's aggregate-only mode —
    // the record path under test, not the event ring)
    let clock = SimClock::new();
    let ipm = Ipm::new(clock.clone(), IpmConfig::default().without_tracing());
    let legacy = LegacySink::new();

    let mut null = 0.0f64;
    let mut interned = 0.0f64;
    let mut string_keyed = 0.0f64;
    let mut over_null = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        string_keyed = string_keyed.max(throughput(threads, PER_THREAD, &clock, &legacy));
        let n = throughput(threads, PER_THREAD, &clock, &NullSink);
        let i = throughput(threads, PER_THREAD, &clock, &*ipm);
        null = null.max(n);
        interned = interned.max(i);
        over_null.push(i / n);
    }
    let speedup = interned / string_keyed;
    // paired within a round so the host's drift cancels, and the median
    // over rounds so one descheduled round cannot move the gate
    over_null.sort_by(f64::total_cmp);
    let interned_over_null = over_null[ROUNDS / 2];

    let allocs_interned = steady_state_allocs_per_call(&clock, &*ipm);
    let allocs_legacy = steady_state_allocs_per_call(&clock, &legacy);

    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"calls_per_thread\": {PER_THREAD},\n  \"null_calls_per_sec\": {null:.0},\n  \"legacy_calls_per_sec\": {string_keyed:.0},\n  \"interned_calls_per_sec\": {interned:.0},\n  \"interned_over_null\": {interned_over_null:.3},\n  \"speedup\": {speedup:.2},\n  \"steady_state_allocs_per_call\": {{\"legacy\": {allocs_legacy:.2}, \"interned\": {allocs_interned:.2}}}\n}}\n"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wrapper.json");
    let smoke = std::env::var("IPM_BENCH_SMOKE").is_ok_and(|v| v == "1");
    println!(
        "wrapper hotpath (best of {ROUNDS} rounds, {threads} threads){}\n{json}",
        if smoke {
            " [smoke]"
        } else {
            " -> BENCH_wrapper.json"
        }
    );

    if smoke {
        // gate against the committed report instead of rewriting it
        let tolerance: f64 = std::env::var("IPM_BENCH_TOLERANCE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.2);
        if let Some(committed) = read_committed(path, "interned_over_null") {
            let floor = committed * (1.0 - tolerance);
            assert!(
                interned_over_null >= floor,
                "interned record path regressed: {interned_over_null:.3} of null-sink \
                 throughput vs committed {committed:.3} (floor {floor:.3} at tolerance \
                 {tolerance})"
            );
        } else {
            eprintln!("no committed BENCH_wrapper.json to gate against; skipping");
        }
    } else {
        std::fs::write(path, &json).expect("write BENCH_wrapper.json");
    }

    // the refactor's acceptance bar
    assert!(
        speedup >= 2.0,
        "interned path must be >=2x the string-keyed path multi-threaded: \
         {interned:.0} vs {string_keyed:.0} calls/s ({speedup:.2}x)"
    );
    assert!(
        allocs_interned == 0.0,
        "steady-state recorded call must not allocate: {allocs_interned} allocs/call"
    );
}
