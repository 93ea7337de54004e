//! The performance data hash table (paper Fig. 1).
//!
//! IPM's central data structure: for each event signature it stores the
//! number of calls, the total time, and the per-call minimum and maximum.
//! The real IPM uses a fixed-size open-addressing table so monitoring
//! never allocates unboundedly on the hot path; we keep that property with
//! a **capacity cap** (overflowing signatures are counted, not stored) and
//! two layers:
//!
//! * **Per-thread delta cells**: the record path ([`PerfTable::update_key`])
//!   deposits into a cell owned by the calling thread — an uncontended
//!   private mutex around a small [`SigKey`] → [`RunningStats`] map whose
//!   capacity survives flushes, so a steady-state recorded call performs
//!   no shared-lock acquisition and no heap allocation.
//! * **One merged map**: every read path takes the merged lock, drains the
//!   delta cells into the map under it (where the capacity cap is exact),
//!   and reads under that same lock. Flushing drains each cell, so no
//!   observation is counted twice; the table owns every cell, so no
//!   observation is lost when a thread exits; and because a concurrent
//!   flusher holds the merged lock from drain to merge, a read sees every
//!   update that completed before it.
//!
//! Lock order is merged → cell registry → cell. The record path takes only
//! its own cell lock, held just long enough for a flusher to drain it, so
//! a recording thread never waits on a merge.

use crate::profile::ProfileEntry;
use crate::sig::SigKey;
use ipm_interpose::NameTable;
use ipm_sim_core::RunningStats;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::{Arc, Weak};

// Model-checking flavour: under `--cfg loom` the merged and cell mutexes
// become loom primitives so every interleaving of the update/flush path is
// explored (see `tests/loom.rs`). The APIs are identical.
#[cfg(loom)]
use loom::sync::{Mutex, MutexGuard};
#[cfg(not(loom))]
use parking_lot::{Mutex, MutexGuard};

/// Default maximum number of distinct signatures (mirrors IPM's
/// `MAXSIZE_HASH`-style compile-time bound).
pub const DEFAULT_CAPACITY: usize = 32 * 1024;

/// One thread's private accumulator: deltas not yet merged into the
/// shared map. The mutex is uncontended in steady state (only the owning
/// thread and an occasional flusher touch it).
#[derive(Default)]
struct DeltaCell {
    deltas: Mutex<HashMap<SigKey, RunningStats>>,
}

thread_local! {
    /// Per-thread cache of this thread's cells, keyed by table identity.
    /// The hot slot covers the common one-table case; `others` holds weak
    /// references for threads that feed several tables.
    static THREAD_CELLS: RefCell<ThreadCells> = RefCell::new(ThreadCells {
        fast_id: u64::MAX,
        fast: None,
        others: HashMap::new(),
    });
}

struct ThreadCells {
    fast_id: u64,
    fast: Option<Arc<DeltaCell>>,
    others: HashMap<u64, Weak<DeltaCell>>,
}

/// Process-unique table identities for the thread-local cell cache.
/// Deliberately a std atomic even under loom: identity allocation is not
/// part of the modeled protocol.
fn next_table_id() -> u64 {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

/// The flushed, capacity-capped statistics.
#[derive(Default)]
struct Merged {
    map: HashMap<SigKey, RunningStats>,
    /// Observations dropped because the map was full.
    overflow: u64,
}

/// Capacity-bounded statistics table with per-thread delta cells.
pub struct PerfTable {
    /// Identity for the thread-local cell cache.
    id: u64,
    merged: Mutex<Merged>,
    /// Every delta cell ever handed to a thread. The table holds the
    /// strong reference, so a thread exiting never takes deltas with it.
    cells: Mutex<Vec<Arc<DeltaCell>>>,
    /// Maximum number of distinct signatures stored.
    capacity: usize,
}

impl PerfTable {
    /// Table with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Table storing at most `capacity` distinct signatures.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            id: next_table_id(),
            merged: Mutex::new(Merged::default()),
            cells: Mutex::new(Vec::new()),
            capacity,
        }
    }

    /// Run `f` against this thread's delta cell, creating and registering
    /// the cell on first use.
    #[inline]
    fn with_cell(&self, f: impl FnOnce(&DeltaCell)) {
        THREAD_CELLS.with(|tls| {
            let mut tls = tls.borrow_mut();
            if tls.fast_id == self.id {
                if let Some(cell) = tls.fast.clone() {
                    drop(tls);
                    return f(&cell);
                }
            }
            let cell = self.lookup_or_register_cell(&mut tls);
            drop(tls);
            f(&cell);
        });
    }

    #[cold]
    fn lookup_or_register_cell(&self, tls: &mut ThreadCells) -> Arc<DeltaCell> {
        let cell = match tls.others.get(&self.id).and_then(Weak::upgrade) {
            Some(cell) => cell,
            None => {
                let cell = Arc::new(DeltaCell::default());
                self.cells.lock().push(cell.clone());
                // drop cache entries for tables that no longer exist
                tls.others.retain(|_, w| w.strong_count() > 0);
                cell
            }
        };
        tls.others.insert(self.id, Arc::downgrade(&cell));
        if let Some(prev) = tls.fast.take() {
            tls.others.insert(tls.fast_id, Arc::downgrade(&prev));
        }
        tls.fast_id = self.id;
        tls.fast = Some(cell.clone());
        cell
    }

    /// Record one observation of `key` with the given duration — the
    /// `UPDATE_DATA` of the wrapper anatomy (Fig. 2). Lands in the calling
    /// thread's delta cell: no shared lock, and no allocation once the
    /// cell has seen the key (the cell map keeps its capacity across
    /// flushes).
    #[inline]
    pub fn update_key(&self, key: SigKey, duration: f64) {
        self.with_cell(|cell| {
            cell.deltas.lock().entry(key).or_default().record(duration);
        });
    }

    /// Take the merged lock, drain every thread's pending deltas into the
    /// map, and hand back the guard so the caller reads under the lock
    /// that covered its flush. Each cell lock is held only for its drain
    /// into a local buffer, and draining keeps the cell map's capacity,
    /// preserving the record path's no-allocation steady state.
    fn flush_cells(&self) -> MutexGuard<'_, Merged> {
        // speccheck: allow(lock-order) — merged → cell is the only nesting
        let mut merged = self.merged.lock();
        let mut drained = Vec::new();
        for cell in self.cells.lock().iter() {
            drained.extend(cell.deltas.lock().drain());
        }
        for (key, delta) in drained {
            if let Some(stats) = merged.map.get_mut(&key) {
                stats.merge(&delta);
            } else if merged.map.len() >= self.capacity {
                // a dropped delta counts all its observations as overflow
                merged.overflow += delta.count;
            } else {
                merged.map.insert(key, delta);
            }
        }
        merged
    }

    /// Look up the statistics for a signature.
    pub fn get(&self, key: &SigKey) -> Option<RunningStats> {
        self.flush_cells().map.get(key).copied()
    }

    /// Number of distinct signatures stored.
    pub fn len(&self) -> usize {
        self.flush_cells().map.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Observations dropped due to the capacity cap.
    pub fn overflow(&self) -> u64 {
        self.flush_cells().overflow
    }

    /// Every entry with its key unresolved, sorted by key, read under the
    /// lock that covered its flush. The live-telemetry path: a periodic
    /// sample turns no name back into a `String`.
    pub fn entries(&self) -> Vec<(SigKey, RunningStats)> {
        let mut out: Vec<(SigKey, RunningStats)> = self
            .flush_cells()
            .map
            .iter()
            .map(|(key, stats)| (*key, *stats))
            .collect();
        out.sort_unstable_by_key(|(key, _)| *key);
        out
    }

    /// All entries with names resolved, deterministically ordered by
    /// (name, bytes, region, detail). Used at report time; not a hot path.
    pub fn snapshot(&self) -> Vec<ProfileEntry> {
        let names = NameTable::global();
        let mut out: Vec<ProfileEntry> = self
            .entries()
            .into_iter()
            .map(|(key, stats)| ProfileEntry {
                name: names.name(key.id).to_string(),
                detail: key.detail.map(|d| names.name(d).to_string()),
                bytes: key.bytes,
                region: key.region,
                stats,
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.name, a.bytes, a.region, &a.detail).cmp(&(&b.name, b.bytes, b.region, &b.detail))
        });
        out
    }
}

impl Default for PerfTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn update_accumulates_per_signature() {
        let t = PerfTable::new();
        let key = SigKey::call("cudaMemcpy(D2H)", 4096);
        t.update_key(key, 1.0);
        t.update_key(key, 3.0);
        let stats = t.get(&key).unwrap();
        assert_eq!(stats.count, 2);
        assert_eq!(stats.total, 4.0);
        assert_eq!(stats.min, 1.0);
        assert_eq!(stats.max, 3.0);
    }

    #[test]
    fn distinct_byte_counts_get_distinct_entries() {
        let t = PerfTable::new();
        t.update_key(SigKey::call("cudaMemcpy(H2D)", 100), 0.1);
        t.update_key(SigKey::call("cudaMemcpy(H2D)", 200), 0.2);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn capacity_cap_counts_overflow() {
        let t = PerfTable::with_capacity(4);
        for i in 0..10u64 {
            t.update_key(SigKey::call("x", i), 0.1);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.overflow(), 6);
        // stored entries still update after saturation
        let stored = (0..10u64)
            .map(|i| SigKey::call("x", i))
            .find(|k| t.get(k).is_some())
            .unwrap();
        t.update_key(stored, 0.1);
        assert_eq!(t.get(&stored).unwrap().count, 2);
        assert_eq!(t.overflow(), 6);
    }

    #[test]
    fn reads_observe_deltas_still_resident_in_cells() {
        // no explicit flush API: every read path flushes implicitly
        let t = PerfTable::new();
        let key = SigKey::call("MPI_Send", 8);
        t.update_key(key, 1.0);
        assert!(!t.is_empty());
        assert_eq!(t.len(), 1);
        t.update_key(key, 1.0);
        assert_eq!(t.get(&key).unwrap().count, 2);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].stats.count, 2);
    }

    #[test]
    fn snapshot_order_is_deterministic() {
        let t = PerfTable::new();
        t.update_key(SigKey::call("zeta", 0), 0.1);
        t.update_key(SigKey::call("alpha", 4), 0.1);
        t.update_key(SigKey::call("alpha", 2), 0.1);
        t.update_key(SigKey::call("alpha", 2).in_region(1), 0.1);
        let names: Vec<(String, u64, u16)> = t
            .snapshot()
            .into_iter()
            .map(|e| (e.name, e.bytes, e.region))
            .collect();
        assert_eq!(
            names,
            vec![
                ("alpha".to_owned(), 2, 0),
                ("alpha".to_owned(), 2, 1),
                ("alpha".to_owned(), 4, 0),
                ("zeta".to_owned(), 0, 0),
            ]
        );
        // the unresolved view is ordered too, by key
        let keys: Vec<SigKey> = t.entries().into_iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn concurrent_updates_lose_nothing() {
        let t = Arc::new(PerfTable::new());
        let threads: Vec<_> = (0..8)
            .map(|k| {
                let t = t.clone();
                thread::spawn(move || {
                    let hot = SigKey::call("hot", 0);
                    let own = SigKey::call("own", k);
                    for _ in 0..10_000 {
                        t.update_key(hot, 1e-6);
                        t.update_key(own, 1e-6);
                    }
                })
            })
            .collect();
        for th in threads {
            th.join().unwrap();
        }
        assert_eq!(t.get(&SigKey::call("hot", 0)).unwrap().count, 80_000);
        for k in 0..8 {
            assert_eq!(t.get(&SigKey::call("own", k)).unwrap().count, 10_000);
        }
        assert_eq!(t.overflow(), 0);
    }

    #[test]
    fn exited_threads_leave_their_deltas_behind() {
        // the table owns the strong reference to each cell: a thread
        // dying with unflushed deltas must not lose them
        let t = Arc::new(PerfTable::new());
        let h = {
            let t = t.clone();
            thread::spawn(move || {
                t.update_key(SigKey::call("MPI_Barrier", 0), 0.5);
            })
        };
        h.join().unwrap();
        assert_eq!(t.get(&SigKey::call("MPI_Barrier", 0)).unwrap().count, 1);
    }

    #[test]
    fn one_thread_feeding_two_tables_keeps_them_separate() {
        let a = PerfTable::new();
        let b = PerfTable::new();
        let key = SigKey::call("cudaFree", 0);
        a.update_key(key, 1.0);
        b.update_key(key, 2.0);
        a.update_key(key, 1.0);
        assert_eq!(a.get(&key).unwrap().count, 2);
        assert_eq!(a.get(&key).unwrap().total, 2.0);
        assert_eq!(b.get(&key).unwrap().count, 1);
        assert_eq!(b.get(&key).unwrap().total, 2.0);
    }

    #[test]
    fn empty_table_reports_empty() {
        let t = PerfTable::new();
        assert!(t.is_empty());
        assert!(t.snapshot().is_empty());
    }
}
