//! The legacy string-keyed record path, kept alive as a differential-test
//! oracle.
//!
//! [`LegacyMirror`] reconstructs the pre-interning record path — a
//! signature built with a fresh `Arc<str>` per recorded call, hashed on
//! the name string — so tests can run both paths against the same event
//! stream and demand byte-identical reports.

use crate::profile::ProfileEntry;
use ipm_interpose::{CallHandle, CallId, NameTable};
use ipm_sim_core::RunningStats;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// The pre-refactor record path, replayed next to the interned one.
///
/// Installed on an [`crate::Ipm`] via `install_mirror`, it receives every
/// event the primary [`crate::PerfTable`] receives and records it the way
/// the pre-[`crate::sig::SigKey`] monitor did: resolve the name *per call*,
/// allocate a fresh `Arc<str>` for the signature (the duplication the
/// refactor removed), and key a single string-hashed map with it. The
/// differential test swaps its entries into a cloned profile and demands
/// the rendered banner / region report / XML match the primary byte for
/// byte.
#[derive(Default)]
pub struct LegacyMirror {
    table: Mutex<HashMap<LegacySig, RunningStats>>,
}

/// The pre-interning signature: `(name, bytes, region, detail)`.
type LegacySig = (Arc<str>, u64, u16, Option<Arc<str>>);

impl LegacyMirror {
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Legacy form of [`ipm_interpose::MonitorSink::update`]: per-call
    /// name resolution and `Arc` allocation, string-keyed insert.
    pub fn update(&self, call: CallHandle, bytes: u64, region: u16, duration: f64) {
        let sig = (Arc::from(&*call.name()), bytes, region, None);
        self.table.lock().entry(sig).or_default().record(duration);
    }

    /// Legacy form of [`crate::Ipm::update_pseudo`].
    pub fn pseudo(&self, name: CallId, detail: Option<CallId>, region: u16, duration: f64) {
        let names = NameTable::global();
        let sig = (
            Arc::from(&*names.name(name)),
            0,
            region,
            detail.map(|d| Arc::from(&*names.name(d))),
        );
        self.table.lock().entry(sig).or_default().record(duration);
    }

    /// The mirror's table as profile entries in
    /// [`crate::PerfTable::snapshot`] order — drop-in replacement for a
    /// [`crate::RankProfile::entries`] built from the primary table.
    pub fn profile_entries(&self) -> Vec<ProfileEntry> {
        let mut out: Vec<ProfileEntry> = self
            .table
            .lock()
            .iter()
            .map(|((name, bytes, region, detail), stats)| ProfileEntry {
                name: name.to_string(),
                detail: detail.as_ref().map(|d| d.to_string()),
                bytes: *bytes,
                region: *region,
                stats: *stats,
            })
            .collect();
        out.sort_by(|a, b| {
            (&a.name, a.bytes, a.region, &a.detail).cmp(&(&b.name, b.bytes, b.region, &b.detail))
        });
        out
    }
}
