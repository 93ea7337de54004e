//! The unified call registry and the name interner.
//!
//! Collects every [`CallSpec`] from the specification into one table with
//! stable integer [`CallId`]s — the analogue of IPM's generated wrapper
//! table. Monitors intern call names once and use ids on the hot path.
//!
//! Two layers live here:
//!
//! * [`Registry`] — the immutable spec table (one row per specified entry
//!   point, `CallId` = row index).
//! * [`NameTable`] — the process-wide **interner**. It is seeded with the
//!   registry rows (so a spec name's interned id *is* its registry id) and
//!   grows append-only with dynamic names the monitors invent at run time:
//!   direction-split copies (`cudaMemcpy(H2D)`), pseudo-events
//!   (`@CUDA_EXEC_STRM00`, `@CUDA_HOST_IDLE`), kernel symbols. The record
//!   path carries only the interned [`CallId`]; the string comes back out
//!   at report/export time via [`NameTable::name`].
//!
//! Wrap sites resolve their name exactly once through a [`CallSite`]
//! static (see the [`site!`](crate::site) macro): the first execution
//! interns the name and caches the packed [`CallHandle`] in an atomic, so
//! the steady-state cost of a wrapped call includes no string hashing and
//! no allocation.

use crate::spec::{
    cublas_calls, ApiFamily, BlockingClass, CallSpec, CUDA_DRIVER_CALLS, CUDA_RUNTIME_CALLS,
    CUFFT_CALLS, IO_CALLS, MPI_CALLS,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Index of a call in the global registry / name table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallId(pub u32);

/// The global wrapper registry.
pub struct Registry {
    calls: Vec<CallSpec>,
    by_name: HashMap<&'static str, CallId>,
}

impl Registry {
    fn build() -> Self {
        let mut calls: Vec<CallSpec> = Vec::new();
        calls.extend_from_slice(CUDA_RUNTIME_CALLS);
        calls.extend_from_slice(CUDA_DRIVER_CALLS);
        calls.extend(cublas_calls());
        calls.extend_from_slice(CUFFT_CALLS);
        calls.extend_from_slice(MPI_CALLS);
        calls.extend_from_slice(IO_CALLS);
        let by_name = calls
            .iter()
            .enumerate()
            .map(|(i, c)| (c.name, CallId(i as u32)))
            .collect();
        Self { calls, by_name }
    }

    /// The process-wide registry.
    pub fn global() -> &'static Registry {
        static REG: OnceLock<Registry> = OnceLock::new();
        REG.get_or_init(Registry::build)
    }

    /// Total number of interposable calls.
    pub fn len(&self) -> usize {
        self.calls.len()
    }

    /// True if the registry is empty (it never is; for API completeness).
    pub fn is_empty(&self) -> bool {
        self.calls.is_empty()
    }

    /// Look up a call by name.
    pub fn id(&self, name: &str) -> Option<CallId> {
        self.by_name.get(name).copied()
    }

    /// The spec for an id.
    pub fn spec(&self, id: CallId) -> &CallSpec {
        &self.calls[id.0 as usize]
    }

    /// All calls of one family.
    pub fn family(&self, family: ApiFamily) -> impl Iterator<Item = &CallSpec> {
        self.calls.iter().filter(move |c| c.family == family)
    }

    /// The **implicit blocking set**: the calls IPM instruments with a
    /// preceding `cudaStreamSynchronize` for host-idle attribution.
    pub fn implicit_blocking_set(&self) -> impl Iterator<Item = &CallSpec> {
        self.calls
            .iter()
            .filter(|c| c.blocking == BlockingClass::ImplicitSync)
    }
}

/// What a wrap site needs to know about its call, resolved once and carried
/// by value on the hot path: the interned id plus the spec attributes that
/// steer the wrapper anatomy (host-idle probing, byte attribution).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CallHandle {
    /// Interned name id (spec row index for specified calls).
    pub id: CallId,
    /// In the implicit blocking set (§III-C): the wrapper core probes host
    /// idle before timing the call.
    pub implicit_sync: bool,
    /// The spec says this call carries a byte count.
    pub has_bytes: bool,
}

struct NameRow {
    name: Arc<str>,
    implicit_sync: bool,
    has_bytes: bool,
}

struct NameTableInner {
    rows: Vec<NameRow>,
    by_name: HashMap<Arc<str>, CallId>,
}

/// The process-wide name interner (see the module docs).
pub struct NameTable {
    inner: RwLock<NameTableInner>,
}

impl NameTable {
    fn build() -> Self {
        let reg = Registry::global();
        let mut rows = Vec::with_capacity(reg.len());
        let mut by_name = HashMap::with_capacity(reg.len());
        for i in 0..reg.len() {
            let spec = reg.spec(CallId(i as u32));
            let name: Arc<str> = Arc::from(spec.name);
            rows.push(NameRow {
                name: name.clone(),
                implicit_sync: spec.blocking == BlockingClass::ImplicitSync,
                has_bytes: spec.has_bytes,
            });
            by_name.insert(name, CallId(i as u32));
        }
        Self {
            inner: RwLock::new(NameTableInner { rows, by_name }),
        }
    }

    /// The process-wide interner, seeded from [`Registry::global`].
    pub fn global() -> &'static NameTable {
        static TABLE: OnceLock<NameTable> = OnceLock::new();
        TABLE.get_or_init(NameTable::build)
    }

    /// Intern `name`, returning its handle. Spec attributes come from the
    /// registry row of the same name, or — for derived names such as
    /// `cudaMemcpy(H2D)` — from the base name before the `(` suffix.
    /// Unknown names intern with no attributes (plain timed call).
    pub fn intern(&self, name: &str) -> CallHandle {
        if let Some(h) = self.lookup(name) {
            return h;
        }
        let reg = Registry::global();
        let base = name.split('(').next().unwrap_or(name);
        let spec = reg.id(name).or_else(|| reg.id(base)).map(|id| reg.spec(id));
        let (implicit_sync, has_bytes) = spec
            .map(|s| (s.blocking == BlockingClass::ImplicitSync, s.has_bytes))
            .unwrap_or((false, false));
        let mut inner = self.inner.write().expect("name table poisoned");
        // double-check: another thread may have interned it meanwhile
        if let Some(&id) = inner.by_name.get(name) {
            let row = &inner.rows[id.0 as usize];
            return CallHandle {
                id,
                implicit_sync: row.implicit_sync,
                has_bytes: row.has_bytes,
            };
        }
        let id = CallId(inner.rows.len() as u32);
        let arc: Arc<str> = Arc::from(name);
        inner.rows.push(NameRow {
            name: arc.clone(),
            implicit_sync,
            has_bytes,
        });
        inner.by_name.insert(arc, id);
        CallHandle {
            id,
            implicit_sync,
            has_bytes,
        }
    }

    /// The handle for an already-interned name, if any.
    pub fn lookup(&self, name: &str) -> Option<CallHandle> {
        let inner = self.inner.read().expect("name table poisoned");
        inner.by_name.get(name).map(|&id| {
            let row = &inner.rows[id.0 as usize];
            CallHandle {
                id,
                implicit_sync: row.implicit_sync,
                has_bytes: row.has_bytes,
            }
        })
    }

    /// The interned name for an id — report/export-time resolution. O(1);
    /// clones the shared `Arc`, so no allocation.
    ///
    /// Panics on an id this table never issued (there is no way to obtain
    /// one through the public API).
    pub fn name(&self, id: CallId) -> Arc<str> {
        let inner = self.inner.read().expect("name table poisoned");
        inner.rows[id.0 as usize].name.clone()
    }

    /// Every name interned so far, indexed by id: a renderer resolves a
    /// whole trace against one snapshot instead of taking the table lock
    /// once per record.
    pub fn snapshot(&self) -> Names {
        let inner = self.inner.read().expect("name table poisoned");
        Names(inner.rows.iter().map(|row| row.name.clone()).collect())
    }

    /// The handle for an id this table issued.
    pub fn handle(&self, id: CallId) -> CallHandle {
        let inner = self.inner.read().expect("name table poisoned");
        let row = &inner.rows[id.0 as usize];
        CallHandle {
            id,
            implicit_sync: row.implicit_sync,
            has_bytes: row.has_bytes,
        }
    }

    /// Number of interned names (≥ the registry size).
    pub fn len(&self) -> usize {
        self.inner.read().expect("name table poisoned").rows.len()
    }

    /// Never true; for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A [`NameTable::snapshot`]: the names of every id issued before it was
/// taken.
pub struct Names(Vec<Arc<str>>);

impl Names {
    /// The name of `id`. Panics on an id issued after the snapshot.
    pub fn get(&self, id: CallId) -> &str {
        &self.0[id.0 as usize]
    }
}

impl CallHandle {
    /// Intern `name` in the global table — the dynamic-name path (tests,
    /// benches, derived names built at run time). Wrap sites with a
    /// literal name should use the [`site!`](crate::site) macro instead,
    /// which caches this resolution in a per-site static.
    pub fn of(name: &str) -> CallHandle {
        NameTable::global().intern(name)
    }

    /// The interned name (report-time lookup).
    pub fn name(&self) -> Arc<str> {
        NameTable::global().name(self.id)
    }
}

// CallHandle packing for the CallSite atomic: bit 63 marks "resolved",
// bits 0/1 carry the spec flags, bits 2.. the id. 2^61 ids is plenty.
const SITE_RESOLVED: u64 = 1 << 63;

fn pack(h: CallHandle) -> u64 {
    SITE_RESOLVED | ((h.id.0 as u64) << 2) | ((h.implicit_sync as u64) << 1) | (h.has_bytes as u64)
}

fn unpack(v: u64) -> CallHandle {
    CallHandle {
        id: CallId(((v & !SITE_RESOLVED) >> 2) as u32),
        implicit_sync: v & 0b10 != 0,
        has_bytes: v & 0b01 != 0,
    }
}

/// Per-call-site resolution cache: a static cell that interns its name on
/// first use and then answers from one relaxed atomic load. Declared by
/// the [`site!`](crate::site) macro; rarely used directly.
pub struct CallSite {
    name: &'static str,
    cell: AtomicU64,
}

impl CallSite {
    /// A site for `name`, unresolved until first use.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            cell: AtomicU64::new(0),
        }
    }

    /// The site's handle (resolving and caching it on first call).
    #[inline]
    pub fn handle(&self) -> CallHandle {
        let v = self.cell.load(Ordering::Relaxed);
        if v != 0 {
            return unpack(v);
        }
        self.resolve_slow()
    }

    #[cold]
    fn resolve_slow(&self) -> CallHandle {
        let h = NameTable::global().intern(self.name);
        self.cell.store(pack(h), Ordering::Relaxed);
        h
    }
}

/// Resolve a wrap site's name literal to its [`CallHandle`] through a
/// per-site static cache: the name is interned exactly once per site, and
/// every later execution is a single atomic load.
///
/// ```
/// use ipm_interpose::site;
/// let h = site!("cudaMemcpy");
/// assert!(h.implicit_sync && h.has_bytes);
/// ```
#[macro_export]
macro_rules! site {
    ($name:literal) => {{
        static SITE: $crate::registry::CallSite = $crate::registry::CallSite::new($name);
        SITE.handle()
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_aggregates_all_families() {
        let r = Registry::global();
        assert_eq!(r.family(ApiFamily::CudaRuntime).count(), 65);
        assert_eq!(r.family(ApiFamily::CudaDriver).count(), 99);
        assert_eq!(r.family(ApiFamily::Cublas).count(), 167);
        assert_eq!(r.family(ApiFamily::Cufft).count(), 13);
        assert_eq!(r.family(ApiFamily::Io).count(), 4);
        assert!(r.family(ApiFamily::Mpi).count() > 10);
        assert_eq!(
            r.len(),
            65 + 99 + 167 + 13 + 4 + r.family(ApiFamily::Mpi).count()
        );
        assert!(!r.is_empty());
    }

    #[test]
    fn lookup_roundtrips() {
        let r = Registry::global();
        let id = r.id("cudaLaunch").expect("cudaLaunch registered");
        assert_eq!(r.spec(id).name, "cudaLaunch");
        assert!(r.id("cudaNotARealCall").is_none());
    }

    #[test]
    fn implicit_blocking_set_is_cuda_memory_ops_plus_cublas_transfers() {
        let r = Registry::global();
        let set: Vec<&str> = r.implicit_blocking_set().map(|c| c.name).collect();
        assert!(set.contains(&"cudaMemcpy"));
        assert!(set.contains(&"cuMemcpyDtoH"));
        assert!(set.contains(&"cublasGetMatrix"));
        assert!(!set.iter().any(|n| n.contains("Memset")));
        assert!(!set.iter().any(|n| n.ends_with("Async")));
    }

    #[test]
    fn ids_are_stable_across_lookups() {
        let r = Registry::global();
        assert_eq!(r.id("cublasZgemm"), r.id("cublasZgemm"));
        assert_ne!(r.id("cudaMemcpy"), r.id("cuMemcpyHtoD"));
    }

    #[test]
    fn interner_is_seeded_with_the_registry() {
        let reg = Registry::global();
        let names = NameTable::global();
        assert!(names.len() >= reg.len());
        // a spec name's interned id IS its registry id
        let h = names.intern("cudaMemcpy");
        assert_eq!(Some(h.id), reg.id("cudaMemcpy"));
        assert_eq!(&*names.name(h.id), "cudaMemcpy");
        assert!(h.implicit_sync && h.has_bytes);
    }

    #[test]
    fn dynamic_names_get_appended_ids_with_base_name_attributes() {
        let names = NameTable::global();
        let split = names.intern("cudaMemcpy(D2H)");
        assert!(
            split.id.0 as usize >= Registry::global().len(),
            "derived names live past the spec rows"
        );
        // attributes come from the cudaMemcpy base row
        assert!(split.implicit_sync && split.has_bytes);
        let async_split = names.intern("cudaMemcpyAsync(H2D)");
        assert!(!async_split.implicit_sync && async_split.has_bytes);
        // pseudo-events and unknown names carry no attributes
        let idle = names.intern("@CUDA_HOST_IDLE");
        assert!(!idle.implicit_sync && !idle.has_bytes);
        // interning is idempotent
        assert_eq!(names.intern("cudaMemcpy(D2H)"), split);
        assert_eq!(&*names.name(split.id), "cudaMemcpy(D2H)");
        // a snapshot resolves every id issued before it, spec rows included
        let snap = names.snapshot();
        assert_eq!(snap.get(split.id), "cudaMemcpy(D2H)");
        assert_eq!(snap.get(idle.id), "@CUDA_HOST_IDLE");
        assert_eq!(snap.get(CallId(0)), Registry::global().spec(CallId(0)).name);
    }

    #[test]
    fn call_sites_cache_their_resolution() {
        let first = site!("cudaMemcpy");
        let second = site!("cudaMemcpy");
        // two *sites* for the same name share the interned id
        assert_eq!(first.id, second.id);
        assert!(first.implicit_sync && first.has_bytes);
        // a site's repeated executions agree with the interner
        for _ in 0..3 {
            assert_eq!(site!("MPI_Recv"), CallHandle::of("MPI_Recv"));
        }
        // packing roundtrips all flag combinations
        for (implicit_sync, has_bytes) in
            [(false, false), (true, false), (false, true), (true, true)]
        {
            let h = CallHandle {
                id: CallId(12345),
                implicit_sync,
                has_bytes,
            };
            assert_eq!(unpack(pack(h)), h);
        }
    }
}
