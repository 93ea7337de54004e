//! Event signatures — the hash keys of IPM's performance data table.
//!
//! Fig. 1 of the paper: the hash key ("event signature") is derived from
//! the monitored event's **name** (e.g. `MPI_Send`, `cudaMemcpy(D2H)`, or a
//! pseudo-event like `@CUDA_EXEC_STRM00`), plus attributes — the **byte
//! count** involved, the active user **region**, and for pseudo-events a
//! **detail** string (the kernel symbol for GPU-execution entries, so the
//! XML log can break kernel time down per kernel and per stream).

use ipm_interpose::{CallHandle, CallId};

/// The `@CUDA_EXEC_STRMxx` name for kernel execution time on a stream
/// (paper §III-B).
pub fn exec_stream_name(stream: u32) -> String {
    format!("@CUDA_EXEC_STRM{stream:02}")
}

/// The key of one performance-table entry: the interned name id plus the
/// value attributes, all `Copy`. This is what the performance table hashes
/// on the record path — no string hashing, no `Arc` traffic. Names come
/// back as strings only at report time, in [`crate::PerfTable::snapshot`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SigKey {
    /// Interned call or pseudo-event name.
    pub id: CallId,
    /// Byte-count attribute (0 when the event carries none).
    pub bytes: u64,
    /// User region id (0 = whole program).
    pub region: u16,
    /// Interned detail attribute (kernel symbol for `@CUDA_EXEC_*`).
    pub detail: Option<CallId>,
}

impl SigKey {
    /// Key for a plain call in the global region, interning `name`.
    pub fn call(name: &str, bytes: u64) -> Self {
        Self {
            id: CallHandle::of(name).id,
            bytes,
            region: 0,
            detail: None,
        }
    }

    /// Key in an explicit region.
    pub fn in_region(mut self, region: u16) -> Self {
        self.region = region;
        self
    }

    /// Attach a detail attribute, interning it.
    pub fn with_detail(mut self, detail: &str) -> Self {
        self.detail = Some(CallHandle::of(detail).id);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_interpose::NameTable;
    use std::collections::HashSet;

    #[test]
    fn signatures_distinguish_all_attributes() {
        let mut set = HashSet::new();
        set.insert(SigKey::call("cudaMemcpy(D2H)", 1024));
        set.insert(SigKey::call("cudaMemcpy(D2H)", 2048)); // other size
        set.insert(SigKey::call("cudaMemcpy(H2D)", 1024)); // other dir
        set.insert(SigKey::call("cudaMemcpy(D2H)", 1024).in_region(1));
        set.insert(SigKey::call("@CUDA_EXEC_STRM00", 0).with_detail("square"));
        set.insert(SigKey::call("@CUDA_EXEC_STRM00", 0).with_detail("other"));
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn identical_signatures_collide() {
        let a = SigKey::call("MPI_Send", 64).in_region(2);
        let b = SigKey::call("MPI_Send", 64).in_region(2);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_names_match_the_paper_format() {
        assert_eq!(exec_stream_name(0), "@CUDA_EXEC_STRM00");
        assert_eq!(exec_stream_name(7), "@CUDA_EXEC_STRM07");
        assert_eq!(exec_stream_name(12), "@CUDA_EXEC_STRM12");
    }

    #[test]
    fn signatures_are_injective_over_the_whole_registry() {
        // every spec row must hash to its own table slot: build one
        // signature per registered call and demand zero collisions
        use ipm_interpose::Registry;
        let reg = Registry::global();
        let mut set = HashSet::new();
        for i in 0..reg.len() {
            let spec = reg.spec(CallId(i as u32));
            set.insert(SigKey::call(spec.name, 0));
        }
        assert_eq!(
            set.len(),
            reg.len(),
            "two registry rows collapsed to one signature"
        );
        // per-family counts pin the paper's interface inventory
        use ipm_interpose::ApiFamily;
        assert_eq!(reg.family(ApiFamily::CudaRuntime).count(), 65);
        assert_eq!(reg.family(ApiFamily::CudaDriver).count(), 99);
        assert_eq!(reg.family(ApiFamily::Cublas).count(), 167);
        assert_eq!(reg.family(ApiFamily::Cufft).count(), 13);
        assert_eq!(reg.family(ApiFamily::Mpi).count(), 17);
        assert_eq!(reg.family(ApiFamily::Io).count(), 4);
    }

    #[test]
    fn keys_roundtrip_through_the_interner() {
        let key = SigKey::call("cudaMemcpy(D2H)", 800_000)
            .in_region(3)
            .with_detail("square");
        let names = NameTable::global();
        assert_eq!(&*names.name(key.id), "cudaMemcpy(D2H)");
        assert_eq!(key.detail.map(|d| names.name(d)).as_deref(), Some("square"));
        assert_eq!((key.bytes, key.region), (800_000, 3));
        // interning is stable, so equal signatures make equal keys
        assert_eq!(
            SigKey::call("cudaMemcpy(D2H)", 800_000)
                .in_region(3)
                .with_detail("square"),
            key
        );
        // and distinct attributes stay distinct in key space
        assert_ne!(
            SigKey::call("cudaMemcpy(D2H)", 1),
            SigKey::call("cudaMemcpy(D2H)", 2)
        );
        assert_ne!(
            SigKey::call("cudaMemcpy(D2H)", 1),
            SigKey::call("cudaMemcpy(H2D)", 1)
        );
    }
}
