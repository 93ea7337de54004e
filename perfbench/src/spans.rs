//! Span decorators around the `RankCtx` facades.
//!
//! A traced job swaps each rank's `cuda`, `mpi`, `blas`, `fft` and `io`
//! trait objects for a decorator that times every call into the layer
//! below and forwards it unchanged. Each rank gets its own [`RankSpans`],
//! so recording never contends across ranks. Library-internal calls
//! (CUBLAS/CUFFT issuing CUDA work) go to the stack the cluster built and
//! land inside the enclosing `numlib` span.

use ipm_apps::RankCtx;
use ipm_gpu_sim::{
    CudaApi, CudaError, CudaResult, DeviceProperties, DevicePtr, EventId, Kernel, KernelArg,
    LaunchConfig, StreamId,
};
use ipm_mpi_sim::{MpiApi, MpiResult, ReduceOp, Request};
use ipm_numlib::{BlasApi, Complex64, FftApi, FftDirection, FftType, PlanId, Transpose};
use ipm_sim_core::fsio::{FileHandle, FsResult, IoApi, OpenMode};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The span classes the per-layer metrics are built from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// `cudaMemcpy*` in every direction; bytes are the physical bytes moved.
    CudaCopy,
    /// `cudaLaunch`.
    CudaLaunch,
    /// `cudaThreadSynchronize`, `cudaStreamSynchronize`, `cudaEventSynchronize`.
    CudaSync,
    /// Every other CUDA runtime call.
    CudaOther,
    /// `MPI_Gather` / `MPI_Allgather`; bytes are this rank's contribution.
    MpiGather,
    /// The remaining collectives (barrier, bcast, reduce, allreduce, alltoall).
    MpiCollective,
    /// Point-to-point and local MPI calls.
    MpiOther,
    Blas,
    Fft,
    Io,
}

const OPS: usize = Op::Io as usize + 1;

#[derive(Default)]
struct Tally {
    calls: AtomicU64,
    ns: AtomicU64,
    bytes: AtomicU64,
}

/// Calls, nanoseconds and bytes per [`Op`] for one rank, plus the duration
/// of each collective in call order (instance `i` on every rank is the same
/// collective, which is what `mpi-sim.wait_s` compares).
#[derive(Default)]
pub struct RankSpans {
    tallies: [Tally; OPS],
    collectives: Mutex<Vec<u64>>,
}

/// One span class summed over a rank or a job.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Sum {
    pub calls: u64,
    pub ns: u64,
    pub bytes: u64,
}

impl std::ops::AddAssign for Sum {
    fn add_assign(&mut self, o: Sum) {
        self.calls += o.calls;
        self.ns += o.ns;
        self.bytes += o.bytes;
    }
}

impl RankSpans {
    fn time<T>(&self, op: Op, bytes: usize, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let t = &self.tallies[op as usize];
        t.calls.fetch_add(1, Relaxed);
        t.ns.fetch_add(ns, Relaxed);
        t.bytes.fetch_add(bytes as u64, Relaxed);
        if matches!(op, Op::MpiGather | Op::MpiCollective) {
            self.collectives
                .lock()
                .expect("collective log poisoned")
                .push(ns);
        }
        out
    }

    /// Totals of one span class.
    pub fn sum(&self, op: Op) -> Sum {
        let t = &self.tallies[op as usize];
        Sum {
            calls: t.calls.load(Relaxed),
            ns: t.ns.load(Relaxed),
            bytes: t.bytes.load(Relaxed),
        }
    }

    /// Nanoseconds spent inside any facade span.
    pub fn facade_ns(&self) -> u64 {
        self.tallies.iter().map(|t| t.ns.load(Relaxed)).sum()
    }

    /// Collective durations in call order, nanoseconds.
    pub fn collectives(&self) -> Vec<u64> {
        self.collectives
            .lock()
            .expect("collective log poisoned")
            .clone()
    }
}

/// Wrap every facade of `ctx` in a span decorator; the returned ledger
/// collects the rank's spans.
pub fn install(ctx: &mut RankCtx) -> Arc<RankSpans> {
    let spans = Arc::new(RankSpans::default());
    ctx.cuda = Arc::new(Cuda(ctx.cuda.clone(), spans.clone()));
    ctx.mpi = Arc::new(Mpi(ctx.mpi.clone(), spans.clone()));
    ctx.blas = Arc::new(Blas(ctx.blas.clone(), spans.clone()));
    ctx.fft = Arc::new(Fft(ctx.fft.clone(), spans.clone()));
    ctx.io = Arc::new(Io(ctx.io.clone(), spans.clone()));
    spans
}

/// Traced CUDA runtime facade.
pub struct Cuda(pub Arc<dyn CudaApi>, pub Arc<RankSpans>);

impl CudaApi for Cuda {
    fn cuda_malloc(&self, size: usize) -> CudaResult<DevicePtr> {
        self.1.time(Op::CudaOther, 0, || self.0.cuda_malloc(size))
    }
    fn cuda_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.1.time(Op::CudaOther, 0, || self.0.cuda_free(ptr))
    }
    fn cuda_memcpy_h2d(&self, dst: DevicePtr, src: &[u8]) -> CudaResult<()> {
        self.1
            .time(Op::CudaCopy, src.len(), || self.0.cuda_memcpy_h2d(dst, src))
    }
    fn cuda_memcpy_d2h(&self, dst: &mut [u8], src: DevicePtr) -> CudaResult<()> {
        let n = dst.len();
        self.1
            .time(Op::CudaCopy, n, || self.0.cuda_memcpy_d2h(dst, src))
    }
    fn cuda_memcpy_h2d_sized(
        &self,
        dst: DevicePtr,
        src: &[u8],
        total_bytes: u64,
    ) -> CudaResult<()> {
        self.1.time(Op::CudaCopy, src.len(), || {
            self.0.cuda_memcpy_h2d_sized(dst, src, total_bytes)
        })
    }
    fn cuda_memcpy_d2h_sized(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        total_bytes: u64,
    ) -> CudaResult<()> {
        let n = dst.len();
        self.1.time(Op::CudaCopy, n, || {
            self.0.cuda_memcpy_d2h_sized(dst, src, total_bytes)
        })
    }
    fn cuda_memcpy_d2d(&self, dst: DevicePtr, src: DevicePtr, len: usize) -> CudaResult<()> {
        self.1
            .time(Op::CudaCopy, len, || self.0.cuda_memcpy_d2d(dst, src, len))
    }
    fn cuda_memcpy_h2d_async(
        &self,
        dst: DevicePtr,
        src: &[u8],
        stream: StreamId,
    ) -> CudaResult<()> {
        self.1.time(Op::CudaCopy, src.len(), || {
            self.0.cuda_memcpy_h2d_async(dst, src, stream)
        })
    }
    fn cuda_memcpy_d2h_async(
        &self,
        dst: &mut [u8],
        src: DevicePtr,
        stream: StreamId,
    ) -> CudaResult<()> {
        let n = dst.len();
        self.1.time(Op::CudaCopy, n, || {
            self.0.cuda_memcpy_d2h_async(dst, src, stream)
        })
    }
    fn cuda_memcpy_to_symbol(&self, symbol: &str, src: &[u8]) -> CudaResult<()> {
        self.1.time(Op::CudaCopy, src.len(), || {
            self.0.cuda_memcpy_to_symbol(symbol, src)
        })
    }
    fn cuda_memset(&self, dst: DevicePtr, value: u8, len: usize) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_memset(dst, value, len))
    }
    fn cuda_configure_call(&self, config: LaunchConfig) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_configure_call(config))
    }
    fn cuda_setup_argument(&self, arg: KernelArg) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_setup_argument(arg))
    }
    fn cuda_launch(&self, kernel: &Kernel) -> CudaResult<()> {
        self.1
            .time(Op::CudaLaunch, 0, || self.0.cuda_launch(kernel))
    }
    fn cuda_stream_create(&self) -> CudaResult<StreamId> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_stream_create())
    }
    fn cuda_stream_destroy(&self, stream: StreamId) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_stream_destroy(stream))
    }
    fn cuda_stream_synchronize(&self, stream: StreamId) -> CudaResult<()> {
        self.1
            .time(Op::CudaSync, 0, || self.0.cuda_stream_synchronize(stream))
    }
    fn cuda_stream_query(&self, stream: StreamId) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_stream_query(stream))
    }
    fn cuda_event_create(&self) -> CudaResult<EventId> {
        self.1.time(Op::CudaOther, 0, || self.0.cuda_event_create())
    }
    fn cuda_event_destroy(&self, event: EventId) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_event_destroy(event))
    }
    fn cuda_event_record(&self, event: EventId, stream: StreamId) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_event_record(event, stream))
    }
    fn cuda_event_query(&self, event: EventId) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_event_query(event))
    }
    fn cuda_event_synchronize(&self, event: EventId) -> CudaResult<()> {
        self.1
            .time(Op::CudaSync, 0, || self.0.cuda_event_synchronize(event))
    }
    fn cuda_event_elapsed_time(&self, start: EventId, stop: EventId) -> CudaResult<f64> {
        self.1.time(Op::CudaOther, 0, || {
            self.0.cuda_event_elapsed_time(start, stop)
        })
    }
    fn cuda_thread_synchronize(&self) -> CudaResult<()> {
        self.1
            .time(Op::CudaSync, 0, || self.0.cuda_thread_synchronize())
    }
    fn cuda_get_device_count(&self) -> CudaResult<i32> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_get_device_count())
    }
    fn cuda_set_device(&self, ordinal: i32) -> CudaResult<()> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_set_device(ordinal))
    }
    fn cuda_get_device_properties(&self) -> CudaResult<DeviceProperties> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_get_device_properties())
    }
    fn cuda_get_last_error(&self) -> Option<CudaError> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_get_last_error())
    }
    fn cuda_last_launch_correlation_id(&self) -> u64 {
        self.1.time(Op::CudaOther, 0, || {
            self.0.cuda_last_launch_correlation_id()
        })
    }
    fn cuda_event_timestamp(&self, event: EventId) -> CudaResult<f64> {
        self.1
            .time(Op::CudaOther, 0, || self.0.cuda_event_timestamp(event))
    }
}

/// Traced MPI facade.
pub struct Mpi(pub Arc<dyn MpiApi>, pub Arc<RankSpans>);

impl MpiApi for Mpi {
    fn mpi_comm_rank(&self) -> usize {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_comm_rank())
    }
    fn mpi_comm_size(&self) -> usize {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_comm_size())
    }
    fn mpi_send(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<()> {
        self.1
            .time(Op::MpiOther, 0, || self.0.mpi_send(dest, tag, data))
    }
    fn mpi_recv(&self, src: Option<usize>, tag: i32) -> MpiResult<(usize, Vec<u8>)> {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_recv(src, tag))
    }
    fn mpi_isend(&self, dest: usize, tag: i32, data: &[u8]) -> MpiResult<Request> {
        self.1
            .time(Op::MpiOther, 0, || self.0.mpi_isend(dest, tag, data))
    }
    fn mpi_irecv(&self, src: Option<usize>, tag: i32) -> MpiResult<Request> {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_irecv(src, tag))
    }
    fn mpi_wait(&self, req: &mut Request) -> MpiResult<Option<(usize, Vec<u8>)>> {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_wait(req))
    }
    fn mpi_barrier(&self) -> MpiResult<()> {
        self.1.time(Op::MpiCollective, 0, || self.0.mpi_barrier())
    }
    fn mpi_bcast(&self, root: usize, data: Vec<u8>) -> MpiResult<Vec<u8>> {
        self.1
            .time(Op::MpiCollective, 0, || self.0.mpi_bcast(root, data))
    }
    fn mpi_reduce_f64(
        &self,
        root: usize,
        data: &[f64],
        op: ReduceOp,
    ) -> MpiResult<Option<Vec<f64>>> {
        self.1.time(Op::MpiCollective, 0, || {
            self.0.mpi_reduce_f64(root, data, op)
        })
    }
    fn mpi_allreduce_f64(&self, data: &[f64], op: ReduceOp) -> MpiResult<Vec<f64>> {
        self.1
            .time(Op::MpiCollective, 0, || self.0.mpi_allreduce_f64(data, op))
    }
    fn mpi_gather(&self, root: usize, data: &[u8]) -> MpiResult<Option<Vec<Vec<u8>>>> {
        self.1
            .time(Op::MpiGather, data.len(), || self.0.mpi_gather(root, data))
    }
    fn mpi_allgather(&self, data: &[u8]) -> MpiResult<Vec<Vec<u8>>> {
        self.1
            .time(Op::MpiGather, data.len(), || self.0.mpi_allgather(data))
    }
    fn mpi_alltoall(&self, data: &[u8]) -> MpiResult<Vec<u8>> {
        self.1
            .time(Op::MpiCollective, 0, || self.0.mpi_alltoall(data))
    }
    fn mpi_wtime(&self) -> f64 {
        self.1.time(Op::MpiOther, 0, || self.0.mpi_wtime())
    }
}

/// Traced CUBLAS facade.
pub struct Blas(pub Arc<dyn BlasApi>, pub Arc<RankSpans>);

impl BlasApi for Blas {
    fn cublas_alloc(&self, n: usize, elem_size: usize) -> CudaResult<DevicePtr> {
        self.1
            .time(Op::Blas, 0, || self.0.cublas_alloc(n, elem_size))
    }
    fn cublas_free(&self, ptr: DevicePtr) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || self.0.cublas_free(ptr))
    }
    fn cublas_set_matrix(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        host: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0.cublas_set_matrix(rows, cols, elem_size, host, dev)
        })
    }
    fn cublas_get_matrix(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        dev: DevicePtr,
        host: &mut [u8],
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0.cublas_get_matrix(rows, cols, elem_size, dev, host)
        })
    }
    fn cublas_set_matrix_modeled(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        host_prefix: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0
                .cublas_set_matrix_modeled(rows, cols, elem_size, host_prefix, dev)
        })
    }
    fn cublas_get_matrix_modeled(
        &self,
        rows: usize,
        cols: usize,
        elem_size: usize,
        dev: DevicePtr,
        host_prefix: &mut [u8],
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0
                .cublas_get_matrix_modeled(rows, cols, elem_size, dev, host_prefix)
        })
    }
    fn cublas_set_vector(
        &self,
        n: usize,
        elem_size: usize,
        host: &[u8],
        dev: DevicePtr,
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0.cublas_set_vector(n, elem_size, host, dev)
        })
    }
    fn cublas_get_vector(
        &self,
        n: usize,
        elem_size: usize,
        dev: DevicePtr,
        host: &mut [u8],
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0.cublas_get_vector(n, elem_size, dev, host)
        })
    }
    fn cublas_dgemm(
        &self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: f64,
        da: DevicePtr,
        lda: usize,
        db: DevicePtr,
        ldb: usize,
        beta: f64,
        dc: DevicePtr,
        ldc: usize,
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0
                .cublas_dgemm(ta, tb, m, n, k, alpha, da, lda, db, ldb, beta, dc, ldc)
        })
    }
    fn cublas_zgemm(
        &self,
        ta: Transpose,
        tb: Transpose,
        m: usize,
        n: usize,
        k: usize,
        alpha: Complex64,
        da: DevicePtr,
        lda: usize,
        db: DevicePtr,
        ldb: usize,
        beta: Complex64,
        dc: DevicePtr,
        ldc: usize,
    ) -> CudaResult<()> {
        self.1.time(Op::Blas, 0, || {
            self.0
                .cublas_zgemm(ta, tb, m, n, k, alpha, da, lda, db, ldb, beta, dc, ldc)
        })
    }
    fn cublas_daxpy(&self, n: usize, alpha: f64, dx: DevicePtr, dy: DevicePtr) -> CudaResult<()> {
        self.1
            .time(Op::Blas, 0, || self.0.cublas_daxpy(n, alpha, dx, dy))
    }
    fn cublas_ddot(&self, n: usize, dx: DevicePtr, dy: DevicePtr) -> CudaResult<f64> {
        self.1.time(Op::Blas, 0, || self.0.cublas_ddot(n, dx, dy))
    }
}

/// Traced CUFFT facade.
pub struct Fft(pub Arc<dyn FftApi>, pub Arc<RankSpans>);

impl FftApi for Fft {
    fn cufft_plan_1d(&self, n: usize, ty: FftType, batch: usize) -> CudaResult<PlanId> {
        self.1
            .time(Op::Fft, 0, || self.0.cufft_plan_1d(n, ty, batch))
    }
    fn cufft_set_stream(&self, plan: PlanId, stream: StreamId) -> CudaResult<()> {
        self.1
            .time(Op::Fft, 0, || self.0.cufft_set_stream(plan, stream))
    }
    fn cufft_exec_z2z(
        &self,
        plan: PlanId,
        idata: DevicePtr,
        odata: DevicePtr,
        dir: FftDirection,
    ) -> CudaResult<()> {
        self.1.time(Op::Fft, 0, || {
            self.0.cufft_exec_z2z(plan, idata, odata, dir)
        })
    }
    fn cufft_destroy(&self, plan: PlanId) -> CudaResult<()> {
        self.1.time(Op::Fft, 0, || self.0.cufft_destroy(plan))
    }
}

/// Traced file-I/O facade.
pub struct Io(pub Arc<dyn IoApi>, pub Arc<RankSpans>);

impl IoApi for Io {
    fn fopen(&self, path: &str, mode: OpenMode) -> FsResult<FileHandle> {
        self.1.time(Op::Io, 0, || self.0.fopen(path, mode))
    }
    fn fread(&self, h: FileHandle, buf: &mut [u8]) -> FsResult<usize> {
        self.1.time(Op::Io, 0, || self.0.fread(h, buf))
    }
    fn fwrite(&self, h: FileHandle, data: &[u8]) -> FsResult<usize> {
        self.1.time(Op::Io, 0, || self.0.fwrite(h, data))
    }
    fn fclose(&self, h: FileHandle) -> FsResult<()> {
        self.1.time(Op::Io, 0, || self.0.fclose(h))
    }
}
