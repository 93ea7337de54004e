//! The kernel timing table (KTT, paper §III-B).
//!
//! A statically sized table of in-flight kernel timings. IPM's
//! `cudaLaunch` wrapper enqueues a start event before and a stop event
//! after the launch, storing `(start, stop, stream, kernel)` in a free
//! slot. Because kernels run asynchronously, completion is checked
//! *lazily* — by default only inside device-to-host transfer wrappers
//! ("since any data used by the host has to be requested explicitly by a
//! later D2H transfer, it is safe to assume at least one such transfer
//! occurs after the launch"). When a `cudaEventQuery` on the stop event
//! succeeds, the duration is read with `cudaEventElapsedTime`, the slot is
//! freed, and a `@CUDA_EXEC_STRMxx` entry lands in the hash table.

use ipm_gpu_sim::{CudaApi, EventId, StreamId};
use ipm_interpose::CallId;

/// When the wrapper layer sweeps the KTT for completed kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KttCheckPolicy {
    /// Only in device-to-host memory transfer wrappers — the paper's
    /// choice, minimizing query overhead.
    D2hOnly,
    /// In every CUDA runtime wrapper — the eager alternative the paper
    /// rejects as potentially costly (benchmarked as an ablation).
    EveryCall,
}

/// One in-flight kernel timing.
#[derive(Clone, Debug)]
struct Slot {
    start: EventId,
    stop: EventId,
    stream: StreamId,
    /// Interned kernel symbol.
    kernel: CallId,
    /// Correlation id of the bracketed launch (0 if the backend does not
    /// track launches), linking this timing to the submitting host call.
    corr: u64,
}

/// A completed kernel timing, ready for the hash table.
#[derive(Clone, Debug, PartialEq)]
pub struct CompletedKernel {
    /// Interned kernel symbol.
    pub kernel: CallId,
    pub stream: StreamId,
    /// Event-bracketed duration in seconds (true kernel time plus roughly
    /// one event-record overhead — the bias Table I quantifies).
    pub duration: f64,
    /// Correlation id of the launch (0 when untracked).
    pub corr: u64,
    /// Absolute `(start, stop)` event timestamps on the device timeline,
    /// when the backend exposes them — what places this kernel in a trace.
    pub interval: Option<(f64, f64)>,
}

/// The statically allocated kernel timing table.
pub struct Ktt {
    slots: Vec<Option<Slot>>,
    /// Recycled event pairs, so steady-state monitoring does not keep
    /// creating CUDA events.
    free_events: Vec<(EventId, EventId)>,
    /// Launches not timed because every slot was busy.
    dropped: u64,
}

impl Ktt {
    /// Table with `capacity` slots (IPM uses a fixed compile-time size).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Self {
            slots: vec![None; capacity],
            free_events: Vec::new(),
            dropped: 0,
        }
    }

    /// Number of occupied slots.
    pub fn in_flight(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Launches that could not be timed (table full).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bracket `launch` with start/stop events on `stream` and store the
    /// timing slot. Called by the `cudaLaunch` wrapper. If the table is
    /// full the launch still proceeds, just untimed.
    pub fn time_launch<R>(
        &mut self,
        api: &dyn CudaApi,
        kernel: CallId,
        stream: StreamId,
        launch: impl FnOnce() -> R,
    ) -> R {
        let free_idx = self.slots.iter().position(|s| s.is_none());
        let Some(idx) = free_idx else {
            self.dropped += 1;
            return launch();
        };
        let events = self.free_events.pop().map(Ok).unwrap_or_else(|| {
            Ok::<_, ipm_gpu_sim::CudaError>((api.cuda_event_create()?, api.cuda_event_create()?))
        });
        let Ok((start, stop)) = events else {
            self.dropped += 1;
            return launch();
        };
        if api.cuda_event_record(start, stream).is_err() {
            self.free_events.push((start, stop));
            self.dropped += 1;
            return launch();
        }
        let ret = launch();
        if api.cuda_event_record(stop, stream).is_err() {
            self.free_events.push((start, stop));
            self.dropped += 1;
            return ret;
        }
        let corr = api.cuda_last_launch_correlation_id();
        self.slots[idx] = Some(Slot {
            start,
            stop,
            stream,
            kernel,
            corr,
        });
        ret
    }

    /// Sweep for completed kernels: query each occupied slot's stop event;
    /// on success, read the elapsed time and free the slot.
    pub fn collect_completed(&mut self, api: &dyn CudaApi) -> Vec<CompletedKernel> {
        let mut done = Vec::new();
        for slot in self.slots.iter_mut() {
            let Some(s) = slot else { continue };
            if api.cuda_event_query(s.stop).is_err() {
                continue; // still running
            }
            if let Ok(duration) = api.cuda_event_elapsed_time(s.start, s.stop) {
                let interval = match (
                    api.cuda_event_timestamp(s.start),
                    api.cuda_event_timestamp(s.stop),
                ) {
                    (Ok(t0), Ok(t1)) => Some((t0, t1)),
                    _ => None,
                };
                done.push(CompletedKernel {
                    kernel: s.kernel,
                    stream: s.stream,
                    duration,
                    corr: s.corr,
                    interval,
                });
            }
            self.free_events.push((s.start, s.stop));
            *slot = None;
        }
        done
    }

    /// Force-complete everything (used at finalize time): synchronizes each
    /// remaining stop event, then collects.
    pub fn drain(&mut self, api: &dyn CudaApi) -> Vec<CompletedKernel> {
        for slot in self.slots.iter().flatten() {
            let _ = api.cuda_event_synchronize(slot.stop);
        }
        self.collect_completed(api)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipm_gpu_sim::{launch_kernel, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig};
    use ipm_interpose::CallHandle;

    fn id(name: &str) -> CallId {
        CallHandle::of(name).id
    }

    fn rt() -> GpuRuntime {
        GpuRuntime::single(GpuConfig::dirac_node().with_context_init(0.0))
    }

    fn timed_launch(ktt: &mut Ktt, rt: &GpuRuntime, name: &str, dur: f64) {
        let k = Kernel::timed(name, KernelCost::Fixed(dur));
        ktt.time_launch(rt, id(name), StreamId::DEFAULT, || {
            launch_kernel(rt, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
        });
    }

    #[test]
    fn kernel_timing_roundtrip() {
        let rt = rt();
        let mut ktt = Ktt::new(8);
        timed_launch(&mut ktt, &rt, "square", 0.5);
        assert_eq!(ktt.in_flight(), 1);
        // kernel still running: nothing completes
        assert!(ktt.collect_completed(&rt).is_empty());
        assert_eq!(ktt.in_flight(), 1);
        // after the device drains, collection succeeds
        rt.thread_synchronize().unwrap();
        let done = ktt.collect_completed(&rt);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kernel, id("square"));
        assert!(done[0].duration >= 0.5, "measured {}", done[0].duration);
        assert!(done[0].duration < 0.5 + 1e-3);
        assert_eq!(ktt.in_flight(), 0);
    }

    #[test]
    fn full_table_drops_but_launch_proceeds() {
        let rt = rt();
        let mut ktt = Ktt::new(2);
        for i in 0..4 {
            timed_launch(&mut ktt, &rt, &format!("k{i}"), 0.1);
        }
        assert_eq!(ktt.in_flight(), 2);
        assert_eq!(ktt.dropped(), 2);
        // all four kernels really ran
        rt.thread_synchronize().unwrap();
        assert!(rt.clock().now() >= 0.4);
    }

    #[test]
    fn event_pairs_are_recycled() {
        let rt = rt();
        let mut ktt = Ktt::new(4);
        for round in 0..5 {
            timed_launch(&mut ktt, &rt, "k", 0.01);
            rt.thread_synchronize().unwrap();
            let done = ktt.collect_completed(&rt);
            assert_eq!(done.len(), 1, "round {round}");
        }
        // after the first round the same event pair is reused
        assert_eq!(ktt.free_events.len(), 1);
    }

    #[test]
    fn drain_collects_in_flight_kernels() {
        let rt = rt();
        let mut ktt = Ktt::new(4);
        timed_launch(&mut ktt, &rt, "a", 1.0);
        timed_launch(&mut ktt, &rt, "b", 1.0);
        let done = ktt.drain(&rt);
        assert_eq!(done.len(), 2);
        let kernels: Vec<CallId> = done.iter().map(|c| c.kernel).collect();
        assert!(kernels.contains(&id("a")) && kernels.contains(&id("b")));
    }

    #[test]
    fn per_stream_attribution() {
        let rt = rt();
        let s1 = rt.stream_create().unwrap();
        let mut ktt = Ktt::new(4);
        let k = Kernel::timed("k", KernelCost::Fixed(0.2));
        ktt.time_launch(&rt, id("k"), s1, || {
            launch_kernel(&rt, &k, LaunchConfig::simple(1u32, 1u32).on_stream(s1), &[]).unwrap();
        });
        let done = ktt.drain(&rt);
        assert_eq!(done[0].stream, s1);
    }
}
