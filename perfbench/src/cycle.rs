//! One bench cycle: the job run bare, then monitored; the monitored job's
//! at-exit report; and the offline analysis of that report. Every cycle
//! checks its outputs, and a traced cycle also yields the per-layer ledger.

use crate::host::{self, Elapsed, Stopwatch};
use crate::spans::{self, Op, RankSpans, Sum};
use crate::workload::{self, AppOut, Virtual, Workload};
use ipm_apps::{run_cluster, run_cluster_observed, ClusterObserver, ClusterRun, RankCtx};
use ipm_core::export::{Banner, ChromeTrace, Export, Otlp, Xml};
use ipm_core::parse::export_from_xml;
use ipm_core::{ClusterSnapshot, Ipm, RankProfile, Snapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const MB: f64 = (1 << 20) as f64;
/// A measured cycle repeats its report and its analysis until each has
/// taken this long, and reports the median pass: the small workloads'
/// reports take milliseconds, too short to time once.
pub const MIN_PHASE_S: f64 = 0.25;

/// Correctness checks, each counted as one operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {name}: {}", detail());
        }
    }
}

/// What one rank hands back from the job.
pub struct RankOut {
    out: Result<AppOut, String>,
    ipm: Option<Arc<Ipm>>,
    entered: Instant,
    returned: Instant,
    spans: Option<Arc<RankSpans>>,
}

/// One `run_cluster` job, its wall-clock boundaries and its cost.
pub struct Job {
    run: ClusterRun<RankOut>,
    start: Instant,
    end: Instant,
    elapsed: Elapsed,
    /// Live observer sweeps (md16 only).
    sweeps: Vec<Duration>,
    /// Heap allocations during the job (traced jobs only).
    allocs: u64,
}

impl Job {
    fn outputs(&self) -> Vec<[f64; 2]> {
        self.run
            .outputs
            .iter()
            .map(|r| r.out.as_ref().map_or([f64::NAN; 2], AppOut::fields))
            .collect()
    }

    pub(crate) fn virtual_time(&self) -> Virtual {
        Virtual::of(&self.run, &self.outputs())
    }

    #[cfg(test)]
    pub(crate) fn profiles(&self) -> &[RankProfile] {
        &self.run.profiles
    }

    fn spans(&self) -> impl Iterator<Item = &RankSpans> {
        self.run.outputs.iter().filter_map(|r| r.spans.as_deref())
    }

    /// Spans of the given classes, summed over ranks.
    fn sum(&self, ops: &[Op]) -> Sum {
        let mut total = Sum::default();
        for s in self.spans() {
            for &op in ops {
                total += s.sum(op);
            }
        }
        total
    }
}

/// Run the workload's job once, bare or monitored, with or without span
/// decorators on the rank facades.
pub fn run_job(w: &Workload, monitored: bool, traced: bool) -> Job {
    let cfg = if monitored {
        w.cluster.clone()
    } else {
        w.cluster.clone().unmonitored()
    };
    let app = |ctx: &mut RankCtx| {
        let entered = Instant::now();
        let spans = traced.then(|| spans::install(ctx));
        let out = w.app.run(ctx);
        RankOut {
            out,
            ipm: ctx.ipm.clone(),
            entered,
            returned: Instant::now(),
            spans,
        }
    };
    let sweeps = Mutex::new(Vec::new());
    let job = || {
        let clocks = Stopwatch::start();
        let start = Instant::now();
        let run = match w.observer_period {
            Some(period) => run_cluster_observed(&cfg, app, |obs| observe(obs, period, &sweeps)),
            None => run_cluster(&cfg, app),
        };
        (start, run, Instant::now(), clocks.elapsed())
    };
    let ((start, run, end, elapsed), allocs) = if traced {
        host::count_allocs(job)
    } else {
        (job(), 0)
    };
    Job {
        run,
        start,
        end,
        elapsed,
        sweeps: sweeps.into_inner().expect("sweep log poisoned"),
        allocs,
    }
}

/// md16's live observer: one `ClusterObserver::sample` sweep per period
/// until the job is done.
fn observe(obs: &ClusterObserver, period: Duration, sweeps: &Mutex<Vec<Duration>>) {
    while !obs.is_done() {
        let t = Instant::now();
        if obs.sample().is_some() {
            sweeps.lock().expect("sweep log poisoned").push(t.elapsed());
        }
        std::thread::sleep(period);
    }
}

/// The at-exit report: every rank's XML log and the cluster banner.
struct Report {
    xmls: Vec<String>,
    profiles: Vec<RankProfile>,
    banner: String,
    xml_s: f64,
    banner_s: f64,
}

fn report(ipms: &[Arc<Ipm>]) -> Report {
    let mut xmls = Vec::with_capacity(ipms.len());
    let mut profiles = Vec::with_capacity(ipms.len());
    let mut xml_s = 0.0;
    for ipm in ipms {
        let export = Export::from(ipm);
        let t = Instant::now();
        xmls.push(export.to(Xml).expect("a live rank carries its profile"));
        xml_s += t.elapsed().as_secs_f64();
        profiles.extend(export.source().ranks[0].profile.clone());
    }
    let export = Export::from_profiles(profiles.clone());
    let t = Instant::now();
    let banner = export.to(Banner).expect("profiles present");
    let banner_s = t.elapsed().as_secs_f64();
    Report {
        xmls,
        profiles,
        banner,
        xml_s,
        banner_s,
    }
}

/// The `ipm_parse` path: read every log back, then render the banner and
/// both trace formats.
struct Analysis {
    profiles: Vec<Option<RankProfile>>,
    banner: String,
    parse_s: f64,
    chrome_s: f64,
    chrome_bytes: usize,
    otlp_s: f64,
    otlp_bytes: usize,
}

fn analyze(xmls: &[String]) -> Result<Analysis, String> {
    let start = Instant::now();
    let parsed = export_from_xml(xmls).map_err(|e| format!("{e:?}"))?;
    let parse_s = start.elapsed().as_secs_f64();
    let banner = parsed.to(Banner).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let chrome_bytes = parsed.to(ChromeTrace).map_err(|e| e.to_string())?.len();
    let chrome_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let otlp_bytes = parsed.to(Otlp).map_err(|e| e.to_string())?.len();
    let otlp_s = t.elapsed().as_secs_f64();
    Ok(Analysis {
        profiles: parsed
            .source()
            .ranks
            .iter()
            .map(|r| r.profile.clone())
            .collect(),
        banner,
        parse_s,
        chrome_s,
        chrome_bytes,
        otlp_s,
        otlp_bytes,
    })
}

/// Run `pass` until the passes have taken `min_s` of wall time; the last
/// pass's output and the median cost of a pass (wall and CPU medians
/// taken separately).
fn repeat<T>(min_s: f64, mut pass: impl FnMut() -> T) -> (T, Elapsed) {
    let start = Instant::now();
    let mut costs = Vec::new();
    loop {
        let clocks = Stopwatch::start();
        let out = pass();
        costs.push(clocks.elapsed());
        if start.elapsed().as_secs_f64() >= min_s {
            let cost = Elapsed {
                wall: crate::median(costs.iter().map(|c| c.wall)),
                cpu: crate::median(costs.iter().map(|c| c.cpu)),
            };
            return (out, cost);
        }
    }
}

/// The cost of each phase of one cycle, its virtual-time outputs, and
/// (when traced) its per-layer metrics.
pub struct Cycle {
    pub bare_job: Elapsed,
    pub job: Elapsed,
    /// One report pass.
    pub report: Elapsed,
    /// One analysis pass; `None` when the logs did not parse.
    pub analyze: Option<Elapsed>,
    /// (monitored, bare) virtual-time outputs.
    pub virtual_time: (Virtual, Virtual),
    pub layers: BTreeMap<&'static str, f64>,
}

/// Run one cycle of `w` and check its outputs. The report and the analysis
/// repeat until each has taken `min_phase_s`.
pub fn cycle(w: &Workload, traced: bool, min_phase_s: f64, checks: &mut Checks) -> Cycle {
    let bare = run_job(w, false, traced);
    let mut mon = run_job(w, true, traced);
    let virtual_time = (mon.virtual_time(), bare.virtual_time());

    for (arm, job) in [("monitored", &mon), ("bare", &bare)] {
        let errors: Vec<_> = job
            .run
            .outputs
            .iter()
            .filter_map(|r| r.out.as_ref().err())
            .collect();
        checks.check(&format!("app.{arm}.ok"), errors.is_empty(), || {
            format!("{} ranks failed: {errors:?}", errors.len())
        });
    }
    let invariant = |job: &Job| -> Vec<f64> {
        job.run
            .outputs
            .iter()
            .map(|r| r.out.as_ref().map_or(f64::NAN, AppOut::invariant))
            .collect()
    };
    let (inv_mon, inv_bare) = (invariant(&mon), invariant(&bare));
    let same_bits = inv_mon.len() == inv_bare.len()
        && inv_mon
            .iter()
            .zip(&inv_bare)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    checks.check("outputs.monitored_eq_bare", same_bits, || {
        format!("monitored {inv_mon:?} vs bare {inv_bare:?}")
    });
    if let Some((pin_mon, pin_bare)) = &w.pins {
        checks.check("pinned.monitored", virtual_time.0 == *pin_mon, || {
            format!("got {:?}, pinned {pin_mon:?}", virtual_time.0)
        });
        checks.check("pinned.bare", virtual_time.1 == *pin_bare, || {
            format!("got {:?}, pinned {pin_bare:?}", virtual_time.1)
        });
    }
    for p in &mon.run.profiles {
        let m = &p.monitor;
        checks.check(
            "trace.ledger",
            m.trace_captured + m.trace_dropped + m.trace_compacted == m.trace_emitted,
            || format!("rank {}: {m:?}", p.rank),
        );
    }

    let ipms: Vec<Arc<Ipm>> = mon
        .run
        .outputs
        .iter_mut()
        .filter_map(|r| r.ipm.take())
        .collect();
    checks.check("report.ranks", ipms.len() == w.cluster.nranks, || {
        format!("{} of {} ranks monitored", ipms.len(), w.cluster.nranks)
    });
    // the post-job sweep: what one observer sample costs on a quiescent
    // cluster (the only sweep of workloads without a live observer)
    let final_sweep = traced.then(|| {
        let t = Instant::now();
        let snaps: Vec<Snapshot> = ipms.iter().map(|i| i.snapshot()).collect();
        let _ = ClusterSnapshot::merge(&snaps);
        t.elapsed()
    });
    let (rep, report_cost) = repeat(min_phase_s, || report(&ipms));
    drop(ipms);
    let (ana, analyze_cost) = repeat(min_phase_s, || analyze(&rep.xmls));
    match &ana {
        Ok(a) => {
            for (i, p) in rep.profiles.iter().enumerate() {
                let back = a.profiles.get(i).cloned().flatten();
                checks.check("xml.roundtrip", back.as_ref() == Some(p), || {
                    format!("rank {} reads back differently", p.rank)
                });
            }
            checks.check("banner.roundtrip", a.banner == rep.banner, || {
                "banner from the XML logs differs from the live banner".to_owned()
            });
        }
        Err(e) => checks.check("xml.parse", false, || e.clone()),
    }
    let ana = ana.ok();

    let layers = match (&ana, final_sweep) {
        (Some(a), Some(sweep)) => layers(&bare, &mon, &rep, a, sweep),
        _ => BTreeMap::new(),
    };
    Cycle {
        bare_job: bare.elapsed,
        job: mon.elapsed,
        report: report_cost,
        analyze: ana.is_some().then_some(analyze_cost),
        virtual_time,
        layers,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

const CUDA: [Op; 4] = [Op::CudaCopy, Op::CudaLaunch, Op::CudaSync, Op::CudaOther];
const MPI: [Op; 3] = [Op::MpiGather, Op::MpiCollective, Op::MpiOther];
const NUMLIB: [Op; 2] = [Op::Blas, Op::Fft];
const ALL: [Op; 10] = [
    Op::CudaCopy,
    Op::CudaLaunch,
    Op::CudaSync,
    Op::CudaOther,
    Op::MpiGather,
    Op::MpiCollective,
    Op::MpiOther,
    Op::Blas,
    Op::Fft,
    Op::Io,
];

/// The per-layer metrics of one traced cycle. Substrate figures come from
/// the bare job; IPM overheads are monitored minus bare spans over the
/// same (deterministic) call sequence.
fn layers(
    bare: &Job,
    mon: &Job,
    rep: &Report,
    ana: &Analysis,
    final_sweep: Duration,
) -> BTreeMap<&'static str, f64> {
    let ns = |s: Sum| s.ns as f64;
    let per_call = |m: Sum, b: Sum| ratio(ns(m) - ns(b), b.calls as f64);
    let events = workload::events(&mon.run.profiles) as f64;
    let monitor =
        |f: fn(&RankProfile) -> u64| -> f64 { mon.run.profiles.iter().map(f).sum::<u64>() as f64 };
    let (cuda, mpi, numlib) = (bare.sum(&CUDA), bare.sum(&MPI), bare.sum(&NUMLIB));
    let copy = bare.sum(&[Op::CudaCopy]);
    let launch = bare.sum(&[Op::CudaLaunch]);
    let sync = bare.sum(&[Op::CudaSync]);
    let gather = bare.sum(&[Op::MpiGather]);
    let emitted = monitor(|p| p.monitor.trace_emitted);
    let captured = monitor(|p| p.monitor.trace_captured);
    let sweeps: Vec<Duration> = mon.sweeps.iter().copied().chain([final_sweep]).collect();
    let sweep_us =
        sweeps.iter().map(Duration::as_secs_f64).sum::<f64>() * 1e6 / sweeps.len() as f64;
    let entered = mon
        .run
        .outputs
        .iter()
        .map(|r| r.entered)
        .max()
        .unwrap_or(mon.start);
    let returned = mon
        .run
        .outputs
        .iter()
        .map(|r| r.returned)
        .max()
        .unwrap_or(mon.end);
    let app_self = mon
        .run
        .outputs
        .iter()
        .filter_map(|r| {
            let facade = r.spans.as_ref()?.facade_ns() as f64 / 1e9;
            Some((r.returned - r.entered).as_secs_f64() - facade)
        })
        .fold(0.0, f64::max);

    BTreeMap::from([
        ("gpu-sim.calls", cuda.calls as f64),
        ("gpu-sim.busy_s", ns(cuda) / 1e9),
        (
            "gpu-sim.memcpy_ns_per_mb",
            ratio(ns(copy), copy.bytes as f64 / MB),
        ),
        ("gpu-sim.launch_ns", ratio(ns(launch), launch.calls as f64)),
        ("gpu-sim.sync_ns", ratio(ns(sync), sync.calls as f64)),
        ("mpi-sim.calls", mpi.calls as f64),
        ("mpi-sim.busy_s", ns(mpi) / 1e9),
        (
            "mpi-sim.gather_ns_per_mb",
            ratio(ns(gather), gather.bytes as f64 / MB),
        ),
        ("mpi-sim.wait_s", collective_wait_s(mon)),
        ("numlib.calls", numlib.calls as f64),
        ("numlib.busy_s", ns(numlib) / 1e9),
        ("ipm.events", events),
        (
            "ipm.overhead_ns_per_event",
            ratio(ns(mon.sum(&ALL)) - ns(bare.sum(&ALL)), events),
        ),
        ("ipm.cuda_overhead_ns", per_call(mon.sum(&CUDA), cuda)),
        ("ipm.mpi_overhead_ns", per_call(mon.sum(&MPI), mpi)),
        ("ipm.numlib_overhead_ns", per_call(mon.sum(&NUMLIB), numlib)),
        (
            "ipm.allocs_per_event",
            ratio(mon.allocs as f64 - bare.allocs as f64, events),
        ),
        (
            "ipm.self_ns_per_event",
            ratio(monitor(|p| p.monitor.self_wall_ns), events),
        ),
        ("trace.emitted", emitted),
        ("trace.captured", captured),
        ("trace.dropped", monitor(|p| p.monitor.trace_dropped)),
        ("trace.capture_ratio", ratio(captured, emitted)),
        ("observer.sweeps", mon.sweeps.len() as f64),
        ("observer.sweep_us", sweep_us),
        ("cluster.spawn_s", (entered - mon.start).as_secs_f64()),
        ("cluster.finalize_s", (mon.end - returned).as_secs_f64()),
        ("app.self_s", app_self),
        ("export.xml_s", rep.xml_s),
        (
            "export.xml_mb",
            rep.xmls.iter().map(String::len).sum::<usize>() as f64 / MB,
        ),
        ("export.banner_s", rep.banner_s),
        ("export.chrome_s", ana.chrome_s),
        ("export.chrome_mb", ana.chrome_bytes as f64 / MB),
        ("export.otlp_s", ana.otlp_s),
        ("export.otlp_mb", ana.otlp_bytes as f64 / MB),
        ("parse.s", ana.parse_s),
        (
            "parse.ns_per_mb",
            ratio(
                ana.parse_s * 1e9,
                rep.xmls.iter().map(String::len).sum::<usize>() as f64 / MB,
            ),
        ),
    ])
}

/// Σ over collective instances of (a rank's span − the shortest span of
/// that instance across ranks): time ranks spent waiting for the slowest
/// arrival.
fn collective_wait_s(job: &Job) -> f64 {
    let per_rank: Vec<Vec<u64>> = job.spans().map(RankSpans::collectives).collect();
    let instances = per_rank.iter().map(Vec::len).min().unwrap_or(0);
    let mut wait_ns = 0u64;
    for i in 0..instances {
        let min = per_rank.iter().map(|c| c[i]).min().unwrap_or(0);
        wait_ns += per_rank.iter().map(|c| c[i] - min).sum::<u64>();
    }
    wait_ns as f64 / 1e9
}
