//! The benchmark's own tests, on the workloads' test-size applications.

use crate::cycle::{self, run_job, Checks};
use crate::spans::{self, RankSpans};
use crate::workload::{self, App, Workload, DEFAULT_SEED, NAMES};
use ipm_apps::{AmberConfig, BlasBackend, HplConfig, ParatecConfig};
use ipm_core::RankProfile;
use ipm_gpu_sim::{
    launch_kernel, CudaApi, GpuConfig, GpuRuntime, Kernel, KernelCost, LaunchConfig,
};
use std::sync::Arc;
use std::time::Duration;

/// Each workload's application at test size on two ranks; md keeps its
/// live observer.
fn small(seed: u64) -> Vec<Workload> {
    [
        (App::Hpl(HplConfig::tiny()), None),
        (App::Md(AmberConfig::tiny()), Some(Duration::from_millis(1))),
        (
            App::Paratec(ParatecConfig::tiny(BlasBackend::CublasThunking)),
            None,
        ),
    ]
    .into_iter()
    .map(|(app, observer_period)| Workload {
        cluster: workload::cluster("test", 2, seed),
        app,
        observer_period,
        pins: None,
    })
    .collect()
}

/// Profiles with the wall-clock self-accounting cleared: everything left
/// is virtual time and counts.
fn virtual_profiles(ps: &[RankProfile]) -> Vec<RankProfile> {
    ps.iter()
        .cloned()
        .map(|mut p| {
            p.monitor.self_wall_ns = 0;
            p
        })
        .collect()
}

#[test]
fn span_decorators_leave_virtual_time_and_profiles_unchanged() {
    for w in small(DEFAULT_SEED) {
        for monitored in [false, true] {
            let plain = run_job(&w, monitored, false);
            let traced = run_job(&w, monitored, true);
            assert_eq!(plain.virtual_time(), traced.virtual_time(), "{:?}", w.app);
            assert_eq!(
                virtual_profiles(plain.profiles()),
                virtual_profiles(traced.profiles()),
                "{:?}",
                w.app
            );
        }
    }
}

#[test]
fn decorators_forward_the_defaulted_cuda_methods() {
    let inner = Arc::new(GpuRuntime::single(GpuConfig::dirac_node()));
    let spans = Arc::new(RankSpans::default());
    let traced = spans::Cuda(inner.clone(), spans.clone());
    let k = Kernel::timed("k", KernelCost::Fixed(1e-3));
    launch_kernel(&traced, &k, LaunchConfig::simple(1u32, 1u32), &[]).unwrap();
    assert_ne!(traced.cuda_last_launch_correlation_id(), 0);
    assert_eq!(
        traced.cuda_last_launch_correlation_id(),
        inner.cuda_last_launch_correlation_id()
    );
    let ev = traced.cuda_event_create().unwrap();
    traced
        .cuda_event_record(ev, ipm_gpu_sim::StreamId::DEFAULT)
        .unwrap();
    traced.cuda_thread_synchronize().unwrap();
    assert_eq!(
        traced.cuda_event_timestamp(ev).unwrap(),
        inner.cuda_event_timestamp(ev).unwrap()
    );
    assert_eq!(spans.sum(spans::Op::CudaLaunch).calls, 1);
    assert_eq!(spans.sum(spans::Op::CudaSync).calls, 1);
}

#[test]
fn same_seed_reproduces_inputs_and_outputs() {
    for name in NAMES {
        let a = Workload::generate(name, 7).unwrap();
        let b = Workload::generate(name, 7).unwrap();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
    for (a, b) in small(7).iter().zip(small(7)) {
        let mut checks = Checks::default();
        let first = cycle::cycle(a, false, 0.0, &mut checks);
        let second = cycle::cycle(&b, false, 0.0, &mut checks);
        assert_eq!(first.virtual_time, second.virtual_time, "{:?}", a.app);
        assert_eq!(checks.failed, 0);
    }
}

#[test]
fn another_seed_changes_the_inputs_and_passes_every_check() {
    let (one, two) = (small(DEFAULT_SEED), small(2));
    for (a, b) in one.iter().zip(&two) {
        let mut checks = Checks::default();
        let ca = cycle::cycle(a, true, 0.0, &mut checks);
        let cb = cycle::cycle(b, true, 0.0, &mut checks);
        assert!(checks.attempted > 10, "{checks:?}");
        assert_eq!(checks.failed, 0, "{:?}", b.app);
        // the seed draws the run-level noise: other wallclocks, same work
        assert_ne!(ca.virtual_time.0.wallclocks, cb.virtual_time.0.wallclocks);
        assert_eq!(ca.virtual_time.0.events, cb.virtual_time.0.events);
        assert!(!cb.layers.is_empty());
    }
}

#[test]
fn pins_exist_for_the_default_seed_only() {
    for name in NAMES {
        assert!(Workload::generate(name, DEFAULT_SEED)
            .unwrap()
            .pins
            .is_some());
        assert!(Workload::generate(name, DEFAULT_SEED + 1)
            .unwrap()
            .pins
            .is_none());
    }
    assert!(Workload::generate("nope", DEFAULT_SEED).is_none());
}

#[test]
fn benchmark_json_names_its_workloads_and_every_metric() {
    let json = include_str!("../../BENCHMARK.json");
    let quoted = |name: &str| json.contains(&format!("\"{name}\""));
    // paratec32 stays runnable by hand but is not a BENCHMARK.json
    // workload (see README.md, "Workloads")
    for name in ["hpl16", "md16"] {
        assert!(quoted(name), "{name}");
    }
    assert!(!quoted("paratec32"));
    for (name, unit) in crate::END_TO_END.iter().chain(&crate::PER_LAYER) {
        assert!(quoted(name), "{name}");
        assert!(quoted(unit), "{unit}");
    }
}

#[test]
fn arguments_are_checked() {
    let parse = |args: &[&str]| crate::parse_args(args.iter().map(|s| s.to_string()));
    let ok = parse(&[
        "--workload",
        "md16",
        "--seed",
        "3",
        "--seconds",
        "5",
        "--trace",
        "1",
    ])
    .unwrap();
    assert_eq!(
        (ok.workload.as_str(), ok.seed, ok.seconds, ok.trace),
        ("md16", 3, 5, true)
    );
    assert!(parse(&["--workload", "md32"]).is_err());
    assert!(parse(&["--workload", "md16", "--trace", "2"]).is_err());
    assert!(parse(&["--workload", "md16", "--seed"]).is_err());
    assert!(parse(&["--workload", "md16", "--color", "red"]).is_err());
}
