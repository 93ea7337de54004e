//! Microbenchmark: XML profile log writer and parser, and the `ipm_parse`
//! trace renderings.
//!
//! IPM writes one XML log per rank at job exit and `ipm_parse` reads them
//! all back; at tens of thousands of ranks the serialization cost matters.
//! Besides the 2k-entry profile, a traced log of 64k events (launches,
//! kernel executions with symbols, memcpys, host-idle intervals and
//! compaction summaries) is written, read back with `export_from_xml`, and
//! rendered as Chrome and OTLP JSON. Each row's throughput is the size of
//! the document it writes or reads, so the MiB/s column is per MB.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use ipm_core::export::{ChromeTrace, Export, Otlp, Xml};
use ipm_core::parse::export_from_xml;
use ipm_core::{from_xml, to_xml, ProfileEntry, RankProfile, TraceAgg, TraceKind, TraceRecord};
use ipm_interpose::CallHandle;
use ipm_sim_core::RunningStats;
use std::hint::black_box;

fn big_profile(entries: usize) -> RankProfile {
    let mut stats = RunningStats::new();
    stats.record(1.25e-3);
    stats.record(3.75e-3);
    RankProfile {
        rank: 11,
        nranks: 4096,
        host: "dirac11".to_owned(),
        command: "pmemd.cuda.MPI -O -i mdin".to_owned(),
        wallclock: 45.78,
        regions: vec!["<program>".to_owned(), "pme".to_owned()],
        entries: (0..entries)
            .map(|i| ProfileEntry {
                name: format!("cudaMemcpy(D2H)#{}", i % 40),
                detail: if i % 5 == 0 {
                    Some(format!("kernel_{i}"))
                } else {
                    None
                },
                bytes: (i as u64) * 640,
                region: (i % 2) as u16,
                stats,
            })
            .collect(),
        dropped_events: 0,
        monitor: Default::default(),
    }
}

/// `events` records in MD-like groups of four: a launch, the kernel
/// execution it correlates with, a host-idle wait, and a memcpy; every
/// 64th group's memcpy is a compaction summary instead.
fn md_trace(events: usize) -> Vec<TraceRecord> {
    let kernels = [
        "CalculatePMEOrthogonalNonbondForces",
        "ReduceForces<double>",
    ];
    let (launch, idle) = (
        CallHandle::of("cudaLaunch").id,
        CallHandle::of("@CUDA_HOST_IDLE").id,
    );
    let (exec, memcpy) = (
        CallHandle::of("@CUDA_EXEC_STRM00").id,
        CallHandle::of("cudaMemcpy(D2H)").id,
    );
    let rec = |kind, name, begin: f64, end: f64| TraceRecord {
        kind,
        name,
        detail: None,
        begin,
        end,
        bytes: 0,
        region: 1,
        stream: None,
        corr: 0,
        agg: None,
    };
    let mut out = Vec::with_capacity(events);
    for g in 0..events / 4 {
        let t = 1.000_137 + g as f64 * 3.1e-5;
        let corr = g as u64 + 1;
        out.push(TraceRecord {
            corr,
            ..rec(TraceKind::Call, launch, t, t + 4.3e-6)
        });
        out.push(TraceRecord {
            detail: Some(CallHandle::of(kernels[g % 2]).id),
            stream: Some(0),
            corr,
            ..rec(TraceKind::KernelExec, exec, t + 5.1e-6, t + 2.37e-5)
        });
        out.push(rec(TraceKind::HostIdle, idle, t + 5.0e-6, t + 2.4e-5));
        let mut copy = TraceRecord {
            bytes: 98_304,
            ..rec(TraceKind::Call, memcpy, t + 2.4e-5, t + 3.0e-5)
        };
        if g % 64 == 63 {
            copy.agg = Some(TraceAgg {
                count: 17,
                total: 1.02e-4,
                min: 5.9e-6,
                max: 6.3e-6,
                exemplar: (t, t + 6.3e-6),
            });
        }
        out.push(copy);
    }
    out
}

fn bench_xml(c: &mut Criterion) {
    let profile = big_profile(2_000);
    let xml = to_xml(&profile);
    let mut group = c.benchmark_group("xml");
    group.throughput(Throughput::Bytes(xml.len() as u64));
    group.bench_function("write_2k_entries", |b| {
        b.iter(|| black_box(to_xml(&profile)))
    });
    group.bench_function("parse_2k_entries", |b| {
        b.iter(|| black_box(from_xml(&xml).expect("roundtrip")))
    });

    let traced = Export::from_profile(big_profile(200))
        .with_trace(md_trace(64 * 1024))
        .with_epoch(0.75);
    let log = traced.to(Xml).expect("profile present");
    let logs = [log.clone()];
    let parsed = export_from_xml(&logs).expect("roundtrip");
    assert_eq!(
        parsed.source().ranks[0].records,
        traced.source().ranks[0].records
    );
    group.throughput(Throughput::Bytes(log.len() as u64));
    group.bench_function("write_64k_events", |b| {
        b.iter(|| black_box(traced.to(Xml).expect("profile present")))
    });
    group.bench_function("parse_64k_events", |b| {
        b.iter(|| black_box(export_from_xml(&logs).expect("roundtrip")))
    });
    let chrome = parsed.to(ChromeTrace).expect("ranks present");
    group.throughput(Throughput::Bytes(chrome.len() as u64));
    group.bench_function("chrome_64k_events", |b| {
        b.iter(|| black_box(parsed.to(ChromeTrace).expect("ranks present")))
    });
    let otlp = parsed.to(Otlp).expect("ranks present");
    group.throughput(Throughput::Bytes(otlp.len() as u64));
    group.bench_function("otlp_64k_events", |b| {
        b.iter(|| black_box(parsed.to(Otlp).expect("ranks present")))
    });
    group.finish();
}

criterion_group!(benches, bench_xml);
criterion_main!(benches);
