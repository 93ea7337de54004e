//! Golden-file tests for the trace writers.
//!
//! The first builds a deterministic two-rank trace — each rank's ring
//! compacts a host-call burst into a summary record, and the ranks start at
//! different local epochs — then pins the exporter's exact JSON against
//! `results/trace_compacted.json` (and `results/trace_otlp.json`). The
//! second, [`writer_branches_match_golden`], pins the Chrome, OTLP and XML
//! bytes of a source built to reach every writer branch the first one
//! misses (`results/trace_branches.*`). The profile cases pin the banner,
//! region report and XML of single-rank md, hpl, paratec and host-timing-only
//! md runs (`results/profile_*.golden`). Regenerate a golden after an
//! intentional writer or record-path change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use ipm_repro::apps::{
    run_amber, run_cluster, run_hpl, run_paratec, AmberConfig, BlasBackend, ClusterConfig,
    HplConfig, ParatecConfig, RankCtx,
};
use ipm_repro::gpu::{ProfKind, ProfRecord, StreamId};
use ipm_repro::interpose::CallHandle;
use ipm_repro::ipm::parse::export_from_xml;
use ipm_repro::ipm::{
    validate_chrome_trace, Banner, ChromeTrace, CompactPolicy, Export, IpmConfig, MonitorInfo,
    ProfileEntry, RankProfile, RegionReport, TraceAgg, TraceKind, TraceRank, TraceRecord,
    TraceRing, Xml,
};
use ipm_repro::sim::RunningStats;

fn rec(
    kind: TraceKind,
    name: &str,
    begin: f64,
    end: f64,
    stream: Option<u32>,
    corr: u64,
) -> TraceRecord {
    TraceRecord {
        kind,
        name: CallHandle::of(name).id,
        detail: None,
        begin,
        end,
        bytes: 0,
        region: 0,
        stream,
        corr,
        agg: None,
    }
}

/// One rank's worth of deterministic workload, expressed in that rank's own
/// clock (everything offset by its epoch `e`). Dyadic timestamps keep the
/// exported microsecond values integral, so the JSON is stable digit-for-digit.
fn rank(r: usize, e: f64, corr: u64) -> TraceRank {
    let ring = TraceRing::with_policy(64, CompactPolicy::with_high_water(4));
    for i in 0..6 {
        let b = e + i as f64 * 0.25;
        ring.push(rec(
            TraceKind::Call,
            "cudaMemcpy(H2D)",
            b,
            b + 0.125,
            None,
            0,
        ));
    }
    ring.push(rec(
        TraceKind::Call,
        "cudaLaunch",
        e + 1.5,
        e + 1.625,
        None,
        corr,
    ));
    ring.push(rec(
        TraceKind::KernelExec,
        "@CUDA_EXEC_STRM00",
        e + 1.75,
        e + 2.0,
        Some(0),
        corr,
    ));
    // pushed after the exec record but earlier in time: exercises the
    // sort before the drain
    ring.push(rec(
        TraceKind::HostIdle,
        "@CUDA_HOST_IDLE",
        e + 1.625,
        e + 1.75,
        None,
        0,
    ));
    assert_eq!(
        ring.captured() + ring.dropped() + ring.compacted_away(),
        ring.emitted()
    );
    assert!(ring.compacted_away() > 0, "burst must compact");
    TraceRank {
        rank: r,
        host: format!("dirac{r:02}"),
        epoch: e,
        records: ring.drain(),
        prof: Vec::new(),
    }
}

#[test]
fn merged_two_rank_export_matches_golden() {
    // rank 1 boots 1.5 virtual seconds after rank 0; epoch alignment must
    // land the identical workloads on identical timestamps anyway
    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(ChromeTrace)
        .expect("ranks present");

    // structurally valid: parses, every B closes, ts monotone per lane,
    // every flow start finds its finish
    let stats = validate_chrome_trace(&json).expect("exporter output invalid");
    assert_eq!(stats.processes, 2);
    // per rank: compacted summary + launch + host idle + kernel exec
    assert_eq!(stats.slices, 8);
    assert_eq!(stats.lanes, 4, "host lane + one stream lane per rank");
    assert_eq!(stats.flow_pairs, 2, "one launch→exec arrow per rank");

    // the compacted burst exports as ONE slice carrying its aggregate
    // args: 6 merged copies of 0.125 s each
    assert_eq!(json.matches("\"count\":6").count(), 2);
    assert_eq!(json.matches("\"total_us\":750000").count(), 2);

    // epoch alignment: each rank's first slice sits at ts 0 even though
    // their local clocks started 1.5 s apart
    assert_eq!(json.matches("\"ts\":0,").count(), 2);
    // and the kernel execs land on the same aligned instant on both ranks
    assert_eq!(json.matches("\"ts\":1750000,").count(), 2);

    assert_golden("trace_compacted.json", &json);
}

/// The same deterministic two-rank workload pinned through the OTLP
/// backend against `results/trace_otlp.json` (regenerate with
/// `UPDATE_GOLDEN=1` after an intentional exporter change).
#[cfg(feature = "otlp")]
#[test]
fn merged_two_rank_otlp_export_matches_golden() {
    use ipm_repro::ipm::{validate_otlp, Otlp};
    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(Otlp)
        .expect("ranks present");

    let stats = validate_otlp(&json).expect("exporter output invalid");
    assert_eq!(stats.resources, 2);
    // per rank: compacted summary + launch + host idle + kernel exec
    assert_eq!(stats.spans, 8);
    assert_eq!(stats.links, 2, "one launch→exec link per rank");
    assert_eq!(stats.summary_spans, 2, "one compacted burst per rank");

    // epoch alignment: each rank's first span starts at nano 0 even though
    // their local clocks started 1.5 s apart
    assert_eq!(json.matches("\"startTimeUnixNano\":\"0\"").count(), 2);
    assert_eq!(
        json.matches("\"startTimeUnixNano\":\"1750000000\"").count(),
        2
    );

    assert_golden("trace_otlp.json", &json);
}

/// Link correlation, checked span by span: every `cudaLaunch` span in the
/// OTLP document carries exactly one link, and that link resolves to a
/// kernel-execution span in the same trace.
#[cfg(feature = "otlp")]
#[test]
fn every_launch_span_links_to_its_kernel_span() {
    use ipm_repro::ipm::jsonw::{parse_json, Json};
    use ipm_repro::ipm::Otlp;
    use std::collections::HashMap;

    let json = Export::new()
        .with_trace_rank(rank(0, 1.0, 7))
        .with_trace_rank(rank(1, 2.5, 9))
        .to(Otlp)
        .expect("ranks present");
    let doc = parse_json(&json).expect("parses");

    // first pass: index every span's name by (traceId, spanId)
    let mut names: HashMap<(String, String), String> = HashMap::new();
    let mut spans: Vec<&Json> = Vec::new();
    for rs in doc.get("resourceSpans").and_then(Json::as_arr).unwrap() {
        for scope in rs.get("scopeSpans").and_then(Json::as_arr).unwrap() {
            for span in scope.get("spans").and_then(Json::as_arr).unwrap() {
                let key = (
                    span.get("traceId")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                    span.get("spanId")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_owned(),
                );
                let name = span.get("name").and_then(Json::as_str).unwrap().to_owned();
                names.insert(key, name);
                spans.push(span);
            }
        }
    }

    let mut launches = 0;
    for span in spans {
        if span.get("name").and_then(Json::as_str) != Some("cudaLaunch") {
            continue;
        }
        launches += 1;
        let links = span
            .get("links")
            .and_then(Json::as_arr)
            .expect("launch span without links");
        assert_eq!(links.len(), 1);
        let own_trace = span.get("traceId").and_then(Json::as_str).unwrap();
        let lt = links[0].get("traceId").and_then(Json::as_str).unwrap();
        let ls = links[0].get("spanId").and_then(Json::as_str).unwrap();
        assert_eq!(lt, own_trace, "links stay within the rank's trace");
        let target = &names[&(lt.to_owned(), ls.to_owned())];
        assert!(
            target.starts_with("@CUDA_EXEC_STRM"),
            "launch links to '{target}', not a kernel span"
        );
    }
    assert_eq!(launches, 2, "one launch span per rank");
}

/// Compare `actual` with `results/<file>`, rewriting the file first when
/// `UPDATE_GOLDEN` is set.
fn assert_golden(file: &str, actual: &str) {
    let path = format!("{}/results/{file}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(&path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(actual, golden, "output drifted from results/{file}");
}

/// A name that needs escaping in both JSON (`"`, `\`, tab, a control
/// character) and XML (`<`, `>`, `&`, `"`), with non-ASCII text besides.
const ODD: &str = "k<\"T&U\">\\é\t\u{1}";

fn profile(rank: usize, host: &str) -> RankProfile {
    let mut stats = RunningStats::new();
    stats.record(0.1);
    stats.record(0.2);
    RankProfile {
        rank,
        nranks: 2,
        host: host.to_owned(),
        command: format!("./md -i <{ODD}> & \"x\""),
        wallclock: 3.3000000000000003,
        regions: vec!["<program>".to_owned(), ODD.to_owned()],
        entries: vec![
            ProfileEntry {
                name: ODD.to_owned(),
                detail: Some(ODD.to_owned()),
                bytes: 7,
                region: 1,
                stats,
            },
            ProfileEntry {
                name: "cudaMemcpy(H2D)".to_owned(),
                detail: None,
                bytes: 1 << 20,
                region: 0,
                stats,
            },
        ],
        dropped_events: 2,
        monitor: MonitorInfo {
            self_wall_ns: 4321,
            trace_emitted: 12,
            trace_captured: 9,
            trace_dropped: 1,
            trace_compacted: 2,
            ring_hwm_bytes: 1024,
        },
    }
}

#[allow(clippy::too_many_arguments)]
fn event(
    kind: TraceKind,
    name: &str,
    detail: Option<&str>,
    begin: f64,
    end: f64,
    bytes: u64,
    stream: Option<u32>,
    corr: u64,
) -> TraceRecord {
    TraceRecord {
        kind,
        name: CallHandle::of(name).id,
        detail: detail.map(|d| CallHandle::of(d).id),
        begin,
        end,
        bytes,
        region: 1,
        stream,
        corr,
        agg: None,
    }
}

/// Two ranks reaching every writer branch the compacted golden misses:
///
/// - rank 0 carries device ground truth (`ProfRecord`s: a kernel whose
///   correlation id matches a launch, and a memcpy), so its device lanes
///   come from the profiler; its KTT record shows only in the XML;
/// - rank 1 has no profiler records, so its device lanes come from KTT
///   records with kernel symbols (`detail`), one of them a summary;
/// - both use non-dyadic timestamps, a record captured before the epoch
///   (negative exported time), `bytes > 0` args, summary records, and
///   [`ODD`] as a call name, kernel symbol, region, host and command.
fn branches() -> Export {
    use TraceKind::{Call, HostIdle, KernelExec};
    let agg = |count, total, min, max, exemplar| TraceAgg {
        count,
        total,
        min,
        max,
        exemplar,
    };

    let mut sync = event(Call, "cudaStreamSynchronize", None, 1.8, 2.3, 0, None, 0);
    sync.agg = Some(agg(3, 0.30000000000000004, 0.1, 0.11, (1.9, 2.01)));
    let rank0 = vec![
        event(Call, "cudaMalloc", None, 0.5, 0.6500001, 4096, None, 0),
        event(
            Call,
            "cudaMemcpy(H2D)",
            None,
            0.81,
            1.2900011999999998,
            1 << 20,
            None,
            0,
        ),
        event(Call, "cudaLaunch", None, 1.3, 1.3000042, 0, None, 11),
        event(
            KernelExec,
            "@CUDA_EXEC_STRM01",
            Some(ODD),
            1.31,
            1.77,
            0,
            Some(1),
            11,
        ),
        event(HostIdle, "@CUDA_HOST_IDLE", None, 1.31, 1.77, 0, None, 0),
        sync,
        event(Call, ODD, None, 2.4, 2.45, 7, None, 0),
    ];
    let prof0 = vec![
        ProfRecord {
            method: "memcpyHtoD".to_owned(),
            kind: ProfKind::MemcpyH2D,
            stream: StreamId::DEFAULT,
            start: 0.82,
            gputime: 0.4000001,
            cputime: 0.47,
            corr: 0,
        },
        ProfRecord {
            method: ODD.to_owned(),
            kind: ProfKind::Kernel,
            stream: StreamId(1),
            start: 1.31,
            gputime: 0.4599999,
            cputime: 4.2e-6,
            corr: 11,
        },
    ];

    let mut burst = event(
        KernelExec,
        "@CUDA_EXEC_STRM00",
        Some("nonbond<T>"),
        2.6,
        3.1,
        0,
        Some(0),
        0,
    );
    burst.agg = Some(agg(
        5,
        0.35000000000000003,
        0.06,
        0.0900001,
        (2.9, 2.9900001),
    ));
    let rank1 = vec![
        event(Call, "MPI_Init", None, 2.2, 2.5000001, 0, None, 0),
        event(Call, "cudaLaunch", None, 2.51, 2.5100033, 0, None, 21),
        event(
            KernelExec,
            "@CUDA_EXEC_STRM02",
            Some(ODD),
            2.52,
            2.58,
            0,
            Some(2),
            21,
        ),
        // a launch whose kernel was never captured: no flow, no link
        event(Call, "cudaLaunch", None, 2.59, 2.5900029, 0, None, 22),
        burst,
        event(Call, "MPI_Send", None, 3.2, 3.2100003, 65536, None, 0),
    ];

    Export::new()
        .rank(profile(0, "dirac00"))
        .with_trace(rank0)
        .with_prof(prof0)
        .with_epoch(0.7)
        .rank(profile(1, ODD))
        .with_trace(rank1)
        .with_epoch(2.5000001)
}

#[test]
fn writer_branches_match_golden() {
    let export = branches();

    let chrome = export.to(ChromeTrace).expect("ranks present");
    let stats = validate_chrome_trace(&chrome).expect("exporter output invalid");
    assert_eq!(stats.processes, 2);
    assert_eq!(stats.flow_pairs, 2, "one captured launch→kernel per rank");
    assert_golden("trace_branches.json", &chrome);

    #[cfg(feature = "otlp")]
    {
        use ipm_repro::ipm::{validate_otlp, Otlp};
        let otlp = export.to(Otlp).expect("ranks present");
        let stats = validate_otlp(&otlp).expect("exporter output invalid");
        assert_eq!(stats.links, 2, "one captured launch→kernel per rank");
        assert_eq!(stats.summary_spans, 2);
        assert_golden("trace_branches_otlp.json", &otlp);
    }

    let xml = export.to(Xml).expect("profiles present");
    assert_golden("trace_branches.xml", &xml);

    // the log reads back to the source it was written from: one document
    // per rank, split after each `</ipm>`
    let logs: Vec<String> = xml.split_inclusive("</ipm>\n").map(str::to_owned).collect();
    let back = export_from_xml(&logs).expect("golden log parses");
    for (got, want) in back.source().ranks.iter().zip(&export.source().ranks) {
        assert_eq!(got.profile, want.profile);
        assert_eq!(got.records, want.records);
        assert_eq!(got.epoch.to_bits(), want.epoch.to_bits());
    }
}

/// Run `app` monitored on one rank and pin its banner, region report and
/// XML log against `results/<file>`; returns the profile for the caller's
/// coverage checks. Single-rank virtual-time runs are deterministic, and
/// `self_wall_ns` (the monitor's real wall-clock self cost) is the one
/// value that is not, so it is zeroed first. The XML writes every entry's
/// `total/min/max` with shortest-round-trip floats, so the golden pins the
/// whole table, not just its rendering.
fn assert_profile_golden(
    file: &str,
    cfg: IpmConfig,
    command: &str,
    app: impl Fn(&mut RankCtx) + Send + Sync,
) -> RankProfile {
    let cluster = ClusterConfig::dirac(1, 1)
        .with_ipm(cfg)
        .with_command(command);
    let mut profile = run_cluster(&cluster, app)
        .profiles
        .into_iter()
        .next()
        .expect("one rank");
    profile.monitor.self_wall_ns = 0;
    let export = || Export::from_profile(profile.clone()).max_rows(0);
    let rendered = format!(
        "{}\n{}\n{}",
        export().to(Banner).expect("banner"),
        export().to(RegionReport).expect("region report"),
        export().to(Xml).expect("xml"),
    );
    assert_golden(file, &rendered);
    profile
}

/// The MD (PMEMD-like) workload: kernels, transfers, host idle, regions.
#[test]
fn md_profile_matches_golden() {
    let p = assert_profile_golden(
        "profile_md.golden",
        IpmConfig::default(),
        "pmemd.cuda",
        |ctx| {
            run_amber(ctx, AmberConfig::tiny()).expect("md");
        },
    );
    assert!(
        p.entries.iter().any(|e| e.name == "cudaLaunch"),
        "md run recorded no launches"
    );
    assert!(
        p.entries.iter().any(|e| e.name.starts_with('@')),
        "md run produced no pseudo entries (exec/idle)"
    );
}

/// The Linpack workload: raw kernel launches, event-API synchronization,
/// byte-attributed MPI and async copies.
#[test]
fn hpl_profile_matches_golden() {
    let p = assert_profile_golden(
        "profile_hpl.golden",
        IpmConfig::default(),
        "xhpl.cuda",
        |ctx| {
            run_hpl(ctx, HplConfig::tiny()).expect("hpl");
        },
    );
    assert!(
        p.entries
            .iter()
            .any(|e| e.name.starts_with("MPI_") && e.bytes > 0),
        "hpl run recorded no byte-attributed MPI calls"
    );
}

/// The PARATEC workload with the thunking-CUBLAS backend: every zgemm
/// routes through the numlib facade with byte attribution.
#[test]
fn paratec_profile_matches_golden() {
    let p = assert_profile_golden(
        "profile_paratec.golden",
        IpmConfig::default(),
        "paratec.mpi",
        |ctx| {
            run_paratec(ctx, ParatecConfig::tiny(BlasBackend::CublasThunking)).expect("paratec");
        },
    );
    assert!(
        p.entries
            .iter()
            .any(|e| e.name.starts_with("cublas") && e.bytes > 0),
        "paratec run recorded no byte-attributed cublas calls"
    );
}

/// Host-timing-only configuration: the non-pseudo half of the record path
/// (no KTT booking), with regions still present.
#[test]
fn host_only_md_profile_matches_golden() {
    let p = assert_profile_golden(
        "profile_md_host_only.golden",
        IpmConfig::host_timing_only(),
        "pmemd.cuda",
        |ctx| {
            run_amber(ctx, AmberConfig::tiny()).expect("md");
        },
    );
    assert!(
        !p.entries.iter().any(|e| e.name.starts_with("@CUDA_EXEC")),
        "host-timing-only run booked kernel executions"
    );
}
