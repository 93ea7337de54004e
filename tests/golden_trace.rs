//! Golden-file test for the merged multi-rank Chrome-trace export.
//!
//! Builds a deterministic two-rank trace — each rank's ring compacts a
//! host-call burst into a summary record, and the ranks start at different
//! local epochs — then pins the exporter's exact JSON against
//! `results/trace_compacted.json`. Regenerate the golden after an
//! intentional exporter change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

use ipm_repro::interpose::CallHandle;
use ipm_repro::ipm::{
    validate_chrome_trace, ChromeTrace, CompactPolicy, Export, TraceKind, TraceRank, TraceRecord,
    TraceRing,
};

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
    let ring = TraceRing::with_policy(64, 1, CompactPolicy::with_high_water(4));
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
    // per-stripe sort before the merged drain
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

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trace_compacted.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(
        json, golden,
        "export drifted from results/trace_compacted.json"
    );
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

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/results/trace_otlp.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, &json).expect("write golden");
    }
    let golden =
        std::fs::read_to_string(path).expect("golden file missing — run with UPDATE_GOLDEN=1");
    assert_eq!(json, golden, "export drifted from results/trace_otlp.json");
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
