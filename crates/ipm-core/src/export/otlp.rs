//! OTLP-shaped trace backend (`resourceSpans` JSON), so the telemetry the
//! wrappers capture can feed standard OpenTelemetry collectors.
//!
//! The shape follows the OTLP/JSON trace encoding: one `resourceSpans`
//! entry per rank whose resource attributes identify it (`ipm.rank`,
//! `host.name`, and `ipm.command` when a profile is attached), one scope
//! (`ipm.trace`), and one span per trace record. As in the proto3 JSON
//! mapping, 64-bit integers — `intValue` attributes and the
//! `startTimeUnixNano`/`endTimeUnixNano` fields — are encoded as strings.
//! Timestamps are nanoseconds relative to the rank's clock-alignment
//! epoch (signed: records captured before the epoch legitimately go
//! negative). Span **links** are the OTLP analogue of the Chrome-trace
//! flow arrows: each `cudaLaunch` host span links to the kernel span that
//! carries the same correlation id. Compaction summaries carry their
//! aggregate as `count`/`total_us`/`min_us`/`max_us` attributes, exactly
//! like the Chrome `X` events.
//!
//! Everything is hand-rolled over [`crate::jsonw`] — no serde, no
//! OpenTelemetry SDK — and [`validate_otlp`] is the structural checker
//! mirroring [`super::validate_chrome_trace`].

use super::{ExportRank, ExportSource};
use crate::jsonw::{parse_json, quote, Json};
use crate::trace::{TraceKind, TraceRecord};
use ipm_gpu_sim::ProfKind;
use ipm_interpose::NameTable;
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;

/// Signed nanoseconds relative to the epoch, rounded to the nearest tick.
fn ns(t: f64, epoch: f64) -> i64 {
    ((t - epoch) * 1e9).round() as i64
}

fn attr_str(key: &str, val: &str) -> String {
    format!(
        "{{\"key\":{},\"value\":{{\"stringValue\":{}}}}}",
        quote(key),
        quote(val)
    )
}

fn attr_int(key: &str, val: u64) -> String {
    format!(
        "{{\"key\":{},\"value\":{{\"intValue\":\"{}\"}}}}",
        quote(key),
        val
    )
}

fn attr_f64(key: &str, val: f64) -> String {
    format!(
        "{{\"key\":{},\"value\":{{\"doubleValue\":{}}}}}",
        quote(key),
        val
    )
}

/// Compaction aggregate attributes, mirroring the Chrome `X` event args.
fn summary_attrs(t: &TraceRecord, attrs: &mut Vec<String>) {
    if let Some(a) = t.agg {
        attrs.push(attr_int("count", a.count));
        attrs.push(attr_f64("total_us", a.total * 1e6));
        attrs.push(attr_f64("min_us", a.min * 1e6));
        attrs.push(attr_f64("max_us", a.max * 1e6));
    }
}

struct Span {
    name: String,
    kind: u32,
    start: i64,
    end: i64,
    attrs: Vec<String>,
    /// `(trace_id, span_id)` of the linked span, if any.
    link: Option<(String, String)>,
}

impl Span {
    fn render(&self, trace_id: &str, span_id: &str) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"traceId\":\"{}\",\"spanId\":\"{}\",\"name\":{},\"kind\":{},\
             \"startTimeUnixNano\":\"{}\",\"endTimeUnixNano\":\"{}\"",
            trace_id,
            span_id,
            quote(&self.name),
            self.kind,
            self.start,
            self.end
        );
        if !self.attrs.is_empty() {
            let _ = write!(out, ",\"attributes\":[{}]", self.attrs.join(","));
        }
        if let Some((lt, ls)) = &self.link {
            let _ = write!(
                out,
                ",\"links\":[{{\"traceId\":\"{lt}\",\"spanId\":\"{ls}\"}}]"
            );
        }
        out.push('}');
        out
    }
}

/// OTLP span kinds used here: host-side wrapped calls and idle intervals
/// are `INTERNAL`, device-side executions are `CONSUMER` (they consume the
/// launch the host span produced).
const KIND_INTERNAL: u32 = 1;
const KIND_CONSUMER: u32 = 5;

/// All of one rank's spans, device side first so host `cudaLaunch` spans
/// can link to the kernel span their correlation id resolves to.
fn rank_spans(r: &ExportRank, trace_id: &str) -> Vec<String> {
    let names = NameTable::global();
    let mut spans: Vec<Span> = Vec::new();

    // Device spans (profiler ground truth wins, as in the Chrome backend),
    // recording where each correlation id landed.
    let mut corr_span: HashMap<u64, String> = HashMap::new();
    let use_prof = !r.prof.is_empty();
    if use_prof {
        for p in &r.prof {
            let mut attrs = vec![
                attr_int("ipm.stream", p.stream.0 as u64),
                attr_f64("gputime_us", p.gputime * 1e6),
            ];
            if p.kind == ProfKind::Kernel && p.corr != 0 {
                attrs.push(attr_int("ipm.corr", p.corr));
                corr_span.insert(p.corr, format!("{:016x}", spans.len() + 1));
            }
            spans.push(Span {
                name: p.method.clone(),
                kind: KIND_CONSUMER,
                start: ns(p.start, r.epoch),
                end: ns(p.start + p.gputime, r.epoch),
                attrs,
                link: None,
            });
        }
    } else {
        for t in r.records.iter().filter(|t| t.kind == TraceKind::KernelExec) {
            let mut attrs = vec![
                attr_int("ipm.stream", u64::from(t.stream.unwrap_or(0))),
                attr_int("ipm.region", u64::from(t.region)),
            ];
            if let Some(detail) = t.detail {
                attrs.push(attr_str("ipm.kernel", &names.name(detail)));
            }
            if t.corr != 0 {
                attrs.push(attr_int("ipm.corr", t.corr));
                corr_span.insert(t.corr, format!("{:016x}", spans.len() + 1));
            }
            summary_attrs(t, &mut attrs);
            spans.push(Span {
                name: names.name(t.name).to_string(),
                kind: KIND_CONSUMER,
                start: ns(t.begin, r.epoch),
                end: ns(t.end, r.epoch),
                attrs,
                link: None,
            });
        }
    }

    // Host spans: wrapped calls + host-idle intervals.
    for t in r.records.iter().filter(|t| t.kind != TraceKind::KernelExec) {
        let mut attrs = Vec::new();
        if t.bytes > 0 {
            attrs.push(attr_int("ipm.bytes", t.bytes));
        }
        attrs.push(attr_int("ipm.region", u64::from(t.region)));
        summary_attrs(t, &mut attrs);
        let link = if t.corr != 0 {
            corr_span
                .get(&t.corr)
                .map(|span_id| (trace_id.to_owned(), span_id.clone()))
        } else {
            None
        };
        if link.is_some() {
            attrs.push(attr_int("ipm.corr", t.corr));
        }
        spans.push(Span {
            name: names.name(t.name).to_string(),
            kind: KIND_INTERNAL,
            start: ns(t.begin, r.epoch),
            end: ns(t.end, r.epoch),
            attrs,
            link,
        });
    }

    spans
        .iter()
        .enumerate()
        .map(|(i, s)| s.render(trace_id, &format!("{:016x}", i + 1)))
        .collect()
}

/// Render the source as OTLP/JSON: `{"resourceSpans":[...]}`, one entry
/// per rank, one span per trace record, one line per span.
pub(crate) fn otlp_trace_json(src: &ExportSource) -> String {
    let mut out = String::from("{\"resourceSpans\":[\n");
    for (i, r) in src.ranks.iter().enumerate() {
        let trace_id = format!("{:032x}", r.rank as u128 + 1);
        let mut res_attrs = vec![
            attr_int("ipm.rank", r.rank as u64),
            attr_str("host.name", &r.host),
        ];
        if let Some(p) = &r.profile {
            if !p.command.is_empty() {
                res_attrs.push(attr_str("ipm.command", &p.command));
            }
        }
        let _ = write!(
            out,
            "{{\"resource\":{{\"attributes\":[{}]}},\"scopeSpans\":[{{\
             \"scope\":{{\"name\":\"ipm.trace\",\"version\":\"2.0\"}},\"spans\":[",
            res_attrs.join(",")
        );
        out.push('\n');
        let spans = rank_spans(r, &trace_id);
        for (j, s) in spans.iter().enumerate() {
            out.push_str(s);
            if j + 1 < spans.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}]}");
        if i + 1 < src.ranks.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

/// Structural facts about a validated OTLP document.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct OtlpStats {
    /// `resourceSpans` entries (ranks).
    pub resources: usize,
    /// Total spans across all scopes.
    pub spans: usize,
    /// Span links, all resolved.
    pub links: usize,
    /// Spans carrying a compaction aggregate (`count` attribute).
    pub summary_spans: usize,
}

fn attr_map(node: &Json) -> Result<HashMap<&str, &Json>, String> {
    let mut map = HashMap::new();
    if let Some(attrs) = node.get("attributes") {
        let attrs = attrs.as_arr().ok_or("attributes is not an array")?;
        for a in attrs {
            let key = a
                .get("key")
                .and_then(Json::as_str)
                .ok_or("attribute without key")?;
            let value = a.get("value").ok_or("attribute without value")?;
            map.insert(key, value);
        }
    }
    Ok(map)
}

fn span_time(span: &Json, field: &str, i: usize) -> Result<i64, String> {
    span.get(field)
        .and_then(Json::as_str)
        .ok_or(format!("span {i}: missing {field}"))?
        .parse::<i64>()
        .map_err(|_| format!("span {i}: {field} is not an integer nanosecond string"))
}

fn hex_id(span: &Json, field: &str, len: usize, i: usize) -> Result<String, String> {
    let id = span
        .get(field)
        .and_then(Json::as_str)
        .ok_or(format!("span {i}: missing {field}"))?;
    if id.len() != len || !id.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(format!("span {i}: {field} '{id}' is not {len} hex digits"));
    }
    if id.bytes().all(|b| b == b'0') {
        return Err(format!("span {i}: {field} is all-zero"));
    }
    Ok(id.to_owned())
}

/// Validate OTLP/JSON structurally: the document parses, `resourceSpans`
/// is present, every resource identifies its rank (`ipm.rank` int attr +
/// `host.name` string attr), every span carries well-formed ids
/// (non-zero 32/16 hex digits, `spanId` unique per trace), a name, and
/// integer nano timestamps with `start <= end`, summary spans carry the
/// full aggregate, and every span link resolves to an existing span.
pub fn validate_otlp(text: &str) -> Result<OtlpStats, String> {
    let doc = parse_json(text)?;
    let resources = doc
        .get("resourceSpans")
        .and_then(Json::as_arr)
        .ok_or("missing resourceSpans array")?;

    let mut stats = OtlpStats {
        resources: resources.len(),
        ..OtlpStats::default()
    };
    let mut ids: HashSet<(String, String)> = HashSet::new();
    let mut links: Vec<(String, String)> = Vec::new();

    for (ri, rs) in resources.iter().enumerate() {
        let resource = rs
            .get("resource")
            .ok_or(format!("resourceSpans {ri}: missing resource"))?;
        let rattrs = attr_map(resource)?;
        let rank = rattrs
            .get("ipm.rank")
            .and_then(|v| v.get("intValue"))
            .and_then(Json::as_str)
            .ok_or(format!(
                "resourceSpans {ri}: missing ipm.rank int attribute"
            ))?;
        rank.parse::<u64>()
            .map_err(|_| format!("resourceSpans {ri}: ipm.rank '{rank}' is not an integer"))?;
        rattrs
            .get("host.name")
            .and_then(|v| v.get("stringValue"))
            .and_then(Json::as_str)
            .ok_or(format!(
                "resourceSpans {ri}: missing host.name string attribute"
            ))?;

        let scopes = rs
            .get("scopeSpans")
            .and_then(Json::as_arr)
            .ok_or(format!("resourceSpans {ri}: missing scopeSpans array"))?;
        for scope in scopes {
            scope
                .get("scope")
                .and_then(|s| s.get("name"))
                .and_then(Json::as_str)
                .ok_or(format!("resourceSpans {ri}: scope without name"))?;
            let spans = scope
                .get("spans")
                .and_then(Json::as_arr)
                .ok_or(format!("resourceSpans {ri}: missing spans array"))?;
            for (i, span) in spans.iter().enumerate() {
                let trace_id = hex_id(span, "traceId", 32, i)?;
                let span_id = hex_id(span, "spanId", 16, i)?;
                if !ids.insert((trace_id.clone(), span_id.clone())) {
                    return Err(format!(
                        "span {i}: duplicate spanId {span_id} in trace {trace_id}"
                    ));
                }
                let name = span
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("span {i}: missing name"))?;
                if name.is_empty() {
                    return Err(format!("span {i}: empty name"));
                }
                let start = span_time(span, "startTimeUnixNano", i)?;
                let end = span_time(span, "endTimeUnixNano", i)?;
                if start > end {
                    return Err(format!("span {i} '{name}': start {start} after end {end}"));
                }
                let sattrs = attr_map(span)?;
                if sattrs.contains_key("count") {
                    for key in ["total_us", "min_us", "max_us"] {
                        if !sattrs.contains_key(key) {
                            return Err(format!(
                                "span {i} '{name}': summary span missing {key} attribute"
                            ));
                        }
                    }
                    stats.summary_spans += 1;
                }
                if let Some(span_links) = span.get("links") {
                    let span_links = span_links
                        .as_arr()
                        .ok_or(format!("span {i}: links is not an array"))?;
                    for l in span_links {
                        let lt = l
                            .get("traceId")
                            .and_then(Json::as_str)
                            .ok_or(format!("span {i}: link without traceId"))?;
                        let ls = l
                            .get("spanId")
                            .and_then(Json::as_str)
                            .ok_or(format!("span {i}: link without spanId"))?;
                        links.push((lt.to_owned(), ls.to_owned()));
                    }
                }
                stats.spans += 1;
            }
        }
    }

    for (lt, ls) in &links {
        if !ids.contains(&(lt.clone(), ls.clone())) {
            return Err(format!("link to {lt}/{ls} does not resolve to any span"));
        }
    }
    stats.links = links.len();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::TraceAgg;
    use crate::export::{Export, Otlp};
    use crate::trace::TraceRank;
    use ipm_interpose::CallHandle;

    fn rec(kind: TraceKind, name: &str, begin: f64, end: f64, corr: u64) -> TraceRecord {
        TraceRecord {
            kind,
            name: CallHandle::of(name).id,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: if kind == TraceKind::KernelExec {
                Some(0)
            } else {
                None
            },
            corr,
            agg: None,
        }
    }

    fn export(rank: TraceRank) -> String {
        Export::new().with_trace_rank(rank).to(Otlp).unwrap()
    }

    #[test]
    fn launch_and_kernel_produce_a_resolved_link() {
        let rank = TraceRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records: vec![
                rec(TraceKind::Call, "cudaLaunch", 1.0, 1.1, 42),
                rec(TraceKind::KernelExec, "@CUDA_EXEC_STRM00", 1.2, 2.0, 42),
            ],
            prof: Vec::new(),
        };
        let json = export(rank);
        let stats = validate_otlp(&json).expect("valid OTLP");
        assert_eq!(stats.resources, 1);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.links, 1);
    }

    #[test]
    fn pre_epoch_records_get_negative_nanos_and_still_validate() {
        let rank = TraceRank {
            rank: 0,
            host: String::new(),
            epoch: 10.0,
            records: vec![rec(TraceKind::Call, "cudaMalloc", 9.5, 9.75, 0)],
            prof: Vec::new(),
        };
        let json = export(rank);
        validate_otlp(&json).expect("valid OTLP");
        assert!(
            json.contains("\"startTimeUnixNano\":\"-500000000\""),
            "{json}"
        );
    }

    #[test]
    fn summary_spans_carry_the_full_aggregate() {
        let mut r = rec(TraceKind::Call, "cudaLaunch", 1.0, 3.0, 0);
        r.agg = Some(TraceAgg {
            count: 9,
            total: 1.5,
            min: 0.1,
            max: 0.3,
            exemplar: (1.2, 1.5),
        });
        let rank = TraceRank {
            rank: 2,
            host: "dirac02".to_owned(),
            epoch: 0.0,
            records: vec![r],
            prof: Vec::new(),
        };
        let json = export(rank);
        let stats = validate_otlp(&json).expect("valid OTLP");
        assert_eq!(stats.summary_spans, 1);
        assert!(json.contains("\"intValue\":\"9\""), "{json}");
    }

    #[test]
    fn names_with_escapes_survive() {
        let rank = TraceRank {
            rank: 0,
            host: "h\"x\\y".to_owned(),
            epoch: 0.0,
            records: vec![rec(TraceKind::Call, "weird\"\\\nname", 0.0, 1.0, 0)],
            prof: Vec::new(),
        };
        let json = export(rank);
        validate_otlp(&json).expect("valid OTLP");
    }

    #[test]
    fn validator_rejects_malformed_documents() {
        assert!(validate_otlp("not json").is_err());
        assert!(validate_otlp("{}").unwrap_err().contains("resourceSpans"));
        // dangling link
        let bad = r#"{"resourceSpans":[{"resource":{"attributes":[
            {"key":"ipm.rank","value":{"intValue":"0"}},
            {"key":"host.name","value":{"stringValue":"h"}}]},
            "scopeSpans":[{"scope":{"name":"ipm.trace"},"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "name":"x","kind":1,"startTimeUnixNano":"0","endTimeUnixNano":"1",
             "links":[{"traceId":"00000000000000000000000000000001","spanId":"00000000000000ff"}]}
            ]}]}]}"#;
        assert!(validate_otlp(bad).unwrap_err().contains("does not resolve"));
        // start after end
        let bad = r#"{"resourceSpans":[{"resource":{"attributes":[
            {"key":"ipm.rank","value":{"intValue":"0"}},
            {"key":"host.name","value":{"stringValue":"h"}}]},
            "scopeSpans":[{"scope":{"name":"ipm.trace"},"spans":[
            {"traceId":"00000000000000000000000000000001","spanId":"0000000000000001",
             "name":"x","kind":1,"startTimeUnixNano":"5","endTimeUnixNano":"1"}
            ]}]}]}"#;
        assert!(validate_otlp(bad).unwrap_err().contains("after end"));
    }
}
