//! The XML profiling log.
//!
//! Besides the banner, IPM "writes a more detailed profiling log in XML
//! format which includes the full details of the hash table" (paper §II).
//! This module owns that format: a small, self-contained dialect — writer
//! and parser — that round-trips a [`RankProfile`] exactly. The parser is
//! what `ipm_parse` (see [`crate::parse`]) consumes.
//!
//! ```xml
//! <ipm version="2.0">
//!   <task rank="0" nranks="16" host="dirac18" wallclock="45.78">
//!     <command>pmemd.cuda.MPI</command>
//!     <regions><region id="0">&lt;program&gt;</region></regions>
//!     <hash>
//!       <entry name="cudaLaunch" bytes="0" region="0"
//!              count="1927994" total="9.48" min="..." max="..."/>
//!     </hash>
//!   </task>
//! </ipm>
//! ```

use crate::compact::TraceAgg;
use crate::profile::{MonitorInfo, ProfileEntry, RankProfile};
use crate::trace::{TraceKind, TraceRecord};
use ipm_interpose::{CallHandle, NameTable};
use ipm_sim_core::RunningStats;
use std::fmt::Write as _;

/// XML parsing failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum XmlError {
    /// Expected element or attribute missing.
    Missing(&'static str),
    /// A numeric attribute failed to parse.
    BadNumber(String),
    /// Structurally malformed input.
    Malformed(String),
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            XmlError::Missing(what) => write!(f, "missing {what}"),
            XmlError::BadNumber(s) => write!(f, "bad number: {s}"),
            XmlError::Malformed(s) => write!(f, "malformed XML: {s}"),
        }
    }
}

impl std::error::Error for XmlError {}

fn escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

fn unescape(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&gt;", ">")
        .replace("&lt;", "<")
        .replace("&amp;", "&")
}

/// Serialize one rank's profile to the IPM XML dialect (no trace section;
/// use `Export::…​.to(Xml)` to embed one).
pub fn to_xml(p: &RankProfile) -> String {
    to_xml_with_trace_at(p, &[], 0.0)
}

/// Serialize a profile plus its event trace: the trace's records are
/// embedded as `<event/>` lines in a `<trace>` section (with the rank's
/// clock-alignment epoch on the `<trace>` element, so multi-rank exports
/// line up their lanes), and a single XML log carries everything
/// `ipm_parse trace` needs. This is the one real XML writer; the `Xml`
/// backend of [`crate::export`] renders through it.
pub(crate) fn to_xml_with_trace_at(p: &RankProfile, trace: &[TraceRecord], epoch: f64) -> String {
    let mut out = String::new();
    out.push_str("<ipm version=\"2.0\">\n");
    let _ = writeln!(
        out,
        "  <task rank=\"{}\" nranks=\"{}\" host=\"{}\" wallclock=\"{}\" dropped=\"{}\">",
        p.rank,
        p.nranks,
        escape(&p.host),
        p.wallclock,
        p.dropped_events,
    );
    let _ = writeln!(out, "    <command>{}</command>", escape(&p.command));
    let m = &p.monitor;
    let _ = writeln!(
        out,
        "    <monitor self_wall_ns=\"{}\" emitted=\"{}\" captured=\"{}\" dropped=\"{}\" compacted=\"{}\" ring_hwm_bytes=\"{}\"/>",
        m.self_wall_ns, m.trace_emitted, m.trace_captured, m.trace_dropped, m.trace_compacted, m.ring_hwm_bytes,
    );
    out.push_str("    <regions>\n");
    for (i, r) in p.regions.iter().enumerate() {
        let _ = writeln!(out, "      <region id=\"{}\">{}</region>", i, escape(r));
    }
    out.push_str("    </regions>\n");
    if !trace.is_empty() {
        if epoch != 0.0 {
            let _ = writeln!(out, "    <trace epoch=\"{epoch}\">");
        } else {
            out.push_str("    <trace>\n");
        }
        let names = NameTable::global();
        for t in trace {
            let detail = t
                .detail
                .map(|d| format!(" detail=\"{}\"", escape(&names.name(d))))
                .unwrap_or_default();
            let stream = t
                .stream
                .map(|s| format!(" stream=\"{s}\""))
                .unwrap_or_default();
            let agg = t
                .agg
                .map(|a| {
                    format!(
                        " count=\"{}\" total=\"{}\" min=\"{}\" max=\"{}\" ex_begin=\"{}\" ex_end=\"{}\"",
                        a.count, a.total, a.min, a.max, a.exemplar.0, a.exemplar.1
                    )
                })
                .unwrap_or_default();
            let _ = writeln!(
                out,
                "      <event kind=\"{}\" name=\"{}\"{} begin=\"{}\" end=\"{}\" bytes=\"{}\" region=\"{}\"{} corr=\"{}\"{}/>",
                t.kind.tag(),
                escape(&names.name(t.name)),
                detail,
                t.begin,
                t.end,
                t.bytes,
                t.region,
                stream,
                t.corr,
                agg,
            );
        }
        out.push_str("    </trace>\n");
    }
    out.push_str("    <hash>\n");
    for e in &p.entries {
        let detail = e
            .detail
            .as_ref()
            .map(|d| format!(" detail=\"{}\"", escape(d)))
            .unwrap_or_default();
        let _ = writeln!(
            out,
            "      <entry name=\"{}\"{} bytes=\"{}\" region=\"{}\" count=\"{}\" total=\"{}\" min=\"{}\" max=\"{}\"/>",
            escape(&e.name),
            detail,
            e.bytes,
            e.region,
            e.stats.count,
            e.stats.total,
            e.stats.min,
            e.stats.max,
        );
    }
    out.push_str("    </hash>\n  </task>\n</ipm>\n");
    out
}

/// Pull the value of `attr` out of a tag body like `rank="0" host="x"`.
fn attr(tag: &str, name: &str) -> Option<String> {
    let pat = format!("{name}=\"");
    let start = tag.find(&pat)? + pat.len();
    let end = tag[start..].find('"')? + start;
    Some(unescape(&tag[start..end]))
}

fn num_attr<T: std::str::FromStr>(tag: &str, name: &'static str) -> Result<T, XmlError> {
    let raw = attr(tag, name).ok_or(XmlError::Missing(name))?;
    raw.parse().map_err(|_| XmlError::BadNumber(raw))
}

/// Numeric attribute that may legitimately be absent (fields added after
/// logs in the wild were written): absent parses as `default`, present but
/// unparseable is still an error.
fn opt_num_attr<T: std::str::FromStr>(
    tag: &str,
    name: &'static str,
    default: T,
) -> Result<T, XmlError> {
    match attr(tag, name) {
        Some(raw) => raw.parse().map_err(|_| XmlError::BadNumber(raw)),
        None => Ok(default),
    }
}

/// Parse a profile back out of the XML dialect produced by [`to_xml`].
pub fn from_xml(xml: &str) -> Result<RankProfile, XmlError> {
    let task_tag = xml
        .lines()
        .find(|l| l.trim_start().starts_with("<task "))
        .ok_or(XmlError::Missing("<task>"))?;
    let rank: usize = num_attr(task_tag, "rank")?;
    let nranks: usize = num_attr(task_tag, "nranks")?;
    let wallclock: f64 = num_attr(task_tag, "wallclock")?;
    let dropped_events: u64 = num_attr(task_tag, "dropped")?;
    let host = attr(task_tag, "host").ok_or(XmlError::Missing("host"))?;

    let command = {
        let line = xml
            .lines()
            .find(|l| l.trim_start().starts_with("<command>"))
            .ok_or(XmlError::Missing("<command>"))?;
        let inner = line
            .trim()
            .strip_prefix("<command>")
            .and_then(|s| s.strip_suffix("</command>"))
            .ok_or_else(|| XmlError::Malformed(line.to_owned()))?;
        unescape(inner)
    };

    // default-if-missing keeps logs from older monitors parseable
    let monitor = match xml
        .lines()
        .map(str::trim)
        .find(|l| l.starts_with("<monitor "))
    {
        Some(line) => MonitorInfo {
            self_wall_ns: num_attr(line, "self_wall_ns")?,
            trace_emitted: num_attr(line, "emitted")?,
            trace_captured: num_attr(line, "captured")?,
            trace_dropped: num_attr(line, "dropped")?,
            // absent in pre-compaction logs
            trace_compacted: opt_num_attr(line, "compacted", 0)?,
            ring_hwm_bytes: num_attr(line, "ring_hwm_bytes")?,
        },
        None => MonitorInfo::default(),
    };

    let mut regions = Vec::new();
    let mut entries = Vec::new();
    for line in xml.lines().map(str::trim) {
        if line.starts_with("<region ") {
            let inner = line
                .split_once('>')
                .and_then(|(_, rest)| rest.strip_suffix("</region>"))
                .ok_or_else(|| XmlError::Malformed(line.to_owned()))?;
            regions.push(unescape(inner));
        } else if line.starts_with("<entry ") {
            let stats = RunningStats {
                count: num_attr(line, "count")?,
                total: num_attr(line, "total")?,
                min: num_attr(line, "min")?,
                max: num_attr(line, "max")?,
            };
            entries.push(ProfileEntry {
                name: attr(line, "name").ok_or(XmlError::Missing("name"))?,
                detail: attr(line, "detail"),
                bytes: num_attr(line, "bytes")?,
                region: num_attr(line, "region")?,
                stats,
            });
        }
    }
    if regions.is_empty() {
        return Err(XmlError::Missing("<regions>"));
    }
    Ok(RankProfile {
        rank,
        nranks,
        host,
        command,
        wallclock,
        regions,
        entries,
        dropped_events,
        monitor,
    })
}

/// Parse the `<trace>` section back out of a log written by
/// [`to_xml_with_trace_at`], interning every name and kernel symbol read
/// (a trace record carries [`ipm_interpose::CallId`]s, never strings).
/// Logs without a trace yield an empty vector.
pub fn trace_from_xml(xml: &str) -> Result<Vec<TraceRecord>, XmlError> {
    let mut out = Vec::new();
    for line in xml.lines().map(str::trim) {
        if !line.starts_with("<event ") {
            continue;
        }
        let kind_raw = attr(line, "kind").ok_or(XmlError::Missing("kind"))?;
        let kind = kind_raw
            .chars()
            .next()
            .and_then(TraceKind::from_tag)
            .ok_or_else(|| XmlError::Malformed(format!("unknown event kind '{kind_raw}'")))?;
        out.push(TraceRecord {
            kind,
            name: CallHandle::of(&attr(line, "name").ok_or(XmlError::Missing("name"))?).id,
            detail: attr(line, "detail").map(|d| CallHandle::of(&d).id),
            begin: num_attr(line, "begin")?,
            end: num_attr(line, "end")?,
            bytes: num_attr(line, "bytes")?,
            region: num_attr(line, "region")?,
            stream: match attr(line, "stream") {
                Some(raw) => Some(raw.parse().map_err(|_| XmlError::BadNumber(raw))?),
                None => None,
            },
            corr: num_attr(line, "corr")?,
            // summary records carry the aggregate attributes, keyed on
            // `count`; raw records (and pre-compaction logs) omit them
            agg: match attr(line, "count") {
                Some(_) => Some(TraceAgg {
                    count: num_attr(line, "count")?,
                    total: num_attr(line, "total")?,
                    min: num_attr(line, "min")?,
                    max: num_attr(line, "max")?,
                    exemplar: (num_attr(line, "ex_begin")?, num_attr(line, "ex_end")?),
                }),
                None => None,
            },
        });
    }
    Ok(out)
}

/// The clock-alignment epoch recorded on a log's `<trace>` element, or 0
/// for logs without one (traceless, pre-epoch, or single-rank exports).
pub fn trace_epoch_from_xml(xml: &str) -> Result<f64, XmlError> {
    match xml
        .lines()
        .map(str::trim)
        .find(|l| *l == "<trace>" || l.starts_with("<trace "))
    {
        Some(line) => opt_num_attr(line, "epoch", 0.0),
        None => Ok(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RankProfile {
        let mut stats = RunningStats::new();
        stats.record(1.5);
        stats.record(0.5);
        RankProfile {
            rank: 3,
            nranks: 16,
            host: "dirac18".to_owned(),
            command: "pmemd.cuda.MPI -O -i mdin".to_owned(),
            wallclock: 45.78,
            regions: vec!["<program>".to_owned(), "pme".to_owned()],
            entries: vec![
                ProfileEntry {
                    name: "cudaMemcpy(D2H)".to_owned(),
                    detail: None,
                    bytes: 800_000,
                    region: 1,
                    stats,
                },
                ProfileEntry {
                    name: "@CUDA_EXEC_STRM00".to_owned(),
                    detail: Some("CalculatePMEOrthogonalNonbondForces".to_owned()),
                    bytes: 0,
                    region: 0,
                    stats,
                },
            ],
            dropped_events: 7,
            monitor: MonitorInfo {
                self_wall_ns: 12_345,
                trace_emitted: 100,
                trace_captured: 90,
                trace_dropped: 2,
                trace_compacted: 8,
                ring_hwm_bytes: 4096,
            },
        }
    }

    #[test]
    fn roundtrip_is_exact() {
        let p = sample();
        let xml = to_xml(&p);
        let back = from_xml(&xml).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn xml_contains_full_hash_details() {
        let xml = to_xml(&sample());
        assert!(xml.contains("name=\"cudaMemcpy(D2H)\""));
        assert!(xml.contains("bytes=\"800000\""));
        assert!(xml.contains("detail=\"CalculatePMEOrthogonalNonbondForces\""));
        assert!(xml.contains("count=\"2\""));
    }

    #[test]
    fn special_characters_are_escaped() {
        let mut p = sample();
        p.command = "./app <input> & \"stuff\"".to_owned();
        let xml = to_xml(&p);
        assert!(!xml.contains("<input>"));
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.command, "./app <input> & \"stuff\"");
        assert_eq!(back.regions[0], "<program>");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert_eq!(from_xml("").unwrap_err(), XmlError::Missing("<task>"));
        let bad = "<task rank=\"x\" nranks=\"1\" host=\"h\" wallclock=\"1\" dropped=\"0\">";
        assert!(matches!(from_xml(bad).unwrap_err(), XmlError::BadNumber(_)));
    }

    #[test]
    fn monitor_self_accounting_roundtrips() {
        let p = sample();
        let xml = to_xml(&p);
        assert!(xml.contains("<monitor self_wall_ns=\"12345\""));
        assert!(xml.contains("captured=\"90\" dropped=\"2\" compacted=\"8\""));
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.monitor, p.monitor);
    }

    #[test]
    fn pre_compaction_monitor_element_defaults_compacted() {
        let xml = to_xml(&sample()).replace(" compacted=\"8\"", "");
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.monitor.trace_compacted, 0);
        assert_eq!(back.monitor.trace_captured, 90, "other fields untouched");
    }

    #[test]
    fn logs_without_monitor_element_default_it() {
        let xml: String = to_xml(&sample())
            .lines()
            .filter(|l| !l.contains("<monitor"))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.monitor, MonitorInfo::default());
    }

    #[test]
    fn trace_section_roundtrips() {
        let trace = vec![
            TraceRecord {
                kind: TraceKind::Call,
                name: CallHandle::of("cudaLaunch").id,
                detail: None,
                begin: 1.0,
                end: 1.25,
                bytes: 0,
                region: 1,
                stream: None,
                corr: 9,
                agg: None,
            },
            TraceRecord {
                kind: TraceKind::KernelExec,
                name: CallHandle::of("@CUDA_EXEC_STRM02").id,
                detail: Some(CallHandle::of("square<T>").id),
                begin: 1.25,
                end: 2.5,
                bytes: 0,
                region: 0,
                stream: Some(2),
                corr: 9,
                agg: None,
            },
        ];
        let xml = to_xml_with_trace_at(&sample(), &trace, 0.0);
        let back = trace_from_xml(&xml).unwrap();
        assert_eq!(back, trace);
        // and the profile parse still works with the trace embedded
        assert_eq!(from_xml(&xml).unwrap(), sample());
        // a traceless log parses to an empty trace
        assert_eq!(trace_from_xml(&to_xml(&sample())).unwrap(), Vec::new());
    }

    #[test]
    fn summary_records_and_epoch_roundtrip() {
        let trace = vec![TraceRecord {
            kind: TraceKind::Call,
            name: CallHandle::of("cudaLaunch").id,
            detail: None,
            begin: 1.0,
            end: 4.75,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: Some(TraceAgg {
                count: 123,
                total: 2.5,
                min: 0.001953125,
                max: 0.125,
                exemplar: (2.0, 2.125),
            }),
        }];
        let xml = to_xml_with_trace_at(&sample(), &trace, 0.5);
        assert!(xml.contains("<trace epoch=\"0.5\">"));
        assert!(xml.contains("count=\"123\""));
        assert_eq!(trace_from_xml(&xml).unwrap(), trace);
        assert_eq!(trace_epoch_from_xml(&xml).unwrap(), 0.5);
        // epoch 0 writes the bare element, which parses back to 0
        let xml0 = to_xml_with_trace_at(&sample(), &trace, 0.0);
        assert!(xml0.contains("<trace>"));
        assert_eq!(trace_epoch_from_xml(&xml0).unwrap(), 0.0);
        // traceless logs have epoch 0 too
        assert_eq!(trace_epoch_from_xml(&to_xml(&sample())).unwrap(), 0.0);
    }

    #[test]
    fn parser_survives_reordered_attributes() {
        let xml = to_xml(&sample()).replace("rank=\"3\" nranks=\"16\"", "nranks=\"16\" rank=\"3\"");
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.rank, 3);
        assert_eq!(back.nranks, 16);
    }
}
