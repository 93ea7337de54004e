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
use ipm_interpose::{CallHandle, CallId, NameTable};
use ipm_sim_core::RunningStats;
use std::borrow::Cow;
use std::collections::HashMap;
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

const ENTITIES: [(&str, char); 4] = [
    ("&amp;", '&'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&quot;", '"'),
];

/// Displays its text with the markup characters escaped; runs of text
/// without any are written in one piece.
struct Esc<'a>(&'a str);

impl std::fmt::Display for Esc<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut rest = self.0;
        while let Some(i) = rest.find(['&', '<', '>', '"']) {
            let (entity, _) = ENTITIES
                .iter()
                .find(|(_, c)| rest[i..].starts_with(*c))
                .expect("find stops at a markup character");
            write!(f, "{}{entity}", &rest[..i])?;
            rest = &rest[i + 1..];
        }
        f.write_str(rest)
    }
}

/// Undo [`Esc`] in one pass, allocating only when `s` holds an `&`. An
/// `&` that starts no known entity is kept as is.
fn unescape(s: &str) -> Cow<'_, str> {
    if !s.contains('&') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let (entity, c) = ENTITIES
            .iter()
            .find(|(e, _)| rest.starts_with(e))
            .unwrap_or(&("&", '&'));
        out.push(*c);
        rest = &rest[entity.len()..];
    }
    out.push_str(rest);
    Cow::Owned(out)
}

/// Serialize one rank's profile to the IPM XML dialect (no trace section;
/// use `Export::…​.to(Xml)` to embed one).
pub fn to_xml(p: &RankProfile) -> String {
    let mut out = String::new();
    write_xml(&mut out, p, &[], 0.0);
    out
}

/// Append a profile plus its event trace to `out`: the trace's records are
/// embedded as `<event/>` lines in a `<trace>` section (with the rank's
/// clock-alignment epoch on the `<trace>` element, so multi-rank exports
/// line up their lanes), and a single XML log carries everything
/// `ipm_parse trace` needs. This is the one real XML writer; the `Xml`
/// backend of [`crate::export`] renders every rank through it into one
/// buffer.
pub(crate) fn write_xml(out: &mut String, p: &RankProfile, trace: &[TraceRecord], epoch: f64) {
    let m = &p.monitor;
    let _ = write!(
        out,
        "<ipm version=\"2.0\">\n  <task rank=\"{}\" nranks=\"{}\" host=\"{}\" wallclock=\"{}\" dropped=\"{}\">\n    <command>{}</command>\n",
        p.rank, p.nranks, Esc(&p.host), p.wallclock, p.dropped_events, Esc(&p.command),
    );
    let _ = writeln!(
        out,
        "    <monitor self_wall_ns=\"{}\" emitted=\"{}\" captured=\"{}\" dropped=\"{}\" compacted=\"{}\" ring_hwm_bytes=\"{}\"/>\n    <regions>",
        m.self_wall_ns, m.trace_emitted, m.trace_captured, m.trace_dropped, m.trace_compacted, m.ring_hwm_bytes,
    );
    for (i, r) in p.regions.iter().enumerate() {
        let _ = writeln!(out, "      <region id=\"{i}\">{}</region>", Esc(r));
    }
    out.push_str("    </regions>\n");
    if !trace.is_empty() {
        if epoch != 0.0 {
            let _ = writeln!(out, "    <trace epoch=\"{epoch}\">");
        } else {
            out.push_str("    <trace>\n");
        }
        let names = NameTable::global().snapshot();
        for t in trace {
            let name = Esc(names.get(t.name));
            let _ = write!(
                out,
                "      <event kind=\"{}\" name=\"{name}\"",
                t.kind.tag()
            );
            if let Some(d) = t.detail {
                let _ = write!(out, " detail=\"{}\"", Esc(names.get(d)));
            }
            let _ = write!(
                out,
                " begin=\"{}\" end=\"{}\" bytes=\"{}\" region=\"{}\"",
                t.begin, t.end, t.bytes, t.region
            );
            if let Some(s) = t.stream {
                let _ = write!(out, " stream=\"{s}\"");
            }
            let _ = write!(out, " corr=\"{}\"", t.corr);
            if let Some(a) = t.agg {
                let _ = write!(out, " count=\"{}\" total=\"{}\" min=\"{}\" max=\"{}\" ex_begin=\"{}\" ex_end=\"{}\"", a.count, a.total, a.min, a.max, a.exemplar.0, a.exemplar.1);
            }
            out.push_str("/>\n");
        }
        out.push_str("    </trace>\n");
    }
    out.push_str("    <hash>\n");
    for e in &p.entries {
        let _ = write!(out, "      <entry name=\"{}\"", Esc(&e.name));
        if let Some(d) = &e.detail {
            let _ = write!(out, " detail=\"{}\"", Esc(d));
        }
        let s = &e.stats;
        let _ = writeln!(
            out,
            " bytes=\"{}\" region=\"{}\" count=\"{}\" total=\"{}\" min=\"{}\" max=\"{}\"/>",
            e.bytes, e.region, s.count, s.total, s.min, s.max
        );
    }
    out.push_str("    </hash>\n  </task>\n</ipm>\n");
}

/// One tag's attributes (`tag` is the text after the element name),
/// split into `key="value"` pairs in one pass. Values stay escaped. The
/// list ends at the first `>` or `/` between pairs.
struct Tag<'a> {
    pairs: [(&'a str, &'a str); Tag::MAX],
    len: usize,
}

impl<'a> Tag<'a> {
    /// More attributes than any element of the dialect carries.
    const MAX: usize = 16;

    fn parse(tag: &'a str) -> Result<Self, XmlError> {
        let mut t = Tag {
            pairs: [("", ""); Tag::MAX],
            len: 0,
        };
        let malformed = || XmlError::Malformed(tag.to_owned());
        let mut rest = tag.trim_start();
        while !rest.is_empty() && !rest.starts_with(['>', '/']) {
            let (key, tail) = rest.split_once('=').ok_or_else(malformed)?;
            let quoted = tail.strip_prefix('"').and_then(|t| t.split_once('"'));
            let (value, tail) = quoted.ok_or_else(malformed)?;
            *t.pairs.get_mut(t.len).ok_or_else(malformed)? = (key, value);
            t.len += 1;
            rest = tail.trim_start();
        }
        Ok(t)
    }

    /// The value of `key`: keys match whole, and the first occurrence wins.
    fn get(&self, key: &str) -> Option<&'a str> {
        self.pairs[..self.len]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
    }

    /// A numeric attribute; missing or unparseable is an error.
    fn num<T: std::str::FromStr>(&self, key: &'static str) -> Result<T, XmlError> {
        let raw = self.get(key).ok_or(XmlError::Missing(key))?;
        raw.parse()
            .map_err(|_| XmlError::BadNumber(unescape(raw).into_owned()))
    }

    /// A numeric attribute that may legitimately be absent (added after
    /// logs in the wild were written): absent is `default`.
    fn num_or<T: std::str::FromStr>(&self, key: &'static str, default: T) -> Result<T, XmlError> {
        self.get(key).map_or(Ok(default), |_| self.num(key))
    }

    /// A string attribute, unescaped.
    fn text(&self, key: &'static str) -> Result<String, XmlError> {
        Ok(unescape(self.get(key).ok_or(XmlError::Missing(key))?).into_owned())
    }
}

/// What one scan of a log yields. The parts fail independently: a bad
/// `<event>` leaves the profile readable, and a log without a `<task>`
/// still yields its trace.
pub(crate) struct Log {
    pub profile: Result<RankProfile, XmlError>,
    pub trace: Result<Vec<TraceRecord>, XmlError>,
    pub epoch: Result<f64, XmlError>,
}

/// Read a log written by [`write_xml`] in one pass over its lines, keeping
/// the first `<task>`, `<command>`, `<monitor>` and `<trace>` line. The
/// `<event>` lines are parsed only when `with_trace` is set; their names
/// and kernel symbols are interned through a per-log cache keyed by the
/// raw attribute text, so each distinct name reaches the global interner
/// once.
pub(crate) fn read_log(xml: &str, with_trace: bool) -> Log {
    let (mut task, mut command, mut monitor, mut trace_tag) = (None, None, None, None);
    let (mut body, mut events) = (Vec::new(), Vec::new());
    for line in xml.lines().map(str::trim) {
        if let Some(tag) = line.strip_prefix("<event ") {
            if with_trace {
                events.push(tag);
            }
        } else if line.starts_with("<entry ") || line.starts_with("<region ") {
            body.push(line);
        } else if let Some(tag) = line.strip_prefix("<task ") {
            task.get_or_insert(tag);
        } else if line.starts_with("<command>") {
            command.get_or_insert(line);
        } else if let Some(tag) = line.strip_prefix("<monitor ") {
            monitor.get_or_insert(tag);
        } else if line == "<trace>" || line.starts_with("<trace ") {
            trace_tag.get_or_insert(&line["<trace".len()..]);
        }
    }
    let mut ids = HashMap::new();
    Log {
        profile: profile(task, command, monitor, &body),
        trace: events.iter().map(|tag| event(tag, &mut ids)).collect(),
        // absent in pre-epoch logs
        epoch: trace_tag.map_or(Ok(0.0), |tag| Tag::parse(tag)?.num_or("epoch", 0.0)),
    }
}

fn profile(
    task: Option<&str>,
    command: Option<&str>,
    monitor: Option<&str>,
    body: &[&str],
) -> Result<RankProfile, XmlError> {
    let task = Tag::parse(task.ok_or(XmlError::Missing("<task>"))?)?;
    let malformed = |line: &str| XmlError::Malformed(line.to_owned());
    // fields are read in the order their errors take precedence
    let mut p = RankProfile {
        rank: task.num("rank")?,
        nranks: task.num("nranks")?,
        wallclock: task.num("wallclock")?,
        dropped_events: task.num("dropped")?,
        host: task.text("host")?,
        command: match command {
            Some(line) => line["<command>".len()..]
                .strip_suffix("</command>")
                .map(|inner| unescape(inner).into_owned())
                .ok_or_else(|| malformed(line))?,
            None => return Err(XmlError::Missing("<command>")),
        },
        // default-if-missing keeps logs from older monitors parseable
        monitor: monitor.map_or(Ok(MonitorInfo::default()), monitor_info)?,
        regions: Vec::new(),
        entries: Vec::new(),
    };
    for line in body {
        match line.strip_prefix("<entry ") {
            Some(tag) => p.entries.push(entry(tag)?),
            None => {
                let inner = line
                    .split_once('>')
                    .and_then(|(_, rest)| rest.strip_suffix("</region>"));
                p.regions
                    .push(unescape(inner.ok_or_else(|| malformed(line))?).into_owned());
            }
        }
    }
    if p.regions.is_empty() {
        return Err(XmlError::Missing("<regions>"));
    }
    Ok(p)
}

fn monitor_info(tag: &str) -> Result<MonitorInfo, XmlError> {
    let t = Tag::parse(tag)?;
    Ok(MonitorInfo {
        self_wall_ns: t.num("self_wall_ns")?,
        trace_emitted: t.num("emitted")?,
        trace_captured: t.num("captured")?,
        trace_dropped: t.num("dropped")?,
        // absent in pre-compaction logs
        trace_compacted: t.num_or("compacted", 0)?,
        ring_hwm_bytes: t.num("ring_hwm_bytes")?,
    })
}

fn entry(tag: &str) -> Result<ProfileEntry, XmlError> {
    let t = Tag::parse(tag)?;
    let stats = RunningStats {
        count: t.num("count")?,
        total: t.num("total")?,
        min: t.num("min")?,
        max: t.num("max")?,
    };
    Ok(ProfileEntry {
        name: t.text("name")?,
        detail: t.get("detail").map(|d| unescape(d).into_owned()),
        bytes: t.num("bytes")?,
        region: t.num("region")?,
        stats,
    })
}

fn event<'a>(tag: &'a str, ids: &mut HashMap<&'a str, CallId>) -> Result<TraceRecord, XmlError> {
    let t = Tag::parse(tag)?;
    let kind = t.get("kind").ok_or(XmlError::Missing("kind"))?;
    let unknown = || XmlError::Malformed(format!("unknown event kind '{}'", unescape(kind)));
    let kind = kind
        .chars()
        .next()
        .and_then(TraceKind::from_tag)
        .ok_or_else(unknown)?;
    let mut intern = |raw| {
        *ids.entry(raw)
            .or_insert_with(|| CallHandle::of(&unescape(raw)).id)
    };
    Ok(TraceRecord {
        kind,
        name: intern(t.get("name").ok_or(XmlError::Missing("name"))?),
        detail: t.get("detail").map(&mut intern),
        begin: t.num("begin")?,
        end: t.num("end")?,
        bytes: t.num("bytes")?,
        region: t.num("region")?,
        stream: t.get("stream").map(|_| t.num("stream")).transpose()?,
        corr: t.num("corr")?,
        // summary records carry the aggregate attributes, keyed on
        // `count`; raw records (and pre-compaction logs) omit them
        agg: match t.get("count") {
            Some(_) => Some(TraceAgg {
                count: t.num("count")?,
                total: t.num("total")?,
                min: t.num("min")?,
                max: t.num("max")?,
                exemplar: (t.num("ex_begin")?, t.num("ex_end")?),
            }),
            None => None,
        },
    })
}

/// Parse a profile back out of the XML dialect produced by [`to_xml`].
pub fn from_xml(xml: &str) -> Result<RankProfile, XmlError> {
    read_log(xml, false).profile
}

/// Parse the `<trace>` section back out of a log written by the `Xml`
/// backend, interning every name and kernel symbol read (a trace record
/// carries [`ipm_interpose::CallId`]s, never strings). Logs without a
/// trace yield an empty vector.
pub fn trace_from_xml(xml: &str) -> Result<Vec<TraceRecord>, XmlError> {
    read_log(xml, true).trace
}

/// The clock-alignment epoch recorded on a log's `<trace>` element, or 0
/// for logs without one (traceless, pre-epoch, or single-rank exports).
pub fn trace_epoch_from_xml(xml: &str) -> Result<f64, XmlError> {
    read_log(xml, false).epoch
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

    fn with_trace(trace: &[TraceRecord], epoch: f64) -> String {
        let mut out = String::new();
        write_xml(&mut out, &sample(), trace, epoch);
        out
    }

    #[test]
    fn unescape_matches_the_replace_chain() {
        // the four-`replace` chain the single-pass decoder replaced
        let chain = |s: &str| {
            s.replace("&quot;", "\"")
                .replace("&gt;", ">")
                .replace("&lt;", "<")
                .replace("&amp;", "&")
        };
        for s in [
            "&amp;lt;",
            "&&lt;",
            "&amp;quot;",
            "&amp;amp;",
            "a &lt;b&gt; &quot;c&quot; & d;",
            "&",
            "&am",
            "plain",
            "",
        ] {
            assert_eq!(unescape(s), chain(s), "{s}");
        }
        assert!(matches!(unescape("plain"), Cow::Borrowed(_)));
        let escaped = Esc("<a & \"b\">").to_string();
        assert_eq!(escaped, "&lt;a &amp; &quot;b&quot;&gt;");
        assert_eq!(unescape(&escaped), "<a & \"b\">");
    }

    #[test]
    fn attribute_keys_match_whole() {
        let t = Tag::parse(r#"ex_end="3" ex_begin="2" begin="1" end="4" begin="9"/>"#).unwrap();
        let span = (t.get("begin"), t.get("end"));
        assert_eq!(span, (Some("1"), Some("4")), "first whole-key match wins");
        assert!(matches!(
            Tag::parse("a=\"1\" b"),
            Err(XmlError::Malformed(_))
        ));
        assert_eq!(Tag::parse(">text").unwrap().get("a"), None);
        // more attributes than any element carries: an error, not a panic
        let many: String = (0..=Tag::MAX).map(|i| format!("k{i}=\"{i}\" ")).collect();
        assert!(matches!(Tag::parse(&many), Err(XmlError::Malformed(_))));
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
        let xml = with_trace(&trace, 0.0);
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
        let xml = with_trace(&trace, 0.5);
        assert!(xml.contains("<trace epoch=\"0.5\">"));
        assert!(xml.contains("count=\"123\""));
        assert_eq!(trace_from_xml(&xml).unwrap(), trace);
        assert_eq!(trace_epoch_from_xml(&xml).unwrap(), 0.5);
        // epoch 0 writes the bare element, which parses back to 0
        let xml0 = with_trace(&trace, 0.0);
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
