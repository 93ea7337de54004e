//! Chrome trace-event backend of the export pipeline.
//!
//! Merges host-side trace records with the device ground truth (`gpu-sim`
//! [`ProfRecord`]s) into Chrome trace-event JSON loadable in Perfetto /
//! `chrome://tracing`: one process per rank, a host lane plus one lane per
//! stream, and flow arrows linking each `cudaLaunch` to the kernel
//! execution it submitted (via the correlation id the runtime assigns at
//! enqueue). [`validate_chrome_trace`] is the matching structural
//! validator (matched `B`/`E` pairs, per-lane timestamp monotonicity,
//! resolved flow bindings) shared by tests and the `ipm_parse trace`
//! subcommand.

use super::ExportRank;
use crate::jsonw::{parse_json, quote_into, Json};
use crate::trace::{TraceKind, TraceRecord};
use ipm_gpu_sim::{ProfKind, ProfRecord};
use ipm_interpose::{NameTable, Names};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;

/// Microseconds for the `ts` field (Chrome's unit).
fn us(t: f64) -> f64 {
    t * 1e6
}

/// What a slice was built from, and so what its `args` show.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// A trace record: its bytes (host lane only, when > 0), region and
    /// compaction aggregate.
    Record(&'a TraceRecord),
    /// A profiler record: its device time.
    Prof(&'a ProfRecord),
}

/// An interval destined for one lane, borrowing its name and args from the
/// export source.
struct LaneSlice<'a> {
    name: &'a str,
    begin: f64,
    end: f64,
    src: Source<'a>,
    /// Flow id to terminate at this slice's begin (0 = none).
    flow_in: u64,
    /// Flow id to originate at this slice's begin (0 = none).
    flow_out: u64,
}

impl<'a> LaneSlice<'a> {
    fn record(t: &'a TraceRecord, name: &'a str, epoch: f64, flow_in: u64, flow_out: u64) -> Self {
        LaneSlice {
            name,
            begin: t.begin - epoch,
            end: t.end - epoch,
            src: Source::Record(t),
            flow_in,
            flow_out,
        }
    }

    fn write_args(&self, out: &mut String) {
        out.push_str(",\"args\":{");
        match self.src {
            Source::Record(t) => {
                if t.kind != TraceKind::KernelExec && t.bytes > 0 {
                    let _ = write!(out, "\"bytes\":{},", t.bytes);
                }
                let _ = write!(out, "\"region\":{}", t.region);
                // the aggregate, so Perfetto shows how many events a
                // compacted slice stands for
                if let Some(a) = t.agg {
                    let _ = write!(
                        out,
                        ",\"count\":{},\"total_us\":{},\"min_us\":{},\"max_us\":{}",
                        a.count,
                        us(a.total),
                        us(a.min),
                        us(a.max)
                    );
                }
            }
            Source::Prof(p) => {
                let _ = write!(out, "\"gputime_us\":{}", p.gputime * 1e6);
            }
        }
        out.push_str("}}");
    }
}

/// The trace-event document being written, one event per line.
struct Events {
    out: String,
    any: bool,
}

impl Events {
    /// Open the next event with its phase and (when given) name.
    fn open(&mut self, ph: &str, name: Option<&str>) -> &mut String {
        self.out.push_str(if self.any {
            ",\n{\"ph\":\""
        } else {
            "{\"ph\":\""
        });
        self.any = true;
        self.out.push_str(ph);
        self.out.push('"');
        if let Some(name) = name {
            self.out.push_str(",\"name\":");
            quote_into(&mut self.out, name);
        }
        &mut self.out
    }

    /// A `ph:"M"` metadata event labelling a process or thread.
    fn meta(&mut self, pid: usize, tid: Option<u32>, which: &str, label: &str) {
        let out = self.open("M", Some(which));
        let _ = write!(out, ",\"pid\":{pid}");
        if let Some(tid) = tid {
            let _ = write!(out, ",\"tid\":{tid}");
        }
        out.push_str(",\"args\":{\"name\":");
        quote_into(out, label);
        out.push_str("}}");
    }

    /// One lane's slices: raw records as properly nested `B`/`E` pairs,
    /// summaries as self-contained `X` events. Events are produced in
    /// `(begin, -end)` order and every event's `ts` is either the current
    /// slice's begin or a pending end ≤ it, so timestamps are non-decreasing
    /// even when summary spans partially overlap raw slices or each other.
    fn lane(&mut self, pid: usize, tid: u32, mut slices: Vec<LaneSlice>) {
        slices.sort_by(|a, b| {
            a.begin
                .partial_cmp(&b.begin)
                .expect("finite timestamps")
                .then(b.end.partial_cmp(&a.end).expect("finite timestamps"))
        });
        // stack of pending end timestamps with their slice names
        let mut stack: Vec<(f64, &str)> = Vec::new();
        // every event on the lane ends in `"pid":..,"tid":..,"ts":<begin>`,
        // and a slice's flow events share its begin: render each once
        let at = format!(",\"pid\":{pid},\"tid\":{tid},\"ts\":");
        let mut begin = String::new();
        for s in &slices {
            self.close(&at, &mut stack, s.begin);
            begin.clear();
            let _ = write!(begin, "{}", us(s.begin));
            for (ph, id) in [("f", s.flow_in), ("s", s.flow_out)] {
                if id != 0 {
                    let out = self.open(ph, None);
                    let bp = if ph == "f" { ",\"bp\":\"e\"" } else { "" };
                    let _ = write!(
                        out,
                        "{bp},\"cat\":\"launch\",\"name\":\"launch\",\"id\":{id}{at}{begin}}}"
                    );
                }
            }
            // A compaction summary is a Chrome `X` (complete) event, not a
            // `B`/`E` pair: it spans `first_begin..last_end` of the records
            // it absorbed and carries its own `dur`, taking no part in the
            // nesting stack, so it renders alike wherever it sits among the
            // raw slices.
            let summary = matches!(s.src, Source::Record(t) if t.is_summary());
            let out = self.open(if summary { "X" } else { "B" }, Some(s.name));
            out.push_str(&at);
            out.push_str(&begin);
            if summary {
                let _ = write!(out, ",\"dur\":{}", us(s.end - s.begin));
            } else {
                stack.push((s.end, s.name));
            }
            s.write_args(out);
        }
        self.close(&at, &mut stack, f64::INFINITY);
    }

    /// Emit the `E` of every pending slice ending at or before `upto`.
    fn close(&mut self, at: &str, stack: &mut Vec<(f64, &str)>, upto: f64) {
        while let Some(&(end, name)) = stack.last().filter(|(end, _)| *end <= upto) {
            stack.pop();
            let out = self.open("E", Some(name));
            let _ = write!(out, "{at}{}}}", us(end));
        }
    }
}

/// Render ranks into Chrome trace-event JSON (the `{"traceEvents": [...]}`
/// object form). One process per rank; `tid 0` is the host lane and
/// `tid 1 + s` is device stream `s`. `cudaLaunch` slices originate flow
/// arrows (`ph:"s"`) that terminate (`ph:"f"`) at the kernel slice with the
/// same correlation id. Raw records render as `B`/`E` pairs; compaction
/// summaries render as `X` (complete) events carrying their aggregate in
/// `args`.
pub(crate) fn chrome_trace_json(ranks: &[ExportRank]) -> String {
    let names = NameTable::global().snapshot();
    let mut events = Events {
        out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        any: false,
    };
    for r in ranks {
        rank_events(r, &names, &mut events);
    }
    let mut out = events.out;
    out.push_str(if events.any { "\n]}\n" } else { "]}\n" });
    out
}

fn rank_events(r: &ExportRank, names: &Names, events: &mut Events) {
    let pid = r.rank;
    let label = if r.host.is_empty() {
        format!("rank {}", r.rank)
    } else {
        format!("rank {} ({})", r.rank, r.host)
    };
    events.meta(pid, None, "process_name", &label);
    events.meta(pid, Some(0), "thread_name", "host");

    // Which correlation ids have a device-side slice to land on?
    let use_prof = !r.prof.is_empty();
    let device_corrs: HashSet<u64> = if use_prof {
        r.prof.iter().map(|p| p.corr).filter(|&c| c != 0).collect()
    } else {
        r.records
            .iter()
            .filter(|t| t.kind == TraceKind::KernelExec && t.corr != 0)
            .map(|t| t.corr)
            .collect()
    };
    // Host lane: wrapped calls + host-idle intervals.
    let host_slices = r
        .records
        .iter()
        .filter(|t| t.kind != TraceKind::KernelExec)
        .map(|t| {
            let flow_out = if t.corr != 0 && device_corrs.contains(&t.corr) {
                t.corr
            } else {
                0
            };
            LaneSlice::record(t, names.get(t.name), r.epoch, 0, flow_out)
        })
        .collect();
    events.lane(pid, 0, host_slices);

    // Device lanes: one per stream, from the profiler ground truth when
    // available, otherwise from KTT KernelExec records.
    let mut lanes: BTreeMap<u32, Vec<LaneSlice>> = BTreeMap::new();
    if use_prof {
        for p in &r.prof {
            lanes.entry(p.stream.0).or_default().push(LaneSlice {
                name: &p.method,
                begin: p.start - r.epoch,
                end: p.start + p.gputime - r.epoch,
                src: Source::Prof(p),
                flow_in: if p.kind == ProfKind::Kernel {
                    p.corr
                } else {
                    0
                },
                flow_out: 0,
            });
        }
    } else {
        for t in r.records.iter().filter(|t| t.kind == TraceKind::KernelExec) {
            let name = names.get(t.detail.unwrap_or(t.name));
            let slice = LaneSlice::record(t, name, r.epoch, t.corr, 0);
            lanes.entry(t.stream.unwrap_or(0)).or_default().push(slice);
        }
    }
    for (s, slices) in lanes {
        let tid = 1 + s;
        events.meta(pid, Some(tid), "thread_name", &format!("stream {s}"));
        events.lane(pid, tid, slices);
    }
}

/// Structural facts about a validated trace, for assertions and the CLI
/// summary line.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Completed `B`/`E` slice pairs.
    pub slices: usize,
    /// Distinct processes (ranks).
    pub processes: usize,
    /// Distinct `(pid, tid)` lanes carrying at least one slice.
    pub lanes: usize,
    /// Flow arrows with both a start (`s`) and a finish (`f`) binding.
    pub flow_pairs: usize,
}

/// Validate Chrome trace-event JSON structurally: the document parses, every
/// `B` has a matching `E` (same lane, same name, LIFO order), every `X`
/// carries a name and a finite non-negative `dur`, timestamps are monotone
/// non-decreasing per lane, and every flow start resolves to a flow finish
/// (and vice versa). Returns summary stats on success (`X` events count as
/// completed slices).
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let doc = parse_json(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;

    let mut stacks: HashMap<(u64, u64), Vec<String>> = HashMap::new();
    let mut last_ts: HashMap<(u64, u64), f64> = HashMap::new();
    let mut lanes_with_slices: HashSet<(u64, u64)> = HashSet::new();
    let mut processes: HashSet<u64> = HashSet::new();
    let mut flow_starts: HashMap<u64, usize> = HashMap::new();
    let mut flow_finishes: HashMap<u64, usize> = HashMap::new();
    let mut slices = 0usize;

    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or(format!("event {i}: missing ph"))?;
        let pid = ev
            .get("pid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing pid"))? as u64;
        processes.insert(pid);
        if ph == "M" {
            continue; // metadata carries no timestamp
        }
        let tid = ev
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing tid"))? as u64;
        let ts = ev
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or(format!("event {i}: missing ts"))?;
        if !ts.is_finite() {
            return Err(format!("event {i}: non-finite ts"));
        }
        let lane = (pid, tid);
        if let Some(prev) = last_ts.get(&lane) {
            if ts < *prev {
                return Err(format!(
                    "event {i}: lane ({pid},{tid}) timestamp regressed {prev} -> {ts}"
                ));
            }
        }
        last_ts.insert(lane, ts);
        match ph {
            "B" => {
                let name = ev
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: B without name"))?;
                stacks.entry(lane).or_default().push(name.to_owned());
                lanes_with_slices.insert(lane);
            }
            "E" => {
                let name = ev.get("name").and_then(Json::as_str).unwrap_or("");
                let stack = stacks.entry(lane).or_default();
                match stack.pop() {
                    Some(open) if name.is_empty() || open == name => slices += 1,
                    Some(open) => {
                        return Err(format!(
                            "event {i}: E '{name}' does not match open B '{open}' on lane ({pid},{tid})"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "event {i}: E '{name}' with no open B on lane ({pid},{tid})"
                        ))
                    }
                }
            }
            "s" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: flow start without id"))?
                    as u64;
                *flow_starts.entry(id).or_default() += 1;
            }
            "f" => {
                let id = ev
                    .get("id")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: flow finish without id"))?
                    as u64;
                *flow_finishes.entry(id).or_default() += 1;
            }
            "X" => {
                ev.get("name")
                    .and_then(Json::as_str)
                    .ok_or(format!("event {i}: X without name"))?;
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or(format!("event {i}: X without dur"))?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {i}: X with bad dur {dur}"));
                }
                slices += 1;
                lanes_with_slices.insert(lane);
            }
            "i" | "C" => {} // tolerated, unused by our exporter
            other => return Err(format!("event {i}: unknown phase '{other}'")),
        }
    }

    for (lane, stack) in &stacks {
        if !stack.is_empty() {
            return Err(format!(
                "lane ({},{}) has {} unclosed B events (first: '{}')",
                lane.0,
                lane.1,
                stack.len(),
                stack[0]
            ));
        }
    }
    let mut flow_pairs = 0usize;
    for (id, n) in &flow_starts {
        match flow_finishes.get(id) {
            Some(m) if m == n => flow_pairs += n,
            _ => {
                return Err(format!(
                    "flow id {id}: {n} starts without matching finishes"
                ))
            }
        }
    }
    for id in flow_finishes.keys() {
        if !flow_starts.contains_key(id) {
            return Err(format!("flow id {id}: finish without start"));
        }
    }

    Ok(TraceStats {
        slices,
        processes: processes.len(),
        lanes: lanes_with_slices.len(),
        flow_pairs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::{CompactPolicy, TraceAgg};
    use crate::export::{ChromeTrace, Export};
    use crate::trace::{TraceRank, TraceRing};
    use ipm_gpu_sim::{ProfRecord, StreamId};
    use ipm_interpose::CallHandle;

    fn call(name: &str, begin: f64, end: f64) -> TraceRecord {
        TraceRecord {
            kind: TraceKind::Call,
            name: CallHandle::of(name).id,
            detail: None,
            begin,
            end,
            bytes: 0,
            region: 0,
            stream: None,
            corr: 0,
            agg: None,
        }
    }

    fn export(ranks: Vec<TraceRank>) -> String {
        let mut e = Export::new();
        for r in ranks {
            e = e.with_trace_rank(r);
        }
        e.to(ChromeTrace).expect("chrome export")
    }

    #[test]
    fn compacted_burst_exports_valid_chrome_trace() {
        // A same-signature burst compacts into summaries the exporter
        // renders as X events (regression: E timestamps regressed and the
        // validator rejected the exporter's own output).
        let ring = TraceRing::with_policy(1 << 12, CompactPolicy::with_high_water(16));
        for i in 0..2000 {
            let t = i as f64 * 1e-3;
            assert!(ring.push(call("cudaLaunch", t, t + 5e-4)));
        }
        assert!(ring.compacted_away() > 0, "burst must compact");
        let records = ring.drain();
        let rank = TraceRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records,
            prof: Vec::new(),
        };
        let json = export(vec![rank]);
        let stats = validate_chrome_trace(&json).expect("compacted export invalid");
        assert!(stats.slices > 0);
    }

    #[test]
    fn epoch_shifts_exported_timestamps() {
        let rank = TraceRank {
            rank: 0,
            host: String::new(),
            epoch: 10.0,
            records: vec![call("cudaMalloc", 10.5, 11.0)],
            prof: Vec::new(),
        };
        let json = export(vec![rank]);
        validate_chrome_trace(&json).expect("valid trace");
        // 10.5s on the rank clock is 0.5s after the epoch -> ts 500000 us
        assert!(json.contains("\"ts\":500000"), "{json}");
        assert!(!json.contains("\"ts\":10500000"), "{json}");
    }

    #[test]
    fn summary_slices_carry_count_args() {
        let mut rec = call("cudaLaunch", 1.0, 3.0);
        rec.agg = Some(TraceAgg {
            count: 17,
            total: 1.25,
            min: 0.05,
            max: 0.2,
            exemplar: (1.4, 1.6),
        });
        let rank = TraceRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records: vec![rec],
            prof: Vec::new(),
        };
        let json = export(vec![rank]);
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("\"count\":17"), "{json}");
        assert!(json.contains("\"total_us\":1250000"), "{json}");
    }

    #[test]
    fn chrome_trace_is_valid_and_has_flows() {
        let mut launch = call("cudaLaunch", 1.0, 1.00001);
        launch.corr = 42;
        let exec = TraceRecord {
            kind: TraceKind::KernelExec,
            name: CallHandle::of("@CUDA_EXEC_STRM00").id,
            detail: Some(CallHandle::of("square").id),
            begin: 1.0001,
            end: 2.15,
            bytes: 0,
            region: 0,
            stream: Some(0),
            corr: 42,
            agg: None,
        };
        let rank = TraceRank {
            rank: 0,
            host: "dirac00".to_owned(),
            epoch: 0.0,
            records: vec![
                call("cudaMalloc", 0.0, 0.5),
                launch.clone(),
                call("cudaMemcpy(D2H)", 2.2, 2.3),
            ],
            prof: Vec::new(),
        };
        let mut with_exec = rank.clone();
        with_exec.records.push(exec);
        let json = export(vec![with_exec]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.processes, 1);
        assert_eq!(stats.lanes, 2, "host lane + one stream lane");
        assert_eq!(stats.slices, 4);
        assert_eq!(stats.flow_pairs, 1);

        // prof records take precedence for device lanes when present
        launch.corr = 7;
        let prof_rank = TraceRank {
            rank: 1,
            host: String::new(),
            epoch: 0.0,
            records: vec![launch],
            prof: vec![ProfRecord {
                method: "square".to_owned(),
                kind: ProfKind::Kernel,
                stream: StreamId::DEFAULT,
                start: 1.0002,
                gputime: 1.15,
                cputime: 1e-5,
                corr: 7,
            }],
        };
        let json = export(vec![prof_rank]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.flow_pairs, 1);
    }

    #[test]
    fn nested_and_adjacent_slices_emit_proper_b_e() {
        // outer call wrapping an inner call, then an adjacent one
        let rank = TraceRank {
            rank: 0,
            host: String::new(),
            epoch: 0.0,
            records: vec![
                call("cublasDgemm", 0.0, 1.0),
                call("cudaLaunch", 0.2, 0.4),
                call("cudaFree", 1.0, 1.1),
            ],
            prof: Vec::new(),
        };
        let json = export(vec![rank]);
        let stats = validate_chrome_trace(&json).expect("valid trace");
        assert_eq!(stats.slices, 3);
    }

    #[test]
    fn validator_rejects_malformed_traces() {
        assert!(validate_chrome_trace("not json").is_err());
        // unmatched B
        let bad = r#"{"traceEvents":[{"ph":"B","name":"x","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad).unwrap_err().contains("unclosed"));
        // regressed timestamps
        let bad = r#"{"traceEvents":[
            {"ph":"B","name":"x","pid":0,"tid":0,"ts":5},
            {"ph":"E","name":"x","pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("regressed"));
        // flow start without finish
        let bad = r#"{"traceEvents":[{"ph":"s","id":3,"pid":0,"tid":0,"ts":1}]}"#;
        assert!(validate_chrome_trace(bad)
            .unwrap_err()
            .contains("flow id 3"));
    }
}
