//! perfbench — the end-to-end and per-layer benchmark of ipm-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload hpl16 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Each cycle runs the workload's cluster job bare, then monitored, then
//! writes the monitored job's reports and analyzes them offline; cycles
//! repeat until `--seconds` is spent. `--trace 0` prints the end-to-end
//! metrics (process CPU seconds, medians over cycles), `--trace 1` the
//! per-layer metrics of span-traced cycles. The last stdout line is one
//! JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod cycle;
mod host;
mod spans;
#[cfg(test)]
mod tests;
mod workload;

use cycle::Checks;
use host::{Elapsed, Stopwatch};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Virtual, Workload};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Set-ups per run: at least `SETUP_REPS`, and more until they have taken
/// `SETUP_MIN_S`; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;
/// Untraced cycles per run at least, so every median has three samples.
const MIN_CYCLES: usize = 3;

pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("bare_job_s", "s"),
    ("job_s", "s"),
    ("report_s", "s"),
    ("analyze_s", "s"),
    ("peak_rss_mb", "MB"),
];

pub const PER_LAYER: [(&str, &str); 41] = [
    ("gpu-sim.calls", "count"),
    ("gpu-sim.busy_s", "s"),
    ("gpu-sim.memcpy_ns_per_mb", "ns/MB"),
    ("gpu-sim.launch_ns", "ns"),
    ("gpu-sim.sync_ns", "ns"),
    ("mpi-sim.calls", "count"),
    ("mpi-sim.busy_s", "s"),
    ("mpi-sim.gather_ns_per_mb", "ns/MB"),
    ("mpi-sim.wait_s", "s"),
    ("numlib.calls", "count"),
    ("numlib.busy_s", "s"),
    ("ipm.events", "count"),
    ("ipm.overhead_ns_per_event", "ns"),
    ("ipm.cuda_overhead_ns", "ns"),
    ("ipm.mpi_overhead_ns", "ns"),
    ("ipm.numlib_overhead_ns", "ns"),
    ("ipm.allocs_per_event", "1/event"),
    ("ipm.self_ns_per_event", "ns"),
    ("trace.emitted", "count"),
    ("trace.captured", "count"),
    ("trace.dropped", "count"),
    ("trace.capture_ratio", "ratio"),
    ("observer.sweeps", "count"),
    ("observer.sweep_us", "us"),
    ("cluster.spawn_s", "s"),
    ("cluster.finalize_s", "s"),
    ("app.self_s", "s"),
    ("export.xml_s", "s"),
    ("export.xml_mb", "MB"),
    ("export.banner_s", "s"),
    ("export.chrome_s", "s"),
    ("export.chrome_mb", "MB"),
    ("export.otlp_s", "s"),
    ("export.otlp_mb", "MB"),
    ("parse.s", "s"),
    ("parse.ns_per_mb", "ns/MB"),
    ("bench.trace_overhead", "ratio"),
    ("wall.bare_job_s", "s"),
    ("wall.job_s", "s"),
    ("wall.report_s", "s"),
    ("wall.analyze_s", "s"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: workload::DEFAULT_SEED,
        seconds: 25,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workload::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workload::NAMES,
            args.workload
        ));
    }
    Ok(args)
}

/// A cycle's analysis cost; NaN (and so a failed run) when it did not parse.
fn analyzed(c: &cycle::Cycle) -> Elapsed {
    c.analyze.unwrap_or(Elapsed {
        wall: f64::NAN,
        cpu: f64::NAN,
    })
}

fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    xs.sort_by(f64::total_cmp);
    match xs.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => xs[n / 2],
        n => (xs[n / 2 - 1] + xs[n / 2]) / 2.0,
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let generate = || Workload::generate(&args.workload, args.seed).expect("name checked");
    println!(
        "# perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host: {}", host::stamp());

    let mut checks = Checks::default();
    // set-up: generate the workload and warm every path (interning, rank
    // threads, allocator, exporters) on the test-size application
    let mut setup: Vec<Elapsed> = Vec::new();
    while setup.len() < SETUP_REPS || setup.iter().map(|e| e.wall).sum::<f64>() < SETUP_MIN_S {
        let clocks = Stopwatch::start();
        cycle::cycle(&generate().warmup(), false, 0.0, &mut checks);
        setup.push(clocks.elapsed());
    }

    let w = generate();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let min_cycles = if args.trace { 1 } else { MIN_CYCLES };
    let mut first: Option<(Virtual, Virtual)> = None;
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let t = Instant::now();
        let mut runs = vec![(
            false,
            cycle::cycle(&w, false, cycle::MIN_PHASE_S, &mut checks),
        )];
        if args.trace {
            runs.push((
                true,
                cycle::cycle(&w, true, cycle::MIN_PHASE_S, &mut checks),
            ));
        }
        for (is_traced, c) in runs {
            let reference = *first.get_or_insert(c.virtual_time);
            let name = if is_traced {
                "traced.identical"
            } else {
                "repeat.identical"
            };
            checks.check(name, c.virtual_time == reference, || {
                format!("{:?} vs first cycle {reference:?}", c.virtual_time)
            });
            if is_traced {
                &mut traced
            } else {
                &mut untraced
            }
            .push(c);
        }
        if untraced.len() >= min_cycles && Instant::now() + t.elapsed() > deadline {
            break;
        }
    }

    let mut metrics: BTreeMap<&str, f64> = BTreeMap::new();
    let units: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let phase = |cs: &[cycle::Cycle], f: fn(&cycle::Cycle) -> f64| median(cs.iter().map(f));
    if args.trace {
        for (name, _) in PER_LAYER {
            metrics.insert(
                name,
                median(traced.iter().filter_map(|c| c.layers.get(name).copied())),
            );
        }
        let job_cpu = |c: &cycle::Cycle| c.job.cpu;
        metrics.insert(
            "bench.trace_overhead",
            phase(&traced, job_cpu) / phase(&untraced, job_cpu) - 1.0,
        );
        metrics.insert("wall.bare_job_s", phase(&untraced, |c| c.bare_job.wall));
        metrics.insert("wall.job_s", phase(&untraced, |c| c.job.wall));
        metrics.insert("wall.report_s", phase(&untraced, |c| c.report.wall));
        metrics.insert("wall.analyze_s", phase(&untraced, |c| analyzed(c).wall));
    } else {
        metrics.insert("setup_s", median(setup.iter().map(|e| e.cpu)));
        metrics.insert("bare_job_s", phase(&untraced, |c| c.bare_job.cpu));
        metrics.insert("job_s", phase(&untraced, |c| c.job.cpu));
        metrics.insert("report_s", phase(&untraced, |c| c.report.cpu));
        metrics.insert("analyze_s", phase(&untraced, |c| analyzed(c).cpu));
        metrics.insert("peak_rss_mb", host::peak_rss_mb());
    }
    let mut json = Vec::new();
    for (name, unit) in units {
        let value = metrics.get(name).copied().unwrap_or(f64::NAN);
        println!("{name:<28} {value:>18.6} {unit}");
        checks.check("metric.measured", value.is_finite(), || {
            format!("{name} = {value}")
        });
        let value = if value.is_finite() {
            value.to_string()
        } else {
            "null".to_owned()
        };
        json.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }

    println!(
        "# cycles: {} untraced, {} traced; checks: {} attempted, {} failed",
        untraced.len(),
        traced.len(),
        checks.attempted,
        checks.failed
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
