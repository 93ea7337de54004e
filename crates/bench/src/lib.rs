//! # ipm-bench
//!
//! The benchmark harness of the reproduction: one module per table/figure
//! of the paper's evaluation, each exposing the experiment as a library
//! function (so it is unit-tested) plus a `repro-*` binary that prints the
//! regenerated table or figure. Microbenches of IPM internals live under
//! `benches/`: the record path and per-call facade cost
//! (`wrapper_hotpath`, report in `BENCH_wrapper.json`), trace compaction
//! (`trace_compaction`, report in `BENCH_trace.json`), KTT policies, XML
//! round-trips and collectives. Both reports carry the same [`host_json`]
//! stamp.
//!
//! | Paper | Module | Binary |
//! |---|---|---|
//! | Figs. 4–7 | [`square_fig`] | `repro-square`, `repro-timeline` |
//! | Table I | [`table1`] | `repro-table1` |
//! | Fig. 8 | [`fig8`] | `repro-fig8` |
//! | Fig. 9 | [`fig9`] | `repro-fig9` |
//! | Fig. 10 | [`fig10`] | `repro-fig10` |
//! | Fig. 11 | [`fig11`] | `repro-fig11` |
//! | §III-C microbenchmark | re-exported from `ipm-core` | `repro-blocking` |
//! | streaming trace (Perfetto export) | [`trace_fig`] | `repro-trace` |

pub mod fig10;
pub mod fig11;
pub mod fig8;
pub mod fig9;
pub mod square_fig;
pub mod table1;
pub mod trace_fig;

/// The host a bench report was measured on, as a JSON object with the
/// fields perfbench's `# host:` stamp prints: `nproc`, `rustc -V`, CPU
/// model and git commit (`unknown` where unavailable). A commit whose
/// tracked files other than `report` (the report being written, named
/// relative to the workspace root) differ from the working tree gets a
/// `-dirty` suffix, as `git describe --dirty` does, so the numbers are
/// never credited to a tree that did not produce them.
pub fn host_json(report: &str) -> String {
    use ipm_core::jsonw::quote_into;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let mut out = format!("{{\"nproc\": {nproc}, \"rustc\": ");
    quote_into(&mut out, &command_line("rustc", &["-V"]));
    out.push_str(", \"cpu\": ");
    quote_into(&mut out, &cpu);
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let mut commit = command_line("git", &["-C", root, "rev-parse", "--short=12", "HEAD"]);
    let clean = std::process::Command::new("git")
        .args(["-C", root, "diff", "--quiet", "HEAD", "--", "."])
        .arg(format!(":(exclude){report}"))
        .status()
        .is_ok_and(|s| s.success());
    if commit != "unknown" && !clean {
        commit.push_str("-dirty");
    }
    out.push_str(", \"commit\": ");
    quote_into(&mut out, &commit);
    out.push('}');
    out
}

/// A command's trimmed stdout, or `unknown` if it fails or prints nothing.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}
