//! Source-surface extraction — a deliberately small, hand-rolled scanner.
//!
//! The workspace has no `syn` available, and none is needed: everything the
//! checker reconciles is expressed in two rigid idioms that are themselves
//! part of the repo's conventions (and are checked *because* they are
//! conventions):
//!
//! - **Facade surface**: a method models a real entry point iff the *first*
//!   line of its doc comment leads with the backticked name, e.g.
//!   ``/// `cudaMalloc` — ...``. Continuation lines mentioning other names
//!   in prose do not count.
//! - **Wrapper sites**: monitors report through the `wrapped*` helpers with
//!   an interned call-site literal: `self.wrapped(site!("cudaMalloc"), size,
//!   ...)`. The pre-interning idiom (`self.wrapped("cudaMalloc", size, ...)`)
//!   is still recognized so doctored-source tests keep working.
//!
//! Everything after the first `#[cfg(test)]` in a file is ignored.

/// One scanned file: repo-relative path + contents.
#[derive(Clone, Debug)]
pub struct SourceFile {
    pub rel: String,
    pub text: String,
}

impl SourceFile {
    pub fn new(rel: impl Into<String>, text: impl Into<String>) -> Self {
        Self {
            rel: rel.into(),
            text: text.into(),
        }
    }

    /// Lines up to (not including) the test module.
    fn scanned_lines(&self) -> Vec<&str> {
        let mut out = Vec::new();
        for line in self.text.lines() {
            if line.trim_start().starts_with("#[cfg(test)]") {
                break;
            }
            out.push(line);
        }
        out
    }
}

/// True for names the spec families could own (`cuda*`, `cu*`, `cublas*`,
/// `cufft*`, `MPI_*`, and the stdio quartet of the I/O family). Anything
/// else in a doc position is prose.
pub fn is_entry_point_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && (name.starts_with("cuda")
            || name.starts_with("cublas")
            || name.starts_with("cufft")
            || name.starts_with("MPI_")
            || matches!(name, "fopen" | "fread" | "fwrite" | "fclose")
            || (name.starts_with("cu") && name.chars().nth(2).is_some_and(|c| c.is_uppercase())))
}

/// An entry point a facade claims to model.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FacadeName {
    pub name: String,
    pub file: String,
    pub line: usize,
}

/// Extract doc-modeled entry points: first line of a `///` block starting
/// with a backticked entry-point name.
pub fn facade_names(file: &SourceFile) -> Vec<FacadeName> {
    let lines = file.scanned_lines();
    let mut out = Vec::new();
    let mut prev_was_doc = false;
    for (i, line) in lines.iter().enumerate() {
        let t = line.trim_start();
        let is_doc = t.starts_with("///");
        if is_doc && !prev_was_doc {
            if let Some(rest) = t.strip_prefix("/// `") {
                if let Some(end) = rest.find('`') {
                    let name = &rest[..end];
                    if is_entry_point_name(name) {
                        out.push(FacadeName {
                            name: name.to_owned(),
                            file: file.rel.clone(),
                            line: i + 1,
                        });
                    }
                }
            }
        }
        prev_was_doc = is_doc;
    }
    out
}

/// The bytes argument a wrapper passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BytesArg {
    /// A literal `0`.
    Zero,
    /// Any other expression (assumed to carry a real size).
    Expr(String),
    /// A `wrapped_sized` site: bytes derived from the call's result.
    ResultSized,
}

/// One wrapper call site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WrapSite {
    /// Normalized entry-point name (`cudaMemcpy(H2D)` → `cudaMemcpy`).
    pub name: String,
    /// The literal as written.
    pub raw_name: String,
    pub file: String,
    pub line: usize,
    pub fn_name: String,
    pub bytes: BytesArg,
}

/// The helpers whose first string-literal argument is a registry name.
const WRAP_HELPERS: &[(&str, bool)] = &[
    ("wrapped_no_sweep(", false),
    ("wrapped_sized(", true),
    ("wrap_call_sized(", true),
    ("wrapped(", false),
];

fn current_fn(line: &str) -> Option<String> {
    let t = line.trim_start();
    let rest = t
        .strip_prefix("pub fn ")
        .or_else(|| t.strip_prefix("pub(crate) fn "))
        .or_else(|| t.strip_prefix("fn "))?;
    let name: String = rest
        .chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

/// Parse the bytes expression following the name literal: everything up to
/// the next top-level comma.
fn parse_bytes_expr(after_name: &str) -> Option<BytesArg> {
    let rest = after_name.trim_start().strip_prefix(',')?;
    let mut depth = 0i32;
    let mut expr = String::new();
    for c in rest.chars() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                if depth == 0 {
                    break; // closing the helper call: malformed site
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                let e = expr.trim();
                return Some(if e == "0" {
                    BytesArg::Zero
                } else {
                    BytesArg::Expr(e.to_owned())
                });
            }
            _ => {}
        }
        expr.push(c);
    }
    None
}

/// Extract all wrapper call sites in a monitor file.
pub fn wrap_sites(file: &SourceFile) -> Vec<WrapSite> {
    let lines = file.scanned_lines();
    let mut out = Vec::new();
    let mut fn_name = String::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(f) = current_fn(line) {
            fn_name = f;
        }
        for &(helper, sized) in WRAP_HELPERS {
            let Some(pos) = line.find(helper) else {
                continue;
            };
            // skip helper *definitions* (`fn wrapped<R>(` never matches the
            // plain pattern, but guard against `fn wrapped(` anyway)
            if line.trim_start().starts_with("fn ") || line.trim_start().starts_with("pub fn ") {
                continue;
            }
            // a longer helper name contains no shorter one, but the same
            // line never hosts two sites; take the first match only
            let joined: String = std::iter::once(line[pos + helper.len()..].to_owned())
                .chain(lines[i + 1..].iter().take(8).map(|l| (*l).to_owned()))
                .collect::<Vec<_>>()
                .join(" ");
            let Some(q0) = joined.find('"') else { continue };
            // the literal is either the bare first argument or wrapped in
            // the `site!(...)` interning macro; anything else preceding it
            // means the first argument is not a name literal (not a site)
            let prefix = joined[..q0].trim();
            let interned = prefix == "site!(";
            if !prefix.is_empty() && !interned {
                continue;
            }
            let Some(q1) = joined[q0 + 1..].find('"') else {
                continue;
            };
            let raw_name = joined[q0 + 1..q0 + 1 + q1].to_owned();
            let name = raw_name
                .split('(')
                .next()
                .unwrap_or(&raw_name)
                .trim()
                .to_owned();
            if !is_entry_point_name(&name) {
                // io_mon-style wrappers (posix names) and test scaffolding
                // are outside the spec's families
                continue;
            }
            let bytes = if sized {
                BytesArg::ResultSized
            } else {
                let mut after = &joined[q0 + 2 + q1..];
                if interned {
                    // consume the `site!(...)` closing paren before the comma
                    after = after.trim_start().strip_prefix(')').unwrap_or(after);
                }
                match parse_bytes_expr(after) {
                    Some(b) => b,
                    None => BytesArg::Expr("<unparsed>".to_owned()),
                }
            };
            out.push(WrapSite {
                name,
                raw_name,
                file: file.rel.clone(),
                line: i + 1,
                fn_name: fn_name.clone(),
                bytes,
            });
            break;
        }
    }
    out
}

/// A `// speccheck: allow(<code>)` waiver, scoped to the enclosing `fn`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Waiver {
    pub code: String,
    pub fn_name: String,
    pub file: String,
    pub line: usize,
}

/// Extract waiver comments.
pub fn waivers(file: &SourceFile) -> Vec<Waiver> {
    let lines = file.scanned_lines();
    let mut out = Vec::new();
    let mut fn_name = String::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(f) = current_fn(line) {
            fn_name = f;
        }
        let Some(pos) = line.find("speccheck: allow(") else {
            continue;
        };
        let rest = &line[pos + "speccheck: allow(".len()..];
        if let Some(end) = rest.find(')') {
            out.push(Waiver {
                code: rest[..end].to_owned(),
                fn_name: fn_name.clone(),
                file: file.rel.clone(),
                line: i + 1,
            });
        }
    }
    out
}

fn indent_of(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// A `let`-bound lock guard and the line range it is (heuristically) live
/// for. Chained temporaries (`x.lock().do_thing()`) drop at the statement
/// end and are deliberately not tracked.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockHold {
    pub file: String,
    /// Line of the `let ... = ....lock();` binding.
    pub line: usize,
    /// First line past the binding's scope.
    pub scope_end: usize,
    pub fn_name: String,
}

/// Extract `let`-bound guard scopes.
pub fn lock_holds(file: &SourceFile) -> Vec<LockHold> {
    let lines = file.scanned_lines();
    let mut out = Vec::new();
    let mut fn_name = String::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(f) = current_fn(line) {
            fn_name = f;
        }
        let t = line.trim();
        if !(t.starts_with("let ") && t.ends_with(".lock();")) {
            continue;
        }
        let indent = indent_of(line);
        let mut scope_end = lines.len() + 1;
        for (j, later) in lines.iter().enumerate().skip(i + 1) {
            if !later.trim().is_empty() && indent_of(later) < indent {
                scope_end = j + 1;
                break;
            }
        }
        out.push(LockHold {
            file: file.rel.clone(),
            line: i + 1,
            scope_end,
            fn_name: fn_name.clone(),
        });
    }
    out
}

/// Lines calling `.lock()` (any form), for the lock-order check.
pub fn lock_call_lines(file: &SourceFile) -> Vec<usize> {
    file.scanned_lines()
        .iter()
        .enumerate()
        .filter(|(_, l)| l.contains(".lock()"))
        .map(|(i, _)| i + 1)
        .collect()
}

/// A wrapper-anatomy primitive used outside the shared core.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnatomyUse {
    /// The primitive spotted (e.g. `wrap_call(`).
    pub what: &'static str,
    pub fn_name: String,
    pub file: String,
    pub line: usize,
}

/// The anatomy primitives only `FacadeCore` may touch. A monitor facade
/// using any of these has re-grown its own copy of the Fig. 2 plumbing.
const ANATOMY_PRIMITIVES: &[&str] = &[
    "wrap_call(",
    "wrap_call_sized(",
    "fn absorb_host_idle",
    "update_pseudo(",
    "Instant::now",
    "clock().now",
];

/// Spot anatomy primitives in a monitor file (the unified-anatomy lint).
pub fn anatomy_uses(file: &SourceFile) -> Vec<AnatomyUse> {
    let lines = file.scanned_lines();
    let mut out = Vec::new();
    let mut fn_name = String::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some(f) = current_fn(line) {
            fn_name = f;
        }
        for &what in ANATOMY_PRIMITIVES {
            if line.contains(what) {
                out.push(AnatomyUse {
                    what,
                    fn_name: fn_name.clone(),
                    file: file.rel.clone(),
                    line: i + 1,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(text: &str) -> SourceFile {
        SourceFile::new("crates/x/src/mon.rs", text)
    }

    #[test]
    fn facade_names_take_only_leading_backticked_first_lines() {
        let f = file(
            "/// `cudaMalloc` — allocate.\n\
             fn a() {}\n\
             /// `cuMemsetD8` — like `cudaMemset`, not blocking\n\
             /// (both `cudaMemset` and\n\
             /// `cuMemset` are exceptions).\n\
             fn b() {}\n\
             /// Scale adapter, not an entry point.\n\
             fn c() {}\n\
             /// `rows * cols` is prose, not a name.\n\
             fn d() {}\n",
        );
        let found = facade_names(&f);
        let names: Vec<&str> = found.iter().map(|n| n.name.as_str()).collect();
        assert_eq!(names, ["cudaMalloc", "cuMemsetD8"]);
    }

    #[test]
    fn wrap_sites_parse_name_bytes_and_fn() {
        let f = file(
            "    pub fn cuda_malloc(&self, size: usize) -> R {\n\
             \x20       self.wrapped(\"cudaMalloc\", size as u64, || self.inner.m(size))\n\
             \x20   }\n\
             \x20   fn cuda_free(&self) -> R {\n\
             \x20       self.wrapped(\"cudaFree\", 0, || self.inner.f())\n\
             \x20   }\n\
             \x20   fn mpi_recv(&self) -> R {\n\
             \x20       self.wrapped_sized(\n\
             \x20           \"MPI_Recv\",\n\
             \x20           || self.inner.r(),\n\
             \x20           |r| 0,\n\
             \x20       )\n\
             \x20   }\n",
        );
        let sites = wrap_sites(&f);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].name, "cudaMalloc");
        assert_eq!(sites[0].bytes, BytesArg::Expr("size as u64".to_owned()));
        assert_eq!(sites[0].fn_name, "cuda_malloc");
        assert_eq!(sites[1].bytes, BytesArg::Zero);
        assert_eq!(sites[2].name, "MPI_Recv");
        assert_eq!(sites[2].bytes, BytesArg::ResultSized);
    }

    #[test]
    fn suffixed_names_normalize_and_tests_are_skipped() {
        let f = file(
            "    fn m(&self) {\n\
             \x20       self.wrapped(\"cudaMemcpy(H2D)\", src.len() as u64, || x())\n\
             \x20   }\n\
             #[cfg(test)]\n\
             mod tests {\n\
             \x20   fn t(&self) { self.wrapped(\"cudaBogus\", 0, || x()) }\n\
             }\n",
        );
        let sites = wrap_sites(&f);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].name, "cudaMemcpy");
        assert_eq!(sites[0].raw_name, "cudaMemcpy(H2D)");
    }

    #[test]
    fn non_spec_names_are_not_sites() {
        let f = file("    fn m(&self) { self.wrapped(\"snprintf\", 0, || x()) }\n");
        assert!(wrap_sites(&f).is_empty());
    }

    #[test]
    fn io_names_are_spec_sites() {
        let f = file(
            "    fn m(&self) {\n\
             \x20       self.wrapped(site!(\"fread\"), cap, || x())\n\
             \x20   }\n",
        );
        let sites = wrap_sites(&f);
        assert_eq!(sites.len(), 1);
        assert_eq!(sites[0].name, "fread");
        assert_eq!(sites[0].bytes, BytesArg::Expr("cap".to_owned()));
    }

    #[test]
    fn interned_sites_parse_like_bare_literals() {
        let f = file(
            "    pub fn cuda_malloc(&self, size: usize) -> R {\n\
             \x20       self.wrapped(site!(\"cudaMalloc\"), size as u64, || self.inner.m(size))\n\
             \x20   }\n\
             \x20   fn cuda_free(&self) -> R {\n\
             \x20       self.wrapped(site!(\"cudaFree\"), 0, || self.inner.f())\n\
             \x20   }\n\
             \x20   fn mpi_recv(&self) -> R {\n\
             \x20       self.wrapped_sized(\n\
             \x20           site!(\"MPI_Recv\"),\n\
             \x20           || self.inner.r(),\n\
             \x20           |r| 0,\n\
             \x20       )\n\
             \x20   }\n",
        );
        let sites = wrap_sites(&f);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].name, "cudaMalloc");
        assert_eq!(sites[0].bytes, BytesArg::Expr("size as u64".to_owned()));
        assert_eq!(sites[1].bytes, BytesArg::Zero);
        assert_eq!(sites[2].bytes, BytesArg::ResultSized);
    }

    #[test]
    fn anatomy_primitives_are_spotted_per_fn() {
        let f = file(
            "    fn wrapped<R>(&self) -> R {\n\
             \x20       wrap_call(self.clock(), self.sink(), call, bytes, ov, real)\n\
             \x20   }\n\
             \x20   fn absorb_host_idle(&self) {\n\
             \x20       let before = self.ipm.clock().now();\n\
             \x20   }\n",
        );
        let uses = anatomy_uses(&f);
        let whats: Vec<&str> = uses.iter().map(|u| u.what).collect();
        assert!(whats.contains(&"wrap_call("), "{whats:?}");
        assert!(whats.contains(&"fn absorb_host_idle"), "{whats:?}");
        assert!(whats.contains(&"clock().now"), "{whats:?}");
        assert!(anatomy_uses(&file(
            "    fn w(&self) { self.core.wrapped(call, 0, || x()) }\n"
        ))
        .is_empty());
    }

    #[test]
    fn lock_holds_track_let_guards_not_temporaries() {
        let f = file(
            "    fn launch(&self) {\n\
             \x20       let ret = {\n\
             \x20           let mut ktt = self.ipm.ktt().lock();\n\
             \x20           ktt.go(|| self.wrapped_no_sweep(\"cudaLaunch\", 0, || x()))\n\
             \x20       };\n\
             \x20       let done = self.ipm.ktt().lock().collect();\n\
             \x20   }\n",
        );
        let holds = lock_holds(&f);
        assert_eq!(holds.len(), 1, "chained temporary must not count");
        assert_eq!(holds[0].line, 3);
        assert_eq!(holds[0].scope_end, 5);
        assert_eq!(holds[0].fn_name, "launch");
    }

    #[test]
    fn waivers_are_fn_scoped() {
        let f = file(
            "    fn a(&self) {\n\
             \x20       // speccheck: allow(wrap-once) — branches\n\
             \x20   }\n\
             \x20   fn b(&self) {}\n",
        );
        let w = waivers(&f);
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].code, "wrap-once");
        assert_eq!(w[0].fn_name, "a");
    }
}
