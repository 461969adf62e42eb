//! The analyzer's rule engine.
//!
//! Six rules, each enforcing one repo invariant (DESIGN.md §8). R4, R6, R7
//! and R10 are retired; the other rules keep their ids:
//!
//! * **R1** — no `HashMap`/`HashSet` in simulation crates: their iteration
//!   order is randomized per process and can leak into event ordering and
//!   run reports. Use `BTreeMap`/`BTreeSet` or the sorted-iteration
//!   `rambda_des::DetHashMap` wrapper (xtask doesn't link the simulation
//!   crates, so no intra-doc link here).
//! * **R2** — a simulation is a pure function of its config and seed: no
//!   wall-clock (`std::time::Instant` / `SystemTime`), no `thread::spawn`,
//!   no `std::env` / `std::fs` access, and no process globals (`static
//!   mut`, `thread_local!`), whose state outlives a run and breaks
//!   same-seed identity, in simulation crates.
//! * **R3** — the workspace has no `unsafe`: every `unsafe` token is a
//!   violation, and every crate's `lib.rs` carries
//!   `#![forbid(unsafe_code)]`.
//! * **R5** — no `println!` / `eprintln!` (nor `print!` / `eprint!`)
//!   outside driver binaries: a simulation reports through `RunReport` and
//!   the flight recorder, never by writing to the terminal mid-run.
//! * **R8** — RNG provenance: every RNG in simulation crates flows from
//!   the workload seed via a salting call (`SimRng::stream(seed, SALT)` /
//!   `fork`). Literal seeds, ambient entropy sources and RNG `.clone()`
//!   are flagged.
//! * **R9** — identity coverage: every counter suffix a stats crate
//!   publishes from `publish_metrics` into the `MetricSet` must appear in
//!   some `validate_*` conservation identity in the metrics crate, so new
//!   counters can't land unguarded.
//!
//! R1, R2, R5 and R8 skip `#[cfg(test)]` modules and `src/bin/` targets: a
//! test may model against a `HashMap`, spawn threads, seed an RNG
//! literally, or print diagnostics without affecting simulation output,
//! and a driver binary is ordinary host code that may read flags and write
//! files. R3 is enforced everywhere — `unsafe` in a test is still `unsafe`.
//!
//! Most checks read the token stream; R2's globals, R8's `impl SimRng`
//! exemption and R9's function bodies read the item list of the parse
//! layer ([`crate::parse`]). Both views come from the same [`ParsedFile`],
//! so "test code" means the same thing to every rule.
//!
//! Violations can be allowlisted in `xtask/analyze.allow`; every entry
//! must carry a trailing `# reason` comment, and stale entries (matching
//! nothing) are themselves errors so the file stays honest.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{Token, TokenKind};
use crate::parse::{ItemKind, ParsedFile};

/// What the analyzer looks at and which crates each rule applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root (the directory containing `crates/`).
    pub root: PathBuf,
    /// Crate directory names (under `crates/`) holding simulation state;
    /// R1, R2 and R8 apply here.
    pub sim_crates: Vec<String>,
    /// Crate directory names allowed to print outside `src/bin/` targets
    /// (R5) — the table-rendering bench crate.
    pub print_crates: Vec<String>,
    /// Crate directory names whose `publish_metrics` counter suffixes R9
    /// collects.
    pub stats_crates: Vec<String>,
    /// Crate directory names whose `validate_*` functions R9 searches for
    /// conservation identities.
    pub identity_crates: Vec<String>,
    /// Path to the allowlist file, relative to `root`.
    pub allowlist: PathBuf,
}

impl Config {
    /// The Rambda workspace configuration: every crate is a simulation
    /// crate except `ring`, an empty placeholder package.
    pub fn rambda(root: PathBuf) -> Self {
        let sim = [
            "accel",
            "bench",
            "coherence",
            "core",
            "des",
            "dlrm",
            "fabric",
            "kvs",
            "mem",
            "metrics",
            "power",
            "rnic",
            "smartnic",
            "trace",
            "txn",
            "workloads",
        ];
        Config {
            root,
            sim_crates: sim.iter().map(|s| s.to_string()).collect(),
            print_crates: vec!["bench".to_string()],
            stats_crates: vec!["rnic".to_string(), "metrics".to_string()],
            identity_crates: vec!["metrics".to_string()],
            allowlist: PathBuf::from("xtask/analyze.allow"),
        }
    }
}

/// One rule violation, pointing at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (`R1`, `R2`, `R3`, `R5`, `R8` or `R9`).
    pub rule: &'static str,
    /// Path relative to the workspace root, with `/` separators.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// The offending token or construct (what allowlist entries match on).
    pub token: String,
    /// How to fix it.
    pub hint: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {} — {}", self.path, self.line, self.rule, self.token, self.hint)
    }
}

/// The outcome of one analyzer run.
#[derive(Debug)]
pub struct Analysis {
    /// Violations not covered by the allowlist.
    pub violations: Vec<Violation>,
    /// Violations covered by the allowlist (reported for transparency).
    pub allowed: Vec<Violation>,
    /// Allowlist entries that matched nothing (errors: delete them).
    pub stale_allows: Vec<String>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Analysis {
    /// Whether the workspace is clean (no violations, no stale entries).
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty() && self.stale_allows.is_empty()
    }
}

/// One parsed allowlist line: `rule path token-substring  # reason`.
#[derive(Debug)]
struct AllowEntry {
    rule: String,
    path: String,
    token: String,
    raw: String,
    used: bool,
}

fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, String> {
    let mut entries = Vec::new();
    for (lineno, raw_line) in text.lines().enumerate() {
        let (line, reason) = match raw_line.split_once('#') {
            Some((head, tail)) => (head.trim(), Some(tail.trim())),
            None => (raw_line.trim(), None),
        };
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(token), None) => {
                // Every exception must say why it exists: a bare entry is
                // indistinguishable from a forgotten one.
                if reason.is_none_or(str::is_empty) {
                    return Err(format!(
                        "allowlist line {}: entry has no `# reason` — justify the exception: `{raw_line}`",
                        lineno + 1
                    ));
                }
                entries.push(AllowEntry {
                    rule: rule.to_string(),
                    path: path.to_string(),
                    token: token.to_string(),
                    raw: raw_line.trim().to_string(),
                    used: false,
                });
            }
            _ => {
                return Err(format!(
                    "allowlist line {}: expected `RULE path token  # reason`, got `{raw_line}`",
                    lineno + 1
                ))
            }
        }
    }
    Ok(entries)
}

/// Runs every rule over `crates/*/src/**/*.rs` under `cfg.root` and applies
/// the allowlist.
///
/// # Errors
///
/// Returns an error if the workspace layout or the allowlist cannot be read.
pub fn analyze(cfg: &Config) -> io::Result<Analysis> {
    let mut violations = Vec::new();
    let mut files_scanned = 0usize;
    let mut parsed: Vec<ParsedFile> = Vec::new();

    let crates_dir = cfg.root.join("crates");
    let mut crate_dirs: Vec<PathBuf> =
        fs::read_dir(&crates_dir)?.filter_map(|e| e.ok()).map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();

    for crate_dir in &crate_dirs {
        let crate_name = crate_dir.file_name().unwrap().to_string_lossy().to_string();
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&src, &mut files)?;
        files.sort();
        let mut saw_lib_rs = false;
        for file in &files {
            files_scanned += 1;
            let rel = rel_path(&cfg.root, file);
            let source = fs::read_to_string(file)?;
            let pf = ParsedFile::parse(&rel, &crate_name, &source);
            let is_lib_rs =
                file.file_name().is_some_and(|n| n == "lib.rs") && file.parent().is_some_and(|p| p == src);
            saw_lib_rs |= is_lib_rs;

            let sim = cfg.sim_crates.contains(&crate_name) && !pf.is_bin;
            if sim {
                rule_r1(&pf, &mut violations);
                rule_r2(&pf, &mut violations);
            }
            rule_r3_file(is_lib_rs, &pf, &mut violations);
            if !cfg.print_crates.contains(&crate_name) && !pf.is_bin {
                rule_r5(&pf, &mut violations);
            }
            if sim {
                rule_r8(&pf, &mut violations);
            }
            parsed.push(pf);
        }
        if !saw_lib_rs && !files.is_empty() {
            violations.push(Violation {
                rule: "R3",
                path: rel_path(&cfg.root, &src.join("lib.rs")),
                line: 1,
                token: "lib.rs".to_string(),
                hint: "crate has no src/lib.rs to carry its unsafe-code lint attribute".to_string(),
            });
        }
    }

    rule_r9(cfg, &parsed, &mut violations);

    // Apply the allowlist.
    let allow_path = cfg.root.join(&cfg.allowlist);
    let mut entries = match fs::read_to_string(&allow_path) {
        Ok(text) => parse_allowlist(&text).map_err(io::Error::other)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut kept = Vec::new();
    let mut allowed = Vec::new();
    for v in violations {
        let entry =
            entries.iter_mut().find(|a| a.rule == v.rule && a.path == v.path && v.token.contains(&a.token));
        match entry {
            Some(a) => {
                a.used = true;
                allowed.push(v);
            }
            None => kept.push(v),
        }
    }
    let stale_allows = entries.iter().filter(|a| !a.used).map(|a| a.raw.clone()).collect();
    Ok(Analysis { violations: kept, allowed, stale_allows, files_scanned })
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// R1: banned hash collections in simulation crates.
fn rule_r1(f: &ParsedFile, out: &mut Vec<Violation>) {
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] {
            continue;
        }
        if let Some(name @ ("HashMap" | "HashSet")) = t.ident() {
            let instead = if name == "HashMap" { "BTreeMap or rambda_des::DetHashMap" } else { "BTreeSet" };
            out.push(Violation {
                rule: "R1",
                path: f.rel.clone(),
                line: t.line,
                token: name.to_string(),
                hint: format!("iteration order can leak into simulation state; use {instead}"),
            });
        }
    }
}

/// R2: wall-clock, threads, environment-dependent I/O and process globals
/// in sim crates.
fn rule_r2(f: &ParsedFile, out: &mut Vec<Violation>) {
    // Single banned identifiers.
    for (i, t) in f.tokens.iter().enumerate() {
        if f.test_mask[i] {
            continue;
        }
        if let Some(name @ ("Instant" | "SystemTime")) = t.ident() {
            out.push(Violation {
                rule: "R2",
                path: f.rel.clone(),
                line: t.line,
                token: name.to_string(),
                hint: "wall-clock breaks seeded reproducibility; model time with rambda_des::SimTime"
                    .to_string(),
            });
        }
    }
    // Banned `a::b` paths (matched on significant tokens so whitespace and
    // comments between segments cannot hide them).
    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();
    let banned_paths: [(&str, &str, &str); 3] = [
        ("thread", "spawn", "real threads have no place inside a deterministic simulation"),
        ("std", "env", "environment access makes runs machine-dependent; pass configuration explicitly"),
        ("std", "fs", "filesystem access inside a simulation breaks reproducibility; do I/O in the driver"),
    ];
    for w in sig.windows(4) {
        let [(i0, a), (_, c1), (_, c2), (_, b)] = w else { continue };
        if f.test_mask[*i0] || !c1.is_punct(':') || !c2.is_punct(':') {
            continue;
        }
        for (first, second, why) in &banned_paths {
            if a.ident() == Some(first) && b.ident() == Some(second) {
                out.push(Violation {
                    rule: "R2",
                    path: f.rel.clone(),
                    line: a.line,
                    token: format!("{first}::{second}"),
                    hint: (*why).to_string(),
                });
            }
        }
    }
    // Process globals: state that outlives a run makes the next same-seed
    // run start from somewhere else.
    for item in f.items.iter().filter(|i| !i.in_test) {
        let token = match item.kind {
            ItemKind::Static if item.mutable => format!("static mut {}", item.name),
            ItemKind::MacroCall if item.name == "thread_local" => "thread_local!".to_string(),
            _ => continue,
        };
        out.push(Violation {
            rule: "R2",
            path: f.rel.clone(),
            line: item.line,
            token,
            hint: "process-global state outlives a run and breaks same-seed identity; own it in the \
                   design's machines or its request-path state"
                .to_string(),
        });
    }
}

/// R5: print-family macros outside driver binaries and the bench crate.
fn rule_r5(f: &ParsedFile, out: &mut Vec<Violation>) {
    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();
    for w in sig.windows(2) {
        let [(i0, mac), (_, bang)] = w else { continue };
        if f.test_mask[*i0] || !bang.is_punct('!') {
            continue;
        }
        if let Some(name @ ("println" | "eprintln" | "print" | "eprint")) = mac.ident() {
            out.push(Violation {
                rule: "R5",
                path: f.rel.clone(),
                line: mac.line,
                token: format!("{name}!"),
                hint: "simulation crates stay silent; print from a src/bin driver or the bench tables"
                    .to_string(),
            });
        }
    }
}

/// Ambient entropy sources R8 bans: any of these severs a run's output
/// from its seed.
const ENTROPY_SOURCES: [&str; 5] = ["thread_rng", "from_entropy", "OsRng", "getrandom", "RandomState"];

/// R8: RNG provenance. `SimRng::seed` calls outside the RNG's own `impl`
/// must take an argument that names a seed; entropy sources and RNG
/// `.clone()` are banned outright.
fn rule_r8(f: &ParsedFile, out: &mut Vec<Violation>) {
    // Constructions inside `impl SimRng` are the primitives themselves
    // (`fork` and `stream` both bottom out in `seed`).
    let own_impl: Vec<(usize, usize)> = f
        .items
        .iter()
        .filter(|i| i.kind == ItemKind::Impl && i.name == "SimRng")
        .filter_map(|i| i.body)
        .collect();
    let in_own_impl = |idx: usize| own_impl.iter().any(|&(a, b)| idx >= a && idx <= b);

    let sig: Vec<(usize, &Token)> = f.tokens.iter().enumerate().filter(|(_, t)| !t.is_comment()).collect();

    for (si, &(i0, t)) in sig.iter().enumerate() {
        if f.test_mask[i0] {
            continue;
        }
        // Entropy sources, anywhere in live code.
        if let Some(name) = t.ident() {
            if ENTROPY_SOURCES.contains(&name) {
                out.push(Violation {
                    rule: "R8",
                    path: f.rel.clone(),
                    line: t.line,
                    token: name.to_string(),
                    hint: "ambient entropy severs the run from its seed; all randomness flows from the \
                           workload seed via SimRng::stream(seed, salt)"
                        .to_string(),
                });
            }
        }
        // `SimRng::seed(args)` with args that don't mention a seed.
        if t.ident() == Some("SimRng") && !in_own_impl(i0) {
            let path_call = (
                sig.get(si + 1).map(|&(_, u)| u.is_punct(':')),
                sig.get(si + 2).map(|&(_, u)| u.is_punct(':')),
                sig.get(si + 3).and_then(|&(_, u)| u.ident()),
                sig.get(si + 4).map(|&(_, u)| u.is_punct('(')),
            );
            if let (Some(true), Some(true), Some("seed"), Some(true)) = path_call {
                let args = call_args(&sig, si + 4);
                let arg_idents: Vec<String> =
                    args.iter().filter_map(|t| t.ident()).map(str::to_lowercase).collect();
                if arg_idents.is_empty() {
                    out.push(Violation {
                        rule: "R8",
                        path: f.rel.clone(),
                        line: t.line,
                        token: "SimRng::seed".to_string(),
                        hint: "literal seed severs provenance from the workload seed; derive the stream \
                               with SimRng::stream(cfg.seed, SALT) or fork an existing RNG"
                            .to_string(),
                    });
                } else if !arg_idents.iter().any(|id| id.contains("seed") || id.contains("salt")) {
                    out.push(Violation {
                        rule: "R8",
                        path: f.rel.clone(),
                        line: t.line,
                        token: "SimRng::seed".to_string(),
                        hint: "the seed argument does not flow from a workload seed; thread the run's \
                               seed through and salt it (SimRng::stream / fork)"
                            .to_string(),
                    });
                }
            }
        }
        // `rng.clone()` duplicates a stream: both copies emit the same
        // draws, so two consumers see correlated randomness.
        if let Some(name) = t.ident() {
            let is_rng = name == "rng" || name.ends_with("_rng") || name.ends_with("Rng");
            let cloned = sig.get(si + 1).is_some_and(|&(_, u)| u.is_punct('.'))
                && sig.get(si + 2).is_some_and(|&(_, u)| u.ident() == Some("clone"))
                && sig.get(si + 3).is_some_and(|&(_, u)| u.is_punct('('));
            if is_rng && cloned && !in_own_impl(i0) {
                out.push(Violation {
                    rule: "R8",
                    path: f.rel.clone(),
                    line: t.line,
                    token: format!("{name}.clone()"),
                    hint: "cloning an RNG duplicates its stream across owners; fork() a salted child \
                           stream instead"
                        .to_string(),
                });
            }
        }
    }
}

/// The argument tokens of a call whose `(` sits at significant index
/// `open` — everything up to the matching `)`.
fn call_args<'a>(sig: &[(usize, &'a Token)], open: usize) -> Vec<&'a Token> {
    let mut depth = 0i32;
    let mut args = Vec::new();
    for &(_, t) in &sig[open..] {
        match t.kind {
            TokenKind::Punct('(') => {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            }
            TokenKind::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            _ => {}
        }
        args.push(t);
    }
    args
}

/// One counter suffix published from a stats crate's `publish_metrics`,
/// with the location the diagnostic points at.
struct Published {
    rel: String,
    line: u32,
    suffix: String,
}

/// Collects every `m.set("...")` counter suffix inside `publish_metrics`
/// functions of the stats crates (R9's front half).
fn collect_published(cfg: &Config, files: &[ParsedFile]) -> Vec<Published> {
    let mut published: Vec<Published> = Vec::new();
    for f in files.iter().filter(|f| cfg.stats_crates.contains(&f.crate_name)) {
        for item in &f.items {
            if item.kind != ItemKind::Fn || item.name != "publish_metrics" || item.in_test {
                continue;
            }
            let Some((b0, b1)) = item.body else { continue };
            let body = &f.tokens[b0..=b1.min(f.tokens.len().saturating_sub(1))];
            let sig: Vec<&Token> = body.iter().filter(|t| !t.is_comment()).collect();
            for (i, t) in sig.iter().enumerate() {
                if t.ident() != Some("set")
                    || !sig.get(i.wrapping_sub(1)).is_some_and(|u| u.is_punct('.'))
                    || !sig.get(i + 1).is_some_and(|u| u.is_punct('('))
                {
                    continue;
                }
                // The first string literal among the arguments is the
                // counter name (possibly a `format!` template).
                let mut depth = 0i32;
                for u in &sig[i + 1..] {
                    match u.kind {
                        TokenKind::Punct('(') => depth += 1,
                        TokenKind::Punct(')') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if let Some(text) = u.str_text() {
                        let suffix = strip_placeholders(text);
                        let suffix = suffix.trim_start_matches('.');
                        if !suffix.is_empty() {
                            published.push(Published {
                                rel: f.rel.clone(),
                                line: u.line,
                                suffix: suffix.to_string(),
                            });
                        }
                        break;
                    }
                }
            }
        }
    }
    published
}

/// Collects every suffix-like string literal inside identity-crate
/// `validate_*` functions (R9's back half).
fn collect_covered(cfg: &Config, files: &[ParsedFile]) -> Vec<String> {
    let mut covered: Vec<String> = Vec::new();
    for f in files.iter().filter(|f| cfg.identity_crates.contains(&f.crate_name)) {
        for item in &f.items {
            if item.kind != ItemKind::Fn || !item.name.starts_with("validate") || item.in_test {
                continue;
            }
            let Some((b0, b1)) = item.body else { continue };
            for t in &f.tokens[b0..=b1.min(f.tokens.len().saturating_sub(1))] {
                let Some(text) = t.str_text() else { continue };
                let n = strip_placeholders(text);
                // Error-message literals contain spaces; counter suffixes
                // don't.
                if !n.is_empty() && !n.contains(char::is_whitespace) {
                    covered.push(n);
                }
            }
        }
    }
    covered
}

/// Whether any collected identity literal mentions `suffix`.
fn covers(covered: &[String], suffix: &str) -> bool {
    covered.iter().any(|c| c.trim_start_matches('.') == suffix || c.ends_with(&format!(".{suffix}")))
}

/// R9: identity coverage. Every counter suffix published from a stats
/// crate's `publish_metrics` must appear in some `validate_*` string
/// literal in the metrics crate — the conservation identities read
/// counters by suffix, so an unmentioned suffix is an unguarded counter.
fn rule_r9(cfg: &Config, files: &[ParsedFile], out: &mut Vec<Violation>) {
    let published = collect_published(cfg, files);
    let covered = collect_covered(cfg, files);
    for p in &published {
        if !covers(&covered, &p.suffix) {
            out.push(Violation {
                rule: "R9",
                path: p.rel.clone(),
                line: p.line,
                token: p.suffix.clone(),
                hint: format!(
                    "counter `{}` is published into the MetricSet but no validate_* conservation \
                     identity mentions it; add one to the metrics report validation",
                    p.suffix
                ),
            });
        }
    }
}

/// Removes `{...}` format placeholders from a format-string literal:
/// `"{prefix}.doorbells"` becomes `".doorbells"`.
fn strip_placeholders(text: &str) -> String {
    let mut out = String::new();
    let mut depth = 0usize;
    for c in text.chars() {
        match c {
            '{' => depth += 1,
            '}' => depth = depth.saturating_sub(1),
            _ if depth == 0 => out.push(c),
            _ => {}
        }
    }
    out
}

/// R3, per file: no `unsafe` token, and `#![forbid(unsafe_code)]` in
/// `lib.rs`.
fn rule_r3_file(is_lib_rs: bool, f: &ParsedFile, out: &mut Vec<Violation>) {
    for t in &f.tokens {
        if t.ident() == Some("unsafe") {
            out.push(Violation {
                rule: "R3",
                path: f.rel.clone(),
                line: t.line,
                token: "unsafe".to_string(),
                hint: "the workspace has no unsafe code; find a safe formulation".to_string(),
            });
        }
    }
    if is_lib_rs && !has_ident_pair(&f.tokens, "forbid", "unsafe_code") {
        out.push(Violation {
            rule: "R3",
            path: f.rel.clone(),
            line: 1,
            token: "forbid(unsafe_code)".to_string(),
            hint: "add #![forbid(unsafe_code)] at the top of lib.rs".to_string(),
        });
    }
}

/// `first` followed (within the next few significant tokens) by `second` —
/// matches `#![forbid(unsafe_code)]` without caring about exact punctuation.
fn has_ident_pair(tokens: &[Token], first: &str, second: &str) -> bool {
    let sig: Vec<&Token> = tokens.iter().filter(|t| !t.is_comment()).collect();
    sig.iter().enumerate().any(|(i, t)| {
        t.ident() == Some(first) && sig[i + 1..].iter().take(4).any(|u| u.ident() == Some(second))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> ParsedFile {
        ParsedFile::parse("test.rs", "kvs", src)
    }

    fn run_rule<F>(src: &str, f: F) -> Vec<Violation>
    where
        F: Fn(&ParsedFile, &mut Vec<Violation>),
    {
        let pf = parse(src);
        let mut out = Vec::new();
        f(&pf, &mut out);
        out
    }

    #[test]
    fn r1_flags_hash_collections_but_not_in_tests_or_strings() {
        let v = run_rule("use std::collections::HashMap;\nlet s: HashSet<u8>;", rule_r1);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].token, "HashMap");
        assert_eq!(v[1].line, 2);
        assert!(run_rule("let s = \"HashMap\"; // HashMap", rule_r1).is_empty());
        assert!(run_rule("#[cfg(test)]\nmod tests { use std::collections::HashMap; }", rule_r1).is_empty());
    }

    #[test]
    fn r2_flags_wallclock_threads_and_env() {
        let v = run_rule(
            "use std::time::Instant;\nfn f() { std::thread::spawn(f); let h = std::env::var(\"HOME\"); }",
            rule_r2,
        );
        let tokens: Vec<&str> = v.iter().map(|v| v.token.as_str()).collect();
        assert!(tokens.contains(&"Instant"));
        assert!(tokens.contains(&"thread::spawn"));
        assert!(tokens.contains(&"std::env"));
        assert!(run_rule("#[cfg(test)]\nmod tests { fn f() { std::thread::spawn(g); } }", rule_r2).is_empty());

        // Process globals outlive a run; an immutable static does not.
        let v = run_rule(
            "pub static mut TICKS: u64 = 0;\nthread_local! { static S: u64 = 0; }\nstatic OK: u64 = 1;",
            rule_r2,
        );
        let globals: Vec<(&str, u32)> = v.iter().map(|v| (v.token.as_str(), v.line)).collect();
        assert_eq!(globals, vec![("static mut TICKS", 1), ("thread_local!", 2)], "{v:?}");
        let tests = "#[cfg(test)]\nmod t { static mut X: u64 = 0; thread_local! { static S: u64 = 0; } }";
        assert!(run_rule(tests, rule_r2).is_empty());
    }

    fn run_r3(src: &str, is_lib: bool) -> Vec<Violation> {
        let pf = parse(src);
        let mut out = Vec::new();
        rule_r3_file(is_lib, &pf, &mut out);
        out
    }

    #[test]
    fn r3_every_unsafe_is_flagged() {
        let v = run_r3("fn f() { unsafe { g() } }", false);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, "unsafe");
        // A SAFETY comment excuses nothing, and each site fires on its own.
        let documented = "// SAFETY: exclusive owner.\nunsafe impl Send for X {}\nunsafe impl Sync for X {}";
        assert_eq!(run_r3(documented, false).len(), 2);
        // Strings, comments and the lint's own name are not `unsafe` tokens.
        assert!(run_r3("let s = \"unsafe\"; // unsafe\n#![forbid(unsafe_code)]", false).is_empty());
    }

    #[test]
    fn r3_lib_rs_lint_attributes() {
        assert_eq!(run_r3("#![forbid(unsafe_code)]", true).len(), 0);
        assert_eq!(run_r3("//! docs only", true).len(), 1);
        // Only `lib.rs` must carry the attribute.
        assert_eq!(run_r3("//! docs only", false).len(), 0);
    }

    #[test]
    fn r5_flags_print_macros_outside_tests() {
        let v = run_rule("fn f() { println!(\"x\"); eprint!(\"y\"); }", rule_r5);
        assert_eq!(v.len(), 2);
        assert_eq!(v[0].token, "println!");
        assert_eq!(v[1].token, "eprint!");
        // Test modules, strings and comments are exempt.
        assert!(run_rule("#[cfg(test)]\nmod tests { fn f() { println!(\"x\"); } }", rule_r5).is_empty());
        assert!(run_rule("let s = \"println!\"; // println!(no)", rule_r5).is_empty());
        // A bare `print` identifier without `!` is not a macro call.
        assert!(run_rule("fn print() {} fn g() { print(); }", rule_r5).is_empty());
    }

    fn parsed(rel: &str, src: &str) -> ParsedFile {
        let crate_name = rel.split('/').nth(1).unwrap_or("kvs");
        ParsedFile::parse(rel, crate_name, src)
    }

    fn run_cross<F>(files: Vec<ParsedFile>, f: F) -> Vec<Violation>
    where
        F: Fn(&Config, &[ParsedFile], &mut Vec<Violation>),
    {
        let cfg = Config::rambda(PathBuf::from("."));
        let mut out = Vec::new();
        f(&cfg, &files, &mut out);
        out
    }

    #[test]
    fn r8_flags_literal_seeds_entropy_and_clones() {
        let run = |src: &str| run_rule(src, rule_r8);
        let v = run("fn f() { let rng = SimRng::seed(42); }");
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].token, "SimRng::seed");
        // A seed that flows from the workload config passes.
        assert!(run("fn f(params: &P) { let rng = SimRng::seed(params.seed); }").is_empty());
        assert!(run("fn f(cfg: &C) { let rng = SimRng::seed(cfg.seed ^ SALT); }").is_empty());
        // A non-seed argument is an unsalted root.
        let v = run("fn f(tick: u64) { let rng = SimRng::seed(tick); }");
        assert_eq!(v.len(), 1, "{v:?}");
        // Entropy sources and clones.
        let v = run("fn f() { let s = RandomState::new(); }");
        assert_eq!(v[0].token, "RandomState");
        let v = run("fn f(rng: &SimRng) { let dup = rng.clone(); }");
        assert_eq!(v[0].token, "rng.clone()");
        // Inside `impl SimRng`, seed() calls are the primitive itself.
        assert!(
            run("impl SimRng { pub fn fork(&mut self) -> Self { SimRng::seed(self.next()) } }").is_empty()
        );
        // Tests may seed literally.
        assert!(run("#[cfg(test)]\nmod t { fn f() { let r = SimRng::seed(42); } }").is_empty());
    }

    #[test]
    fn r9_uncovered_counters_are_flagged() {
        let rnic = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, prefix: &str) {\n\
             m.set(&format!(\"{prefix}.doorbells\"), self.d);\n\
             m.set(&format!(\"{prefix}.wqes\"), self.w);\n } }",
        );
        let metrics = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_rnic(&self) { let w = self.sum(\".wqes\"); } }",
        );
        let v = run_cross(vec![rnic, metrics], rule_r9);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "doorbells");
        assert_eq!(v[0].path, "crates/rnic/src/endpoint.rs");
    }

    #[test]
    fn r9_covered_counters_pass_and_error_strings_do_not_cover() {
        let rnic = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.cqes\"), self.c);\n } }",
        );
        // An error-message literal mentioning the counter does NOT count as
        // an identity; a suffix literal does.
        let vague = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_x(&self) { let e = \"too many cqes in flight\"; } }",
        );
        let v = run_cross(vec![rnic, vague], rule_r9);
        assert_eq!(v.len(), 1, "prose must not satisfy coverage: {v:?}");

        let exact = parsed(
            "crates/metrics/src/report.rs",
            "impl R { fn validate_rnic(&self) { let c = self.sum(\".cqes\"); } }",
        );
        let rnic2 = parsed(
            "crates/rnic/src/endpoint.rs",
            "impl E { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.cqes\"), self.c);\n } }",
        );
        let v = run_cross(vec![rnic2, exact], rule_r9);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn r9_scans_the_metrics_crate_publisher_too() {
        // The event-core summary publishes from the metrics crate itself;
        // its counters need identity coverage like any stats crate's.
        let metrics = parsed(
            "crates/metrics/src/event_core.rs",
            "impl S { pub fn publish_metrics(&self, m: &mut M, p: &str) {\n\
             m.set(&format!(\"{p}.dwell_ps\"), self.d);\n } }\n\
             fn validate_event_core() { let _ = \".enqueued\"; }",
        );
        let v = run_cross(vec![metrics], rule_r9);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].token, "dwell_ps");
        assert_eq!(v[0].path, "crates/metrics/src/event_core.rs");
    }

    #[test]
    fn allowlist_parses_and_rejects_garbage() {
        let entries =
            parse_allowlist("# comment\n\nR1 crates/des/src/detmap.rs HashMap  # backing store\n").unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "R1");
        assert!(parse_allowlist("R1 only-two").is_err());
    }

    #[test]
    fn allowlist_entries_without_a_reason_are_errors() {
        let err = parse_allowlist("R1 crates/des/src/detmap.rs HashMap\n").unwrap_err();
        assert!(err.contains("no `# reason`"), "{err}");
        let err = parse_allowlist("R1 crates/des/src/detmap.rs HashMap  #   \n").unwrap_err();
        assert!(err.contains("no `# reason`"), "{err}");
    }
}
