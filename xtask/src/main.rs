//! `cargo xtask` — workspace automation.
//!
//! ```text
//! cargo xtask analyze [--root PATH] [--verbose] [--json] [--github]
//! cargo xtask bench [--quick] [--compare PATH] [...]
//! ```
//!
//! Exit codes: 0 = clean, 1 = violations (or stale allowlist entries, or
//! bench regressions), 2 = usage or I/O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use xtask::rules::{analyze, Config};

const USAGE: &str = "\
Usage: cargo xtask <command>

Commands:
  analyze [--root PATH] [--verbose] [--json] [--github]
      Enforce the workspace determinism & unsafety invariants (DESIGN.md §8
      and §13):
        R1  no HashMap/HashSet in simulation crates
        R2  no wall-clock / thread::spawn / env-dependent I/O in simulation crates
        R3  unsafe confined to crates/ring, each use documented with // SAFETY:
        R4  every pub item in rambda-des, rambda-metrics and rambda-trace documented
        R5  no println!/eprintln! outside src/bin drivers and the bench crate
        R6  no deprecated runner shim may exist (SimBuilder is the sole run
            entry point), and nothing in-tree still calls one
        R7  partition safety: no static mut / thread_local! / shared cells
            (Rc, RefCell, ...) reachable from a simulated machine
        R8  RNG provenance: every RNG flows from the workload seed via a
            salting call; no literal seeds, entropy sources, or clones
        R9  every counter published by publish_metrics appears in a
            validate_* conservation identity
        R10 every counter published under the `scope.` or `hot.` prefix
            appears in the validate_scopes identity specifically
      Violations can be allowlisted in xtask/analyze.allow (one per line:
      `RULE path token  # reason`; the reason is mandatory); stale entries
      are errors.

      --json emits the analysis as a JSON object on stdout (violations,
      allowed, stale_allows, files_scanned) instead of human-readable text.
      --github additionally emits GitHub Actions `::error file=..` workflow
      annotations so violations surface inline on pull requests.

  bench [--quick] [--sweep NAME]... [--out DIR] [--compare PATH]
        [--profile-compare PATH] [--profile] [--list]
      Build (release) and run the continuous-benchmark harness: seeded
      sweeps reproducing the paper's curves, byte-deterministic
      BENCH_<sweep>.json artifacts, and — with --compare — a regression
      gate against committed baselines (DESIGN.md §10). All flags except
      --profile-compare are forwarded to the rambda-bench `bench` binary.

      --profile-compare PATH is handled by xtask itself: after the harness
      exits cleanly, the fresh BENCH_PROFILE.json (from --out, default
      bench/out) is gated against PATH/BENCH_PROFILE.json — every gating
      sweep must keep requests_per_sec above the committed floor minus 40%
      tolerance (DESIGN.md §12.3). Exit 1 on any throughput regression.
";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => {
            let mut root: Option<PathBuf> = None;
            let mut verbose = false;
            let mut json = false;
            let mut github = false;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--root" => match args.next() {
                        Some(p) => root = Some(PathBuf::from(p)),
                        None => return usage_error("--root requires a path"),
                    },
                    "--verbose" => verbose = true,
                    "--json" => json = true,
                    "--github" => github = true,
                    other => return usage_error(&format!("unknown flag `{other}`")),
                }
            }
            run_analyze(root, AnalyzeOutput { verbose, json, github })
        }
        Some("bench") => run_bench(args.collect()),
        Some("help") | Some("--help") | Some("-h") => {
            print!("{USAGE}");
            ExitCode::SUCCESS
        }
        Some(other) => usage_error(&format!("unknown command `{other}`")),
        None => usage_error("missing command"),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// The workspace root: `--root`, or the parent of this crate's manifest dir
/// (so `cargo xtask analyze` works from any cwd inside the workspace).
fn workspace_root(explicit: Option<PathBuf>) -> PathBuf {
    explicit.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).parent().expect("xtask has a parent dir").to_path_buf()
    })
}

/// Runs the bench harness binary in release mode from the workspace root
/// (relative artifact/baseline paths like `bench/baselines` then resolve
/// the same way from any cwd inside the workspace), forwarding all flags
/// and the child's exit status.
///
/// `--profile-compare PATH` is intercepted here rather than forwarded: once
/// the harness exits cleanly, the fresh `BENCH_PROFILE.json` under `--out`
/// (default `bench/out`) is gated against `PATH/BENCH_PROFILE.json`.
fn run_bench(forward: Vec<String>) -> ExitCode {
    let mut child_args = Vec::with_capacity(forward.len());
    let mut profile_floor: Option<PathBuf> = None;
    let mut out_dir = PathBuf::from("bench/out");
    let mut it = forward.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--profile-compare" => match it.next() {
                Some(p) => profile_floor = Some(PathBuf::from(p)),
                None => {
                    eprintln!("error: --profile-compare requires a path");
                    return ExitCode::from(2);
                }
            },
            "--out" => match it.next() {
                Some(p) => {
                    out_dir = PathBuf::from(&p);
                    child_args.push(arg);
                    child_args.push(p);
                }
                None => {
                    eprintln!("error: --out requires a path");
                    return ExitCode::from(2);
                }
            },
            _ => child_args.push(arg),
        }
    }

    let root = workspace_root(None);
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = std::process::Command::new(cargo)
        .current_dir(&root)
        .args(["run", "--release", "-q", "-p", "rambda-bench", "--bin", "bench", "--"])
        .args(child_args)
        .status();
    let code = match status {
        Ok(s) => s.code().unwrap_or(2).clamp(0, 255) as u8,
        Err(e) => {
            eprintln!("error: failed to launch the bench harness: {e}");
            return ExitCode::from(2);
        }
    };
    if code != 0 {
        return ExitCode::from(code);
    }
    match profile_floor {
        Some(floor) => run_profile_gate(&root.join(out_dir), &root.join(floor)),
        None => ExitCode::SUCCESS,
    }
}

/// Gates the fresh profile in `out_dir` against the committed floor in
/// `floor_dir` (both hold a `BENCH_PROFILE.json`). Exit 1 on regression,
/// 2 when either file is missing or malformed.
fn run_profile_gate(out_dir: &std::path::Path, floor_dir: &std::path::Path) -> ExitCode {
    let load = |dir: &std::path::Path| -> Result<xtask::profile::Profile, String> {
        let path = dir.join("BENCH_PROFILE.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        xtask::profile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (current, floor) = match (load(out_dir), load(floor_dir)) {
        (Ok(c), Ok(f)) => (c, f),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let regressions = xtask::profile::compare(&current, &floor);
    for r in &regressions {
        println!("{r}");
    }
    let gated = floor.sweep_names().filter(|s| xtask::profile::Profile::is_gating(s)).count();
    if regressions.is_empty() {
        println!("profile gate: {gated} sweeps above the committed throughput floor");
        ExitCode::SUCCESS
    } else {
        println!("profile gate: {} of {gated} sweeps regressed", regressions.len());
        ExitCode::FAILURE
    }
}

/// Output-shaping flags for `analyze`.
struct AnalyzeOutput {
    verbose: bool,
    json: bool,
    github: bool,
}

fn run_analyze(root: Option<PathBuf>, out: AnalyzeOutput) -> ExitCode {
    let cfg = Config::rambda(workspace_root(root));
    let analysis = match analyze(&cfg) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: analysis failed: {e}");
            return ExitCode::from(2);
        }
    };

    if out.json {
        println!("{}", analysis_json(&analysis));
        return if analysis.is_clean() { ExitCode::SUCCESS } else { ExitCode::FAILURE };
    }
    if out.github {
        // GitHub Actions workflow commands: one `::error` per violation so
        // the annotation lands on the offending line of the PR diff.
        for v in &analysis.violations {
            println!(
                "::error file={},line={},title=analyze {}::{} — {}",
                v.path,
                v.line,
                v.rule,
                github_escape(&v.token),
                github_escape(&v.hint)
            );
        }
        for stale in &analysis.stale_allows {
            println!(
                "::error file={},title=analyze allowlist::stale entry matches nothing, delete it: {}",
                cfg.allowlist.display(),
                github_escape(stale)
            );
        }
    }
    if out.verbose {
        for v in &analysis.allowed {
            println!("allowed: {v}");
        }
    }
    for v in &analysis.violations {
        println!("{v}");
    }
    for stale in &analysis.stale_allows {
        println!("xtask/analyze.allow: stale entry matches nothing, delete it: `{stale}`");
    }

    let n = analysis.violations.len();
    let s = analysis.stale_allows.len();
    println!(
        "analyze: {} files scanned, {n} violation{}, {} allowlisted, {s} stale allowlist entr{}",
        analysis.files_scanned,
        if n == 1 { "" } else { "s" },
        analysis.allowed.len(),
        if s == 1 { "y" } else { "ies" },
    );
    if analysis.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Renders the analysis as a JSON object (hand-rolled; xtask takes no
/// dependencies). Violations and allowed entries carry the same fields the
/// human-readable output shows; stale allowlist entries are raw strings.
fn analysis_json(analysis: &xtask::rules::Analysis) -> String {
    fn violation(v: &xtask::rules::Violation) -> String {
        format!(
            "{{\"rule\":{},\"path\":{},\"line\":{},\"token\":{},\"hint\":{}}}",
            json_str(v.rule),
            json_str(&v.path),
            v.line,
            json_str(&v.token),
            json_str(&v.hint)
        )
    }
    let list = |vs: &[xtask::rules::Violation]| vs.iter().map(violation).collect::<Vec<_>>().join(",");
    let stale = analysis.stale_allows.iter().map(|s| json_str(s)).collect::<Vec<_>>().join(",");
    format!(
        "{{\"files_scanned\":{},\"violations\":[{}],\"allowed\":[{}],\"stale_allows\":[{}],\"clean\":{}}}",
        analysis.files_scanned,
        list(&analysis.violations),
        list(&analysis.allowed),
        stale,
        analysis.is_clean()
    )
}

/// Escapes a string as a JSON string literal (quotes, backslashes, control
/// characters; everything else passes through as UTF-8).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Escapes the message part of a GitHub Actions workflow command (`%`, CR
/// and LF are the only characters the runner treats specially there).
fn github_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}
