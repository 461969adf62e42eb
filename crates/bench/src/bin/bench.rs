//! The continuous-benchmark driver behind `cargo xtask bench`.
//!
//! ```text
//! bench [--quick] [--sweep NAME]... [--out DIR] [--compare PATH] [--list]
//! ```
//!
//! Runs the declarative sweeps in `rambda_bench::harness`, writes one
//! byte-deterministic `BENCH_<sweep>.json` per sweep into `--out`
//! (default `bench/out`), and prints each sweep's ASCII table.
//!
//! With `--compare PATH` (a directory of baseline `BENCH_<sweep>.json`
//! files — normally `bench/baselines` — or a single file), every fresh
//! sweep is diffed against its baseline; any throughput drop or p99 rise
//! beyond the baseline's tolerance prints a readable diff line and the
//! process exits non-zero, which CI gates on.
//!
//! Simulator self-profiling (wall-clock requests/sec and simulated-time
//! speedup) is *non-gating* metadata: wall time is inherently
//! nondeterministic, so it is printed and written to a separate
//! `BENCH_PROFILE.json` sidecar, never into the deterministic artifacts
//! and never into the comparison (DESIGN.md §10).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rambda_bench::harness::{compare, is_gating, run_sweep, sweep_names, SweepResult};
use rambda_metrics::Json;

const USAGE: &str = "\
Usage: bench [--quick] [--sweep NAME]... [--out DIR] [--compare PATH]
             [--profile] [--scopes] [--list]

  --quick          CI-sized runs (the committed baselines are quick-mode)
  --sweep NAME     run only the named sweep (repeatable; default: all)
  --out DIR        artifact directory (default: bench/out)
  --compare PATH   baseline dir or file to gate against; regressions exit 1
  --profile        run each point under the deterministic profiler; sweep
                   JSON and tables gain an event-core dispatch row
  --scopes         run each point under the scoped-metrics registry; sweep
                   JSON and tables gain a hottest-scope request-share column
  --list           print the defined sweep names and exit
";

struct Args {
    quick: bool,
    sweeps: Vec<String>,
    out: PathBuf,
    compare: Option<PathBuf>,
    profile: bool,
    scopes: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut args = Args {
        quick: false,
        sweeps: Vec::new(),
        out: PathBuf::from("bench/out"),
        compare: None,
        profile: false,
        scopes: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--profile" => args.profile = true,
            "--scopes" => args.scopes = true,
            "--sweep" => {
                let name = it.next().ok_or("--sweep requires a name")?;
                if !sweep_names().contains(&name.as_str()) {
                    return Err(format!(
                        "unknown sweep `{name}` — valid sweeps: {}",
                        sweep_names().join(", ")
                    ));
                }
                args.sweeps.push(name);
            }
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out requires a directory")?),
            "--compare" => args.compare = Some(PathBuf::from(it.next().ok_or("--compare requires a path")?)),
            "--list" => {
                for name in sweep_names() {
                    println!("{name}");
                }
                return Ok(None);
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.sweeps.is_empty() {
        args.sweeps = sweep_names().iter().map(|s| s.to_string()).collect();
    }
    Ok(Some(args))
}

/// Loads the baseline for `sweep` from a directory of `BENCH_<sweep>.json`
/// files or a single file.
fn load_baseline(path: &Path, sweep: &str) -> Result<SweepResult, String> {
    let file = if path.is_dir() { path.join(format!("BENCH_{sweep}.json")) } else { path.to_path_buf() };
    let text = std::fs::read_to_string(&file)
        .map_err(|e| format!("cannot read baseline {}: {e}", file.display()))?;
    let baseline = SweepResult::from_json_str(&text).map_err(|e| format!("{}: {e}", file.display()))?;
    if baseline.sweep != sweep {
        return Err(format!("{} holds sweep `{}`, expected `{sweep}`", file.display(), baseline.sweep));
    }
    Ok(baseline)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("error: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }

    let mut regressions = Vec::new();
    let mut profile = Json::obj();
    for sweep in &args.sweeps {
        let started = Instant::now();
        let result = match run_sweep(sweep, args.quick, args.profile, args.scopes) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: sweep {sweep}: {e}");
                return ExitCode::from(2);
            }
        };
        let wall = started.elapsed();

        let file = args.out.join(format!("BENCH_{sweep}.json"));
        if let Err(e) = std::fs::write(&file, result.to_json_string()) {
            eprintln!("error: cannot write {}: {e}", file.display());
            return ExitCode::from(2);
        }
        print!("{}", result.render_table());

        // Non-gating self-profile: how fast the simulator itself ran.
        let completed: u64 = result.points.iter().map(|p| p.completed).sum();
        let sim_ps: u64 = result.points.iter().map(|p| p.elapsed_ps).sum();
        let secs = wall.as_secs_f64().max(1e-9);
        let mut entry = Json::obj();
        entry.push("wall_ms", Json::F64(wall.as_secs_f64() * 1e3));
        entry.push("requests_per_sec", Json::F64(completed as f64 / secs));
        entry.push("sim_time_speedup", Json::F64(sim_ps as f64 / 1e12 / secs));
        profile.push(sweep, entry);
        println!(
            "{sweep}: {} points in {:.1} ms ({:.0} simulated requests/sec, non-gating)\n",
            result.points.len(),
            wall.as_secs_f64() * 1e3,
            completed as f64 / secs
        );

        if let Some(base_path) = &args.compare {
            if !is_gating(sweep) {
                println!("{sweep}: non-gating, comparison skipped");
                continue;
            }
            match load_baseline(base_path, sweep) {
                Ok(baseline) => {
                    let diffs = compare(&result, &baseline);
                    if diffs.is_empty() {
                        println!("{sweep}: no regression vs {}", base_path.display());
                    } else {
                        for d in &diffs {
                            eprintln!("REGRESSION {d}");
                        }
                        regressions.extend(diffs);
                    }
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    regressions.push(e);
                }
            }
        }
    }

    let profile_file = args.out.join("BENCH_PROFILE.json");
    if let Err(e) = std::fs::write(&profile_file, profile.render()) {
        eprintln!("error: cannot write {}: {e}", profile_file.display());
        return ExitCode::from(2);
    }

    if regressions.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("\n{} regression(s) — see diff lines above", regressions.len());
        ExitCode::FAILURE
    }
}
