//! Seeded benchmark of the SOQA-SimPack Toolkit.
//!
//! ```text
//! cargo run --release --manifest-path sstbench/Cargo.toml -- \
//!     --workload serve_hot --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Workloads: `serve_hot`, `serve_cold`, `replica_start` (see README.md).
//! Diagnostics go to stderr; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` with the end-to-end
//! metrics (`--trace 0`) or the per-layer rows (`--trace 1`). A run whose
//! traffic breaks a workload-shape guard, or that cannot set up, exits
//! non-zero without a result.

mod client;
mod corpus;
mod gen;
mod oracle;
mod replica;
mod report;
mod serve;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30.0),
        trace: trace.unwrap_or(false),
    })
}

/// `(steal, total)` jiffies of all CPUs from `/proc/stat`. Steal is time
/// the hypervisor ran other guests; each run reports its share on stderr
/// to help read run-to-run drift on shared machines.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
}

/// Set in the pinned child process to the CPU it runs on.
const PINNED_CPU: &str = "SSTBENCH_PINNED_CPU";

/// The last CPU in this process's affinity list (`Cpus_allowed_list`,
/// e.g. `0-1` or `2,4-7`).
fn last_allowed_cpu() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    let cpu = list.trim().rsplit([',', '-']).next()?;
    cpu.parse::<u32>().ok().map(|c| c.to_string())
}

/// Runs the benchmark again as a child pinned to one CPU with `taskset`,
/// and waits for it. `None` when pinning is unavailable; the caller then
/// runs unpinned.
///
/// Why one CPU: the glibc allocator gives each thread that contends for
/// an arena a new one, so with two CPUs the scheduler's short-lived tile
/// threads made `rss_peak_mb` on `serve_cold` range 39–56 MiB across
/// identical runs; pinned, it stays within 1 MiB. The workloads keep
/// one request or start in flight, so they lose no parallelism except
/// the tile threads inside align and uncached ranks, which then run on
/// one worker (`available_parallelism` is 1).
fn run_pinned() -> Option<ExitCode> {
    let cpu = last_allowed_cpu()?;
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", &cpu])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .env(PINNED_CPU, &cpu)
        .status();
    match status {
        Ok(status) if status.success() => Some(ExitCode::SUCCESS),
        Ok(_) => Some(ExitCode::FAILURE),
        Err(e) => {
            eprintln!("sstbench: cannot pin with taskset ({e}); running unpinned");
            None
        }
    }
}

fn main() -> ExitCode {
    if std::env::var_os(PINNED_CPU).is_none() {
        if let Some(code) = run_pinned() {
            return code;
        }
    }
    let before = cpu_jiffies();
    let result = parse_args().and_then(|args| {
        let outcome = match args.workload.as_str() {
            "serve_hot" => serve::run(gen::Shape::Hot, args.seed, args.seconds, args.trace),
            "serve_cold" => serve::run(gen::Shape::Cold, args.seed, args.seconds, args.trace),
            "replica_start" => replica::run(args.seed, args.seconds, args.trace),
            other => Err(format!("unknown workload {other}")),
        }?;
        let catalog: &[(&str, &str)] = if args.trace {
            &report::PER_LAYER
        } else {
            &report::END_TO_END
        };
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.0).collect();
        if names != catalog.iter().map(|m| m.0).collect::<Vec<_>>() {
            return Err(format!("metrics {names:?} do not match the catalog"));
        }
        outcome.to_json()
    });
    if let (Some((s0, t0)), Some((s1, t1))) = (before, cpu_jiffies()) {
        let share = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        let cpu = std::env::var(PINNED_CPU).unwrap_or_else(|_| "none".to_owned());
        eprintln!(
            "pinned CPU: {cpu}; host steal during the run: {:.1}% of CPU time",
            share * 100.0
        );
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sstbench: {e}");
            ExitCode::FAILURE
        }
    }
}
