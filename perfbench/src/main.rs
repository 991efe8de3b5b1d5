//! The repository benchmark: cold, warm and fleet-burst deploys plus device
//! playback, each checked against a 1-worker sequential reference, with a
//! traced per-layer replay. See `perfbench/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_deploy --seed 1 --seconds 25 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the line before it is the run
//! descriptor. A run whose outputs are wrong prints `"correct": false`
//! with no metrics and exits with code 1.

mod replay;
mod report;
mod trace;
mod workloads;

use report::{result_line, Descriptor};
use std::path::PathBuf;
use std::process::{Command, ExitCode};

pub const WORKLOADS: [&str; 4] = ["cold_deploy", "warm_redeploy", "fleet_burst", "device_playback"];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 25.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

/// The run's scratch directory under `.bench_work/` in the working
/// directory; removed when the run ends.
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    fn create(args: &Args) -> std::io::Result<Self> {
        let dir = std::env::current_dir()?.join(".bench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Succeeds only once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// What a workload hands back: the counts, the metrics and its part of the
/// descriptor. `errors` lists every failed check; any entry fails the run.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Vec<report::Metric>,
    pub descriptor: Descriptor,
}

fn tool_output(command: &mut Command) -> String {
    command
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The checkout's own revision; `unknown` when the working directory has
/// no `.git` (git is not allowed to look above it).
fn git_rev() -> String {
    let git_dir = std::env::current_dir().map(|dir| dir.join(".git")).unwrap_or_default();
    tool_output(Command::new("git").env("GIT_DIR", git_dir).args([
        "rev-parse",
        "--short=12",
        "HEAD",
    ]))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create(&args) {
        Ok(work) => work,
        Err(err) => {
            eprintln!("perfbench: cannot create the work directory: {err}");
            return ExitCode::from(2);
        }
    };
    let outcome = workloads::run(&args, &work);

    let mut descriptor = Descriptor::default();
    descriptor
        .text("workload", &args.workload)
        .num("seed", args.seed as f64)
        .num("run_seconds", args.seconds)
        .num("trace", f64::from(u8::from(args.trace)))
        .num("nproc", std::thread::available_parallelism().map_or(1, |n| n.get()) as f64)
        .num("pool_threads", nerflex_math::WorkerPool::shared().threads() as f64)
        .text(
            "nerflex_workers",
            &std::env::var("NERFLEX_WORKERS").unwrap_or_else(|_| "unset".to_string()),
        )
        .text("rustc", &tool_output(Command::new("rustc").arg("--version")))
        .text("git_rev", &git_rev());
    descriptor.extend(outcome.descriptor);
    println!("{}", descriptor.render());

    let correct = outcome.errors.is_empty()
        && outcome.failed == 0
        && outcome.metrics.iter().all(|m| m.value.is_finite());
    for err in &outcome.errors {
        eprintln!("perfbench: check failed: {err}");
    }
    if correct {
        println!("{}", result_line(true, outcome.attempted, outcome.failed, &outcome.metrics));
        ExitCode::SUCCESS
    } else {
        println!("{}", result_line(false, outcome.attempted.max(1), outcome.failed, &[]));
        ExitCode::from(1)
    }
}
