//! End-to-end benchmark of the social content matching system.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload flickr-greedy-mem --seed 2011 --seconds 12 --trace 0
//! ```
//!
//! Each workload generates its inputs from `--seed`, drives the system
//! through its public API only (the `MatchingPipeline` / `ServingPipeline`
//! facade and the crate entry points those compose), measures for
//! `--seconds`, checks every output, and prints one JSON object as the
//! last line of stdout: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics with `--trace 0`, the per-layer metrics of a
//! separate traced run with `--trace 1`.  See `e2ebench/README.md`.

mod batch;
mod layers;
mod proc_stats;
mod serving;
mod stats;
mod trace;

use std::path::{Path, PathBuf};

use social_content_matching::distrib::is_worker_process;

/// The seed the repository's presets are generated with by default.
pub const DEFAULT_SEED: u64 = 2011;

/// Environment variables the engine or the distrib runtime read as
/// defaults.  The benchmark sets every knob explicitly and removes these,
/// so an inherited value cannot turn a workload into another one.
const ISOLATED_ENV: [&str; 3] = ["SMR_MEMORY_BUDGET", "SMR_SPILL_DIR", "SMR_DISTRIB_FAIL"];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FlickrGreedyMem,
    AnswersStackSpill,
    XlServingMixed,
    FlickrGreedy2Shards,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FlickrGreedyMem,
        Workload::AnswersStackSpill,
        Workload::XlServingMixed,
        Workload::FlickrGreedy2Shards,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FlickrGreedyMem => "flickr-greedy-mem",
            Workload::AnswersStackSpill => "answers-stack-spill",
            Workload::XlServingMixed => "xl-serving-mixed",
            Workload::FlickrGreedy2Shards => "flickr-greedy-2shards",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Settings every workload shares, fixed before the first measurement.
#[derive(Debug, Clone)]
pub struct Env {
    pub args: Args,
    /// Engine threads for in-process batch workloads: one per core.
    pub threads: usize,
    /// Directory spilled runs are written under.
    pub spill_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The end-to-end timings of an untraced run.
#[derive(Debug, Clone)]
pub struct Timings {
    pub setup_s: f64,
    pub latency_p50_ms: f64,
    pub latency_tail_ms: f64,
    pub throughput_per_s: f64,
}

impl Timings {
    /// The `end_to_end` metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self, peak_rss_mb: f64, quality: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric("latency_p50_ms", self.latency_p50_ms, "ms"),
            metric("latency_tail_ms", self.latency_tail_ms, "ms"),
            metric("throughput_per_s", self.throughput_per_s, "1/s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric("matching_quality", quality, "ratio"),
        ]
    }
}

/// An output check and whether it held.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub passed: bool,
    pub detail: String,
}

pub fn check(name: impl Into<String>, passed: bool, detail: impl Into<String>) -> Check {
    Check {
        name: name.into(),
        passed,
        detail: detail.into(),
    }
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    pub metrics: Vec<Metric>,
    /// Human-readable lines (the per-layer table in traced runs).
    pub table: Vec<String>,
    pub tracer: Option<trace::Tracer>,
}

/// Removes the run's scratch directory on every exit path.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]");
            std::process::exit(2);
        }
    };

    if is_worker_process() {
        // A process re-invoked by a sharded session: replay only the
        // session it was spawned for, report nothing.
        batch::worker_main(&args);
    }

    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let runs_dir = bench_dir.join("runs");
    let scratch = ScratchDir(runs_dir.join(format!("tmp-{}", std::process::id())));
    let spill_dir = scratch.0.join("spill");
    if let Err(e) = std::fs::create_dir_all(&spill_dir) {
        eprintln!("e2ebench: cannot create {}: {e}", spill_dir.display());
        std::process::exit(1);
    }
    // Isolate the run before any thread starts: scratch files (serving
    // index, flow side stores, distrib sessions) go to the run's own
    // directory, and inherited engine defaults are removed.
    let inherited: Vec<String> = ISOLATED_ENV
        .iter()
        .filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}")))
        .collect();
    for k in ISOLATED_ENV {
        std::env::remove_var(k);
    }
    std::env::set_var("TMPDIR", &scratch.0);

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env = Env {
        args: args.clone(),
        threads,
        spill_dir,
    };
    let descriptor = descriptor(&env, bench_dir, &inherited);
    println!("# descriptor {descriptor}");

    let mut outcome = match args.workload {
        Workload::XlServingMixed => serving::run(&env),
        w => batch::run(w, &env),
    };
    // An operation can fail more than one check; it counts once.
    outcome.failed = outcome.failed.min(outcome.attempted);

    if let Some(tracer) = &outcome.tracer {
        let path = runs_dir.join(format!("trace-{}.jsonl", args.workload.name()));
        match tracer.write_jsonl(&path, &descriptor) {
            Ok(()) => println!("# trace written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
        }
    }
    drop(scratch);

    for line in &outcome.table {
        println!("{line}");
    }
    for c in &outcome.checks {
        println!(
            "# check {:<44} {}  {}",
            c.name,
            if c.passed { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    println!(
        "# failure_rate {} ({} failed of {} attempted)",
        stats::ratio(outcome.failed as f64, outcome.attempted as f64),
        outcome.failed,
        outcome.attempted
    );
    for m in &outcome.metrics {
        println!("# {:<36} {:>20} {}", m.name, m.value, m.unit);
    }
    let correct =
        outcome.attempted > 0 && outcome.failed == 0 && outcome.checks.iter().all(|c| c.passed);
    println!("{}", result_json(&outcome, correct));
}

fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a non-finite value is a bug in
            // the benchmark and must not pass as a measurement.
            assert!(m.value.is_finite(), "metric {} is not finite", m.name);
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The machine and settings a result was measured on, as one JSON object.
fn descriptor(env: &Env, bench_dir: &Path, inherited: &[String]) -> String {
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_default();
    let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, m)| m.trim().to_string())
        .unwrap_or_default();
    let spec = batch::spec_description(env);
    let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"kernel\":\"{}\",\"cpu\":\"{}\",\"rustc\":\"{}\",\"git_commit\":\"{}\",{spec},\"spill_dir\":\"{}\",\"spill_fs\":\"{}\",\"proc_io\":{},\"inherited_env_overridden\":\"{}\"}}",
        env.args.workload.name(),
        env.args.seed,
        env.args.seconds,
        env.args.trace,
        env.threads,
        esc(&kernel),
        esc(&cpu),
        esc(env!("E2EBENCH_RUSTC")),
        git_commit(bench_dir),
        esc(&env.spill_dir.display().to_string()),
        filesystem_type(&env.spill_dir),
        proc_stats::io_counters_available(),
        esc(&inherited.join(" ")),
    )
}

/// The commit the code was checked out at, when the checkout is a git
/// repository (resolved from `.git` directly, without running git).
fn git_commit(bench_dir: &Path) -> String {
    let git = bench_dir.join("..").join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unavailable (not a git checkout)".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}

/// Filesystem type of the mount holding `path` (longest matching mount
/// point in `/proc/self/mountinfo`).
fn filesystem_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".to_string();
    };
    let Ok(info) = std::fs::read_to_string("/proc/self/mountinfo") else {
        return "unknown".to_string();
    };
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            let mount_point = *fields.get(4)?;
            let sep = fields.iter().position(|f| *f == "-")?;
            let fs_type = *fields.get(sep + 1)?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
