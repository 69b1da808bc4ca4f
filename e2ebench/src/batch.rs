//! The batch workloads: the paper's pipeline (corpus → similarity join →
//! capacities → MapReduce b-matching) run end to end through
//! `MatchingPipeline::run`, in process or across worker processes.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use social_content_matching::datagen::{DatasetPreset, SocialDataset};
use social_content_matching::distrib::{
    last_session_stats, run_sharded, ShardOptions, SESSION_ENV,
};
use social_content_matching::graph::{BipartiteGraph, Capacities, Matching};
use social_content_matching::mapreduce::{FlowContext, JobConfig};
use social_content_matching::matching::runner::RunnerConfig;
use social_content_matching::matching::{
    greedy_matching, run_algorithm, AlgorithmKind, GreedyMrConfig, StackMrConfig,
};
use social_content_matching::simjoin::baseline_similarity_join;
use social_content_matching::sketch::{CandidateGenerator, ExactPrefixJoin};
use social_content_matching::text::{Corpus, TokenizerConfig};
use social_content_matching::MatchingPipeline;

use crate::layers::{Counters, LayerReport};
use crate::stats::{self, median, ratio, secs, Fnv};
use crate::trace::Tracer;
use crate::{check, Args, Env, Outcome, Timings, Workload};

/// Map and reduce task counts every job runs with: outputs are
/// byte-identical for any thread count, shard count and memory budget
/// only at a fixed task layout.
const MAP_TASKS: usize = 8;
const REDUCE_TASKS: usize = 8;
const ALPHA: f64 = 1.0;
/// StackMR's slackness ε and the seed of its randomized marking (the
/// pipeline's defaults, set explicitly).
const EPSILON: f64 = 1.0;
const STACK_SEED: u64 = 42;
/// Dataset generations timed before the first operation; every untraced
/// operation adds one more sample to the `setup_s` median.
const SETUP_SAMPLES: usize = 5;
/// Session-key prefix of the sharded workload; the suffix names the
/// operation (`u<n>` untraced, `t<n>` traced) so a worker can replay
/// exactly the session it was spawned for.
const SESSION_PREFIX: &str = "e2e-shards-";

/// One batch workload's inputs and engine settings.
#[derive(Debug, Clone)]
pub struct Spec {
    pub preset: DatasetPreset,
    pub sigma: f64,
    pub algorithm: AlgorithmKind,
    pub budget: Option<u64>,
    pub threads: usize,
    /// Worker processes (0 = in process).
    pub shards: usize,
}

pub fn spec(workload: Workload, threads: usize) -> Spec {
    match workload {
        Workload::FlickrGreedyMem => Spec {
            preset: DatasetPreset::FlickrLarge,
            sigma: 0.09,
            algorithm: AlgorithmKind::GreedyMr,
            budget: None,
            threads,
            shards: 0,
        },
        Workload::AnswersStackSpill => Spec {
            preset: DatasetPreset::YahooAnswers,
            sigma: 0.07,
            algorithm: AlgorithmKind::StackMr,
            budget: Some(1 << 20),
            threads,
            shards: 0,
        },
        Workload::FlickrGreedy2Shards => Spec {
            preset: DatasetPreset::FlickrLarge,
            sigma: 0.09,
            algorithm: AlgorithmKind::GreedyMr,
            budget: None,
            threads: 1,
            shards: 2,
        },
        Workload::XlServingMixed => unreachable!("the serving workload runs no batch pipeline"),
    }
}

/// The engine settings of `env`'s workload, as JSON fields of the run
/// descriptor.
pub fn spec_description(env: &Env) -> String {
    if env.args.workload == Workload::XlServingMixed {
        return "\"threads\":1,\"map_tasks\":0,\"reduce_tasks\":0,\"memory_budget\":\"none (no MapReduce job runs)\",\"process_shards\":0".to_string();
    }
    let s = spec(env.args.workload, env.threads);
    format!(
        "\"threads\":{},\"map_tasks\":{MAP_TASKS},\"reduce_tasks\":{REDUCE_TASKS},\"memory_budget\":\"{}\",\"process_shards\":{}",
        s.threads,
        s.budget.map_or("unlimited".to_string(), |b| b.to_string()),
        s.shards
    )
}

fn job_config(spec: &Spec, spill_dir: &std::path::Path, name: &str) -> JobConfig {
    JobConfig::named(name)
        .with_threads(spec.threads)
        .with_map_tasks(MAP_TASKS)
        .with_reduce_tasks(REDUCE_TASKS)
        .with_memory_budget(spec.budget)
        .with_spill_dir(spill_dir)
}

fn pipeline(spec: &Spec, dataset: SocialDataset, job: JobConfig) -> MatchingPipeline {
    MatchingPipeline::new(dataset)
        .tokenizer(TokenizerConfig::tags_only())
        .sigma(spec.sigma)
        .alpha(ALPHA)
        .algorithm(spec.algorithm)
        .seed(STACK_SEED)
        .epsilon(EPSILON)
        .job(job)
        .process_shards(spec.shards)
}

fn runner_config() -> RunnerConfig {
    RunnerConfig {
        greedy_mr: GreedyMrConfig::default(),
        stack_mr: StackMrConfig::default()
            .with_epsilon(EPSILON)
            .with_seed(STACK_SEED),
    }
}

fn graph_fingerprint(h: &mut Fnv, graph: &BipartiteGraph) {
    h.u64(graph.num_items() as u64);
    h.u64(graph.num_consumers() as u64);
    for e in graph.edges() {
        h.u64(e.item.index() as u64);
        h.u64(e.consumer.index() as u64);
        h.u64(e.weight.to_bits());
    }
}

/// Byte-level fingerprint of an operation's output: the candidate graph
/// (edge order and weight bits), the matching and the round count.
fn output_fingerprint(graph: &BipartiteGraph, matching: &Matching, rounds: usize) -> u64 {
    let mut h = Fnv::default();
    graph_fingerprint(&mut h, graph);
    let mut edges = matching.to_edge_vec();
    edges.sort_unstable();
    for e in edges {
        h.u64(e as u64);
    }
    h.u64(rounds as u64);
    h.finish()
}

/// The output of one operation, kept for the checks.
struct Output {
    graph: BipartiteGraph,
    capacities: Capacities,
    matching: Matching,
    rounds: usize,
}

impl Output {
    fn fingerprint(&self) -> u64 {
        output_fingerprint(&self.graph, &self.matching, self.rounds)
    }
}

/// The pipeline as `MatchingPipeline::run` composes it, one traced call
/// per layer: `Corpus::build` ×2, the exact candidate generator,
/// capacities, `run_algorithm`.  With `spec.shards > 0` the stages run
/// inside a sharded session, traced as the `distrib` span.
fn traced_pipeline(
    spec: &Spec,
    dataset: &SocialDataset,
    job: JobConfig,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Output {
    if spec.shards == 0 {
        return stages(spec, dataset, job, t, counters);
    }
    let opts = ShardOptions::new(spec.shards).with_session_key(job.name.clone());
    let job = job.with_process_shards(spec.shards);
    let span = t.begin_proc("distrib");
    let output = run_sharded(opts, || stages(spec, dataset, job, t, counters));
    t.end(span);
    counters.distrib_respawns = last_session_stats().map_or(0, |s| s.respawns) as f64;
    output
}

fn stages(
    spec: &Spec,
    dataset: &SocialDataset,
    job: JobConfig,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Output {
    let flow = FlowContext::new(job);
    let tokenizer = TokenizerConfig::tags_only();
    let span = t.begin_proc("text");
    let items = Corpus::build(dataset.items.clone(), &tokenizer);
    t.end(span);
    let span = t.begin_proc("text");
    let consumers = Corpus::build(dataset.consumers.clone(), &tokenizer);
    t.end(span);
    let span = t.begin_proc("simjoin");
    let join = ExactPrefixJoin::new().generate(&items, &consumers, spec.sigma, &flow);
    t.end(span);
    t.attach_jobs(span, &join.job_metrics);
    let span = t.begin_proc("capacities");
    let capacities = dataset.capacities(ALPHA);
    t.end(span);
    let span = t.begin_proc("matching");
    let run = run_algorithm(
        spec.algorithm,
        &join.graph,
        &capacities,
        &runner_config(),
        &flow,
    );
    t.end(span);
    t.attach_jobs(span, &run.job_metrics);

    let report = flow.report();
    *counters = Counters {
        simjoin_indexed_entries: join.indexed_entries as f64,
        simjoin_candidate_pairs: join.candidate_pairs as f64,
        simjoin_pruned: join.candidates_pruned as f64,
        simjoin_verify_exact: join.verify_exact as f64,
        simjoin_edges: join.graph.num_edges() as f64,
        matching_jobs: run.mr_jobs as f64,
        matching_rounds: run.rounds as f64,
        matching_max_round_state_bytes: run.max_round_state_bytes as f64,
        matching_round_s: (0..report.num_rounds())
            .map(|r| {
                report
                    .round_jobs(r)
                    .iter()
                    .map(|m| secs(m.timings.total()))
                    .sum()
            })
            .collect(),
        ..Counters::default()
    };
    Output {
        graph: join.graph,
        capacities,
        matching: run.matching,
        rounds: run.rounds,
    }
}

/// Entry point of a process spawned by a sharded session: replays the
/// one operation its session key names and exits (inside
/// `run_sharded`).  Writes no result and no trace.
pub fn worker_main(args: &Args) -> ! {
    let key = std::env::var(SESSION_ENV).unwrap_or_default();
    let op = key.strip_prefix(SESSION_PREFIX).unwrap_or_default();
    if args.workload == Workload::FlickrGreedy2Shards && !op.is_empty() {
        let spec = spec(args.workload, 1);
        let dataset = spec.preset.generate_with_seed(args.seed);
        // The coordinator points TMPDIR at its run directory before
        // spawning, so the worker resolves the same spill directory.
        let job = job_config(&spec, &std::env::temp_dir().join("spill"), &key);
        if op.starts_with('u') {
            pipeline(&spec, dataset, job).run();
        } else if op.starts_with('t') {
            traced_pipeline(
                &spec,
                &dataset,
                job,
                &mut Tracer::default(),
                &mut Counters::default(),
            );
        }
    }
    // `run_sharded` exits the worker when its session ends; getting here
    // means the key named no session of this program.
    eprintln!("e2ebench worker: no session of this program matches key {key:?}");
    std::process::exit(3);
}

/// Runs a batch workload: set-up, one warm-up operation, operations until
/// `--seconds` have elapsed (alternating with traced ones under
/// `--trace 1`), then the output checks.
pub fn run(workload: Workload, env: &Env) -> Outcome {
    let spec = spec(workload, env.threads);
    let seconds = env.args.seconds;
    let mut out = Outcome::default();
    let mut report = LayerReport::default();

    // Set-up is timed before the first operation and again before every
    // untraced one (each runs on a freshly generated dataset), so the
    // samples span the run as the operations do.
    let mut setup = Vec::new();
    let generate = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let dataset = spec.preset.generate_with_seed(env.args.seed);
        setup.push(secs(t.elapsed()));
        dataset
    };
    for _ in 1..SETUP_SAMPLES {
        generate(&mut setup);
    }
    let dataset = generate(&mut setup);

    let mut seq = 0usize;
    let mut next_name = |kind: char| {
        seq += 1;
        if spec.shards > 0 {
            format!("{SESSION_PREFIX}{kind}{seq}")
        } else {
            format!("e2e-{}", workload.name())
        }
    };
    // Fingerprint of every operation's output (`None` = it panicked or a
    // worker was respawned).
    let mut fingerprints: Vec<Option<u64>> = Vec::new();
    let mut untraced = |name: String| {
        let input = generate(&mut setup);
        let p = pipeline(&spec, input, job_config(&spec, &env.spill_dir, &name));
        let t = Instant::now();
        let run = catch_unwind(AssertUnwindSafe(move || p.run()));
        let wall = secs(t.elapsed());
        let respawned = spec.shards > 0 && last_session_stats().is_none_or(|s| s.respawns > 0);
        let output = run.ok().filter(|_| !respawned).map(|r| Output {
            rounds: r.matching.rounds,
            graph: r.graph,
            capacities: r.capacities,
            matching: r.matching.matching,
        });
        (wall, output)
    };

    let (_, warm_up) = untraced(next_name('u'));
    fingerprints.push(warm_up.as_ref().map(Output::fingerprint));
    drop(warm_up);

    let mut tracer = Tracer::default();
    let mut walls = Vec::new();
    let loop_start = Instant::now();
    // The last operation's output is the one checked; every earlier one is
    // dropped before the next starts, so nothing extra is resident while
    // the loop runs.
    let last = loop {
        let (wall, output) = untraced(next_name('u'));
        walls.push(wall);
        fingerprints.push(output.as_ref().map(Output::fingerprint));
        let traced_enough = !env.args.trace || !report.breakdowns.is_empty();
        if loop_start.elapsed().as_secs_f64() >= seconds && traced_enough {
            break output;
        }
        drop(output);
        if env.args.trace {
            let name = next_name('t');
            let root = tracer.begin_proc("op");
            let mut counters = Counters::default();
            let traced = catch_unwind(AssertUnwindSafe(|| {
                traced_pipeline(
                    &spec,
                    &dataset,
                    job_config(&spec, &env.spill_dir, &name),
                    &mut tracer,
                    &mut counters,
                )
            }));
            tracer.unwind_to(root);
            tracer.end(root);
            let respawned = counters.distrib_respawns > 0.0;
            fingerprints.push(traced.ok().filter(|_| !respawned).map(|o| o.fingerprint()));
            report.breakdowns.push(tracer.breakdown(root));
            report.counters = counters;
        }
    };
    let loop_wall = secs(loop_start.elapsed());
    report.setup_datagen = setup;
    let peak_rss = crate::proc_stats::peak_rss_mb();

    // Output checks, outside every timed section.
    let reference_fp = last.as_ref().map(Output::fingerprint);
    let oracle_ok = match &last {
        Some(output) => oracle_checks(&spec, env, &dataset, output, &mut out),
        None => {
            out.checks.push(check(
                "last operation",
                false,
                "it panicked or a worker was respawned",
            ));
            false
        }
    };
    out.attempted = fingerprints.len() as u64;
    out.failed = fingerprints
        .iter()
        .filter(|fp| fp.is_none() || **fp != reference_fp || !oracle_ok)
        .count() as u64;
    out.checks.push(check(
        "every operation's output is byte-identical",
        fingerprints.iter().all(|fp| *fp == reference_fp),
        format!(
            "{} operations, fingerprint {:016x}",
            fingerprints.len(),
            reference_fp.unwrap_or(0)
        ),
    ));

    if env.args.trace {
        report.untraced_walls = walls;
        out.metrics = report.metrics();
        out.table = report.table();
        out.tracer = Some(tracer);
    } else {
        // Quality relative to the centralized greedy on the same candidate
        // graph: stable across seeds, unlike the raw matching value.
        let quality = last.as_ref().map_or(0.0, |o| {
            let greedy = greedy_matching(&o.graph, &o.capacities).value(&o.graph);
            ratio(o.matching.value(&o.graph), greedy)
        });
        let walls_ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
        let times = Timings {
            setup_s: median(&report.setup_datagen),
            latency_p50_ms: median(&walls_ms),
            latency_tail_ms: stats::tail(&walls_ms),
            throughput_per_s: ratio(walls.len() as f64, loop_wall),
        };
        out.metrics = times.metrics(peak_rss, quality);
        let each: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
        out.table = vec![format!(
            "# {} timed operations of MatchingPipeline::run in {:.2} s ({} s each); matching value {}",
            walls.len(),
            loop_wall,
            each.join(" "),
            last.as_ref().map_or(0.0, |o| o.matching.value(&o.graph))
        )];
    }
    out
}

/// Checks the reference output against independent oracles.  Returns
/// whether all passed.
fn oracle_checks(
    spec: &Spec,
    env: &Env,
    dataset: &SocialDataset,
    output: &Output,
    out: &mut Outcome,
) -> bool {
    let mut passed = Vec::new();

    // The candidate graph equals the brute-force join as an edge set, with
    // weights within 1e-9 (summation order differs, so bytes need not).
    let tokenizer = TokenizerConfig::tags_only();
    let items = Corpus::build(dataset.items.clone(), &tokenizer);
    let consumers = Corpus::build(dataset.consumers.clone(), &tokenizer);
    let baseline = baseline_similarity_join(&items, &consumers, spec.sigma);
    let edge_set = |g: &BipartiteGraph| {
        let mut edges: Vec<(usize, usize, f64)> = g
            .edges()
            .iter()
            .map(|e| (e.item.index(), e.consumer.index(), e.weight))
            .collect();
        edges.sort_by_key(|e| (e.0, e.1));
        edges
    };
    let (ours, theirs) = (edge_set(&output.graph), edge_set(&baseline));
    let same = ours.len() == theirs.len()
        && ours
            .iter()
            .zip(&theirs)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1 && (a.2 - b.2).abs() <= 1e-9);
    passed.push(same);
    out.checks.push(check(
        "graph = baseline_similarity_join",
        same,
        format!("{} edges vs {} brute force", ours.len(), theirs.len()),
    ));

    match spec.algorithm {
        AlgorithmKind::GreedyMr if spec.shards == 0 => {
            let mut greedy = greedy_matching(&output.graph, &output.capacities).to_edge_vec();
            let mut ours = output.matching.to_edge_vec();
            greedy.sort_unstable();
            ours.sort_unstable();
            let same = greedy == ours;
            passed.push(same);
            out.checks.push(check(
                "GreedyMR = centralized greedy_matching",
                same,
                format!("{} vs {} matched edges", ours.len(), greedy.len()),
            ));
            let feasible = output
                .matching
                .is_feasible(&output.graph, &output.capacities);
            passed.push(feasible);
            out.checks.push(check("matching is feasible", feasible, ""));
        }
        AlgorithmKind::StackMr => {
            let unbudgeted = Spec {
                budget: None,
                ..spec.clone()
            };
            let name = format!("e2e-{}-unbudgeted", env.args.workload.name());
            let graph = pipeline(
                &unbudgeted,
                dataset.clone(),
                job_config(&unbudgeted, &env.spill_dir, &name),
            )
            .build_graph()
            .graph;
            let (mut a, mut b) = (Fnv::default(), Fnv::default());
            graph_fingerprint(&mut a, &output.graph);
            graph_fingerprint(&mut b, &graph);
            let same = a.finish() == b.finish();
            passed.push(same);
            out.checks.push(check(
                "budgeted graph = unbudgeted graph, byte for byte",
                same,
                format!("{} edges", graph.num_edges()),
            ));
            let violation = output
                .matching
                .max_violation(&output.graph, &output.capacities);
            let within = violation <= EPSILON + 1e-9;
            passed.push(within);
            out.checks.push(check(
                "StackMR max_violation <= epsilon",
                within,
                format!("{violation:.4} <= {EPSILON}"),
            ));
        }
        _ => {
            // The sharded run must reproduce the in-process run exactly;
            // at a fixed task layout any thread count gives the same bytes.
            let local = Spec {
                shards: 0,
                threads: env.threads,
                ..spec.clone()
            };
            let name = format!("e2e-{}-local", env.args.workload.name());
            let run = pipeline(
                &local,
                dataset.clone(),
                job_config(&local, &env.spill_dir, &name),
            )
            .run();
            let same = output_fingerprint(&run.graph, &run.matching.matching, run.matching.rounds)
                == output.fingerprint();
            passed.push(same);
            out.checks.push(check(
                "sharded output = in-process output, byte for byte",
                same,
                format!(
                    "{} edges, {} rounds",
                    run.graph.num_edges(),
                    run.matching.rounds
                ),
            ));
        }
    }
    passed.iter().all(|p| *p)
}
