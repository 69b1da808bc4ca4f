//! Ablation benchmarks for the design choices called out in `DESIGN.md`:
//!
//! * the marking strategy of the maximal-matching subroutine
//!   (random = StackMR, heaviest-first = StackGreedyMR,
//!   weight-proportional = the third variant the paper dismisses),
//! * the slackness parameter ε (violation vs rounds trade-off),
//! * the thread count of the MapReduce engine (scaling of one GreedyMR
//!   round),
//! * the shuffle engine: streaming sorted-runs + k-way merge vs the
//!   legacy concat+sort path, on a full GreedyMR run.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use smr_datagen::{RandomGraphConfig, WeightDistribution};
use smr_graph::Capacities;
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{GreedyMr, GreedyMrConfig, MarkingStrategy, StackMr, StackMrConfig};

fn bench_graph(num_edges: usize, seed: u64) -> (smr_graph::BipartiteGraph, Capacities) {
    let graph = RandomGraphConfig {
        num_items: 250,
        num_consumers: 100,
        num_edges,
        weights: WeightDistribution::Exponential {
            min: 0.05,
            rate: 8.0,
            cap: 1.0,
        },
        popularity_exponent: 0.8,
        seed,
    }
    .generate();
    let caps = Capacities::uniform(&graph, 4, 3);
    (graph, caps)
}

/// Marking-strategy ablation: the StackMR / StackGreedyMR /
/// weight-proportional variants on the same instance.
fn bench_marking_strategy(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_marking_strategy");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000, 11);
    for (name, strategy) in [
        ("random", MarkingStrategy::Random),
        ("heaviest_first", MarkingStrategy::HeaviestFirst),
        ("weight_proportional", MarkingStrategy::WeightProportional),
    ] {
        group.bench_function(BenchmarkId::new("stack_mr", name), |b| {
            b.iter(|| {
                let job = JobConfig::named("ablation");
                StackMr::new(StackMrConfig::default().with_seed(5).with_marking(strategy)).run(
                    &graph,
                    &caps,
                    &FlowContext::new(job),
                )
            })
        });
    }
    group.finish();
}

/// ε ablation: thinner layers (small ε) trade more rounds for smaller
/// capacity violations.
fn bench_epsilon(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_epsilon");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(2_000, 13);
    for &epsilon in &[0.25f64, 0.5, 1.0, 2.0] {
        group.bench_with_input(
            BenchmarkId::new("stack_mr_eps", format!("{epsilon}")),
            &epsilon,
            |b, &eps| {
                b.iter(|| {
                    let job = JobConfig::named("ablation");
                    StackMr::new(StackMrConfig::default().with_seed(5).with_epsilon(eps)).run(
                        &graph,
                        &caps,
                        &FlowContext::new(job),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Thread-count ablation of the MapReduce engine, measured on a full
/// GreedyMR run.
fn bench_threads(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_engine_threads");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(3_000, 17);
    for &threads in &[1usize, 2, 8] {
        group.bench_with_input(
            BenchmarkId::new("greedymr_threads", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    let job = JobConfig::named("ablation").with_threads(t);
                    GreedyMr::new(GreedyMrConfig::default()).run(
                        &graph,
                        &caps,
                        &FlowContext::new(job),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Out-of-core ablation: identical GreedyMR runs with an unlimited,
/// a moderate and a tiny memory budget — the cost of spilling sorted runs
/// to disk and streaming them back through the external merge.
fn bench_memory_budget(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_memory_budget");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let (graph, caps) = bench_graph(3_000, 19);
    for (name, budget) in [
        ("unlimited", None),
        ("256KiB", Some(256 * 1024u64)),
        ("4KiB", Some(4 * 1024)),
    ] {
        group.bench_function(BenchmarkId::new("greedymr_budget", name), |b| {
            b.iter(|| {
                let job = JobConfig::named("ablation").with_memory_budget(budget);
                GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::new(job))
            })
        });
    }
    group.finish();
}

criterion_group!(
    ablation_benches,
    bench_marking_strategy,
    bench_epsilon,
    bench_threads,
    bench_memory_budget,
);
criterion_main!(ablation_benches);
