//! Property tests locking the out-of-core matching rounds byte-identical
//! across engine configurations.
//!
//! The invariant of the disk-backed round state: for any instance, any
//! engine memory budget (unlimited, 4 KiB, or a pathological 64 B that
//! spills every run) and any thread count, GreedyMR and StackMR produce
//! exactly the same matching, the same round count, the same any-time
//! value trace and the same shuffle volume as the unbudgeted
//! single-threaded run.  The `RoundState` contract itself is locked
//! against a `Vec` model in `smr_mapreduce`'s `round_state_props`.

use proptest::prelude::*;

use smr_graph::{BipartiteGraph, Capacities, ConsumerId, Edge, ItemId};
use smr_mapreduce::{FlowContext, JobConfig};
use smr_matching::{GreedyMr, GreedyMrConfig, MatchingRun, StackMr, StackMrConfig};

/// A random small b-matching instance: a bipartite graph with up to
/// 6 × 6 nodes, random edges with positive weights, and random capacities.
fn instance_strategy() -> impl Strategy<Value = (BipartiteGraph, Capacities)> {
    (2usize..6, 2usize..6)
        .prop_flat_map(|(items, consumers)| {
            let edge_strategy = proptest::collection::vec(
                (0..items as u32, 0..consumers as u32, 0.01f64..1.0),
                1..(items * consumers + 1),
            );
            let item_caps = proptest::collection::vec(1u64..4, items);
            let consumer_caps = proptest::collection::vec(1u64..4, consumers);
            (
                Just(items),
                Just(consumers),
                edge_strategy,
                item_caps,
                consumer_caps,
            )
        })
        .prop_map(|(items, consumers, raw_edges, item_caps, consumer_caps)| {
            // Deduplicate parallel edges; the raw vector is non-empty, so
            // the graph always keeps at least one edge.
            let mut seen = std::collections::HashSet::new();
            let edges: Vec<Edge> = raw_edges
                .into_iter()
                .filter(|(t, c, _)| seen.insert((*t, *c)))
                .map(|(t, c, w)| Edge::new(ItemId(t), ConsumerId(c), w))
                .collect();
            let graph = BipartiteGraph::from_edges(items, consumers, edges);
            let caps = Capacities::from_vectors(item_caps, consumer_caps);
            (graph, caps)
        })
}

/// The budget × thread grid every equivalence case sweeps: unlimited,
/// a realistic 4 KiB and a pathological 64 B budget, single-threaded and
/// heavily parallel.  The first cell (unbudgeted, one thread) is the
/// reference every cell is compared against.
fn configs() -> Vec<(Option<u64>, usize)> {
    let mut grid = Vec::new();
    for budget in [None, Some(4 * 1024), Some(64)] {
        for threads in [1usize, 8] {
            grid.push((budget, threads));
        }
    }
    grid
}

fn job(name: &str, budget: Option<u64>, threads: usize) -> JobConfig {
    JobConfig::named(name)
        .with_threads(threads)
        .with_memory_budget(budget)
}

fn assert_equivalent(run: &MatchingRun, reference: &MatchingRun, context: &str) {
    assert_eq!(
        run.matching.to_edge_vec(),
        reference.matching.to_edge_vec(),
        "{context}: matchings diverged"
    );
    assert_eq!(run.rounds, reference.rounds, "{context}: rounds diverged");
    assert_eq!(
        run.mr_jobs, reference.mr_jobs,
        "{context}: job counts diverged"
    );
    assert_eq!(
        run.value_per_round, reference.value_per_round,
        "{context}: any-time traces diverged"
    );
    assert_eq!(
        run.total_shuffled_records(),
        reference.total_shuffled_records(),
        "{context}: shuffle volumes diverged"
    );
    assert!(run.max_round_state_bytes > 0, "{context}: no round state");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn greedy_mr_rounds_are_identical_at_any_budget_and_thread_count(
        (graph, caps) in instance_strategy()
    ) {
        let run_with = |budget: Option<u64>, threads: usize| {
            let job = job("greedy-equiv", budget, threads);
            GreedyMr::new(GreedyMrConfig::default()).run(&graph, &caps, &FlowContext::new(job))
        };
        let grid = configs();
        let reference = run_with(grid[0].0, grid[0].1);
        for (budget, threads) in grid {
            assert_equivalent(
                &run_with(budget, threads),
                &reference,
                &format!("GreedyMR budget={budget:?} threads={threads}"),
            );
        }
    }

    #[test]
    fn stack_mr_rounds_are_identical_at_any_budget_and_thread_count(
        (graph, caps) in instance_strategy(),
        seed in 0u64..1000
    ) {
        let run_with = |budget: Option<u64>, threads: usize| {
            let job = job("stack-equiv", budget, threads);
            StackMr::new(StackMrConfig::default().with_seed(seed))
                .run(&graph, &caps, &FlowContext::new(job))
        };
        let grid = configs();
        let reference = run_with(grid[0].0, grid[0].1);
        for (budget, threads) in grid {
            assert_equivalent(
                &run_with(budget, threads),
                &reference,
                &format!("StackMR budget={budget:?} threads={threads}"),
            );
        }
    }
}
