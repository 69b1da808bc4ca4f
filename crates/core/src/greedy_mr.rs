//! GreedyMR: the MapReduce adaptation of the greedy algorithm
//! (Section 5.4, Algorithm 3).
//!
//! Every round is one MapReduce job over the node-centric graph
//! representation:
//!
//! * **map** — every node `v` proposes its `b(v)` heaviest live edges and
//!   sends, for every live incident edge, its view of that edge (proposal
//!   flag and residual capacity) to both endpoints;
//! * **reduce** — every node unifies the two views of each incident edge:
//!   edges proposed by *both* endpoints enter the solution, the node's
//!   residual capacity is decreased accordingly, matched edges and edges
//!   towards saturated neighbours are dropped from the adjacency, and the
//!   updated node record is emitted for the next round.
//!
//! The algorithm stops when no live edge remains.  The solution grows
//! monotonically and is feasible after every round, which is the *any-time*
//! property highlighted in the paper (Figure 5): the run can be stopped at
//! any round and still return a valid b-matching.
//!
//! Execution is a plain loop of rounds, each one MapReduce job built
//! through a [`FlowContext`] — so the run's round accounting and the
//! flow's per-job metrics describe the same jobs, and the caller-provided
//! flow of [`GreedyMr::run`] folds the rounds into a larger pipeline's
//! [`smr_mapreduce::FlowReport`].  Between rounds the surviving node
//! records live in a disk-backed [`RoundState`], so the run never
//! retains the full candidate edge list in memory.

use serde::{Deserialize, Serialize};
use smr_graph::{BipartiteGraph, Capacities, EdgeId, Matching, NodeId};
use smr_mapreduce::flow::FlowContext;
use smr_mapreduce::{Emitter, Mapper, Reducer, RoundState};
use smr_storage::impl_codec_struct;

use crate::config::GreedyMrConfig;
use crate::result::{AlgorithmKind, MatchingRun};
use crate::state::{build_node_records, AdjEdge, NodeRecord};

/// A message exchanged between the two endpoints of an edge during one
/// GreedyMR round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EdgeView {
    /// The edge this message describes.
    pub edge: EdgeId,
    /// The node that sent this view.
    pub sender: NodeId,
    /// The node the message is about to reach (the other endpoint, or the
    /// sender itself for the self-addressed copy).
    pub other: NodeId,
    /// Edge weight.
    pub weight: f64,
    /// Residual capacity of the sender at the start of the round.
    pub sender_capacity: u64,
    /// Whether the sender proposes this edge (it is among the sender's
    /// `b(v)` heaviest live edges).
    pub proposed: bool,
}

impl_codec_struct!(EdgeView {
    edge,
    sender,
    other,
    weight,
    sender_capacity,
    proposed
});

/// Output of one reducer invocation: the node's updated record plus the
/// edges it matched this round.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GreedyRoundOutput {
    /// The updated node record (empty adjacency when the node is done).
    pub record: NodeRecord,
    /// Edges newly matched this round (each matched edge is reported by
    /// both endpoints; the driver deduplicates).
    pub matched: Vec<EdgeId>,
}

impl_codec_struct!(GreedyRoundOutput { record, matched });

/// The map function of a GreedyMR round.
struct ProposeMapper;

impl Mapper for ProposeMapper {
    type InKey = NodeId;
    type InValue = NodeRecord;
    type OutKey = NodeId;
    type OutValue = EdgeView;

    fn map(&self, node: &NodeId, record: &NodeRecord, out: &mut Emitter<NodeId, EdgeView>) {
        debug_assert_eq!(*node, record.node);
        // Determine the proposals: the b(v) heaviest live edges.
        let proposal_count = (record.capacity as usize).min(record.adjacency.len());
        let proposed_idx = record.heaviest_edges(proposal_count);
        let mut proposed = vec![false; record.adjacency.len()];
        for idx in proposed_idx {
            proposed[idx] = true;
        }
        for (idx, adj) in record.adjacency.iter().enumerate() {
            let view = EdgeView {
                edge: adj.edge,
                sender: record.node,
                other: adj.other,
                weight: adj.weight,
                sender_capacity: record.capacity,
                proposed: proposed[idx] && record.capacity > 0,
            };
            // Both endpoints must learn the sender's view: the neighbour to
            // compute the proposal intersection, the sender itself so that
            // its reducer has its own proposals and capacity available.
            out.emit(adj.other, view.clone());
            out.emit(record.node, view);
        }
    }
}

/// The reduce function of a GreedyMR round.
struct IntersectReducer;

impl Reducer for IntersectReducer {
    type Key = NodeId;
    type InValue = EdgeView;
    type OutKey = NodeId;
    type OutValue = GreedyRoundOutput;

    fn reduce(
        &self,
        node: &NodeId,
        views: &[EdgeView],
        out: &mut Emitter<NodeId, GreedyRoundOutput>,
    ) {
        // Split the incoming views into the node's own views and the
        // neighbours' views, indexed by edge.
        let own: Vec<&EdgeView> = views.iter().filter(|m| m.sender == *node).collect();
        if own.is_empty() {
            // The node emitted nothing this round (it had disappeared
            // earlier); nothing to output.
            return;
        }
        let capacity = own[0].sender_capacity;
        let neighbour_views: std::collections::HashMap<EdgeId, &EdgeView> = views
            .iter()
            .filter(|m| m.sender != *node)
            .map(|m| (m.edge, m))
            .collect();

        let mut matched: Vec<EdgeId> = Vec::new();
        let mut next_adjacency: Vec<AdjEdge> = Vec::new();
        for own_view in &own {
            let neighbour_view = neighbour_views.get(&own_view.edge).copied();
            match neighbour_view {
                Some(nv) => {
                    if own_view.proposed && nv.proposed {
                        matched.push(own_view.edge);
                    } else if nv.sender_capacity == 0 || capacity == 0 {
                        // The neighbour (or this node) is saturated: the
                        // edge can never be matched, drop it.
                    } else {
                        next_adjacency.push(AdjEdge::new(
                            own_view.edge,
                            own_view.other,
                            own_view.weight,
                        ));
                    }
                }
                None => {
                    // The neighbour no longer exists; drop the edge.
                }
            }
        }
        matched.sort_unstable();
        matched.dedup();
        let new_capacity = capacity - matched.len() as u64;
        // A node whose capacity reached zero drops all remaining edges: its
        // neighbours do the same in this very round because they see the
        // capacity in the messages (or will see capacity 0 next round if it
        // became zero only now).
        let adjacency = if new_capacity == 0 {
            Vec::new()
        } else {
            next_adjacency
        };
        out.emit(
            *node,
            GreedyRoundOutput {
                record: NodeRecord::new(*node, new_capacity, adjacency),
                matched,
            },
        );
    }
}

/// The GreedyMR algorithm.
#[derive(Debug, Clone, Default)]
pub struct GreedyMr {
    config: GreedyMrConfig,
}

impl GreedyMr {
    /// Creates the algorithm with the given configuration.
    pub fn new(config: GreedyMrConfig) -> Self {
        GreedyMr { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GreedyMrConfig {
        &self.config
    }

    /// Runs GreedyMR with every round's job built through `flow`: the
    /// flow's `JobConfig` governs the engine (threads, shuffle mode,
    /// reduce tasks) and every round reports into the flow's
    /// [`smr_mapreduce::FlowReport`], unified with whatever other jobs the
    /// surrounding pipeline ran.
    ///
    /// Between rounds the surviving node records live in a
    /// [`RoundState`] — on disk in the flow's side store, with matched-out
    /// nodes retired via tombstones instead of a rewritten survivor list —
    /// so no stage of the run holds the full candidate edge list in
    /// memory.
    pub fn run(
        &self,
        graph: &BipartiteGraph,
        caps: &Capacities,
        flow: &FlowContext,
    ) -> MatchingRun {
        let jobs_start = flow.num_jobs();
        let mut state: RoundState<NodeId, GreedyRoundOutput> = flow.round_state("greedy-rounds");
        state.seed(
            build_node_records(graph, caps)
                .into_iter()
                .map(|(node, record)| {
                    (
                        node,
                        GreedyRoundOutput {
                            record,
                            matched: Vec::new(),
                        },
                    )
                })
                .collect(),
        );
        let mut matching = Matching::new(graph.num_edges());
        let mut value_per_round = Vec::new();
        let mut rounds = 0usize;

        for round in 0..self.config.max_rounds {
            // Converged: no live edge remains.  An edgeless graph stops
            // here before its first round, running zero jobs.
            if state.is_empty() {
                break;
            }
            flow.mark_round();
            let output = state
                .dataset_with(|node, out| (node, out.record))
                .map_with(ProposeMapper)
                .named(format!("round-{round}"))
                .reduce_with(IntersectReducer)
                .collect();
            rounds += 1;

            // Absorb the round output: matched edges land in the matching,
            // matched-out (isolated) nodes are retired from the next
            // round's input.  Progress is guaranteed: the globally heaviest
            // live edge is the heaviest live edge of both of its endpoints,
            // so both propose it and it is matched — every round either
            // matches an edge or runs on an already-empty graph.
            state.absorb(output, |_, out| {
                for &e in &out.matched {
                    matching.insert(e);
                }
                !out.record.is_isolated()
            });
            value_per_round.push(matching.value(graph));
        }

        let job_metrics = flow.jobs_from(jobs_start);
        MatchingRun {
            algorithm: AlgorithmKind::GreedyMr,
            matching,
            mr_jobs: job_metrics.len(),
            rounds,
            value_per_round,
            job_metrics,
            max_round_state_bytes: state.max_state_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_matching;
    use crate::greedy::greedy_matching;
    use smr_graph::{ConsumerId, Edge, GraphBuilder, ItemId};
    use smr_mapreduce::JobConfig;

    fn config() -> GreedyMrConfig {
        GreedyMrConfig::default()
    }

    fn job() -> JobConfig {
        JobConfig::named("greedy-mr-test").with_threads(2)
    }

    /// Test helper: run under a throwaway flow.
    fn run(alg: GreedyMr, g: &BipartiteGraph, caps: &Capacities) -> MatchingRun {
        alg.run(g, caps, &FlowContext::new(job()))
    }

    fn small_instance() -> (BipartiteGraph, Capacities) {
        let g = BipartiteGraph::from_edges(
            2,
            2,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 1.0),
                Edge::new(ItemId(0), ConsumerId(1), 2.0),
                Edge::new(ItemId(1), ConsumerId(0), 3.0),
                Edge::new(ItemId(1), ConsumerId(1), 1.0),
            ],
        );
        let caps = Capacities::uniform(&g, 1, 1);
        (g, caps)
    }

    #[test]
    fn greedy_mr_finds_the_same_value_as_centralized_greedy_on_unique_weights() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(config()), &g, &caps);
        let centralized = greedy_matching(&g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        // With all-distinct weights both algorithms pick the same edges.
        assert_eq!(run.matching.to_edge_vec(), centralized.to_edge_vec());
        assert!((run.value(&g) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_mr_is_feasible_and_half_optimal_on_a_larger_instance() {
        let mut b = GraphBuilder::new();
        let items: Vec<ItemId> = (0..6).map(|i| b.add_item(format!("t{i}"))).collect();
        let consumers: Vec<ConsumerId> = (0..8).map(|i| b.add_consumer(format!("c{i}"))).collect();
        // Deterministic pseudo-random weights.
        let mut w = 0.37_f64;
        for (ti, &t) in items.iter().enumerate() {
            for (ci, &c) in consumers.iter().enumerate() {
                if (ti + ci) % 3 != 0 {
                    w = (w * 997.0 + 0.123).fract().max(0.01);
                    b.add_edge(t, c, w);
                }
            }
        }
        let g = b.build();
        let caps = Capacities::uniform(&g, 3, 2);
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        let opt = optimal_matching(&g, &caps);
        assert!(
            run.value(&g) >= 0.5 * opt.value(&g) - 1e-9,
            "GreedyMR value {} below half of optimal {}",
            run.value(&g),
            opt.value(&g)
        );
    }

    #[test]
    fn value_trace_is_monotone_and_any_time() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert!(!run.value_per_round.is_empty());
        for pair in run.value_per_round.windows(2) {
            assert!(pair[1] >= pair[0] - 1e-12, "value decreased across rounds");
        }
        assert!((run.value_per_round.last().unwrap() - run.value(&g)).abs() < 1e-12);
    }

    #[test]
    fn rounds_and_jobs_are_counted() {
        let (g, caps) = small_instance();
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert!(run.rounds >= 1);
        assert_eq!(run.mr_jobs, run.rounds);
        assert_eq!(run.job_metrics.len(), run.mr_jobs);
        assert!(run.total_shuffled_records() > 0);
    }

    #[test]
    fn empty_graph_finishes_without_rounds() {
        let g = BipartiteGraph::from_edges(3, 3, vec![]);
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert_eq!(run.rounds, 0);
        assert!(run.matching.is_empty());
    }

    #[test]
    fn increasing_weight_path_needs_many_rounds() {
        // The worst-case instance of Section 5.4: a path with increasing
        // weights causes a chain of cascading updates.
        let n = 12usize;
        let mut builder = GraphBuilder::new();
        let items: Vec<ItemId> = (0..n).map(|i| builder.add_item(format!("t{i}"))).collect();
        let consumers: Vec<ConsumerId> = (0..n)
            .map(|i| builder.add_consumer(format!("c{i}")))
            .collect();
        // Path t0 - c0 - t1 - c1 - t2 ... with strictly increasing weights.
        let mut weight = 1.0;
        for i in 0..n {
            builder.add_edge(items[i], consumers[i], weight);
            weight += 1.0;
            if i + 1 < n {
                builder.add_edge(items[i + 1], consumers[i], weight);
                weight += 1.0;
            }
        }
        let g = builder.build();
        let caps = Capacities::uniform(&g, 1, 1);
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert!(run.matching.is_feasible(&g, &caps));
        // The number of rounds grows with the path length (not O(1)).
        assert!(
            run.rounds >= n / 2,
            "expected at least {} rounds on the adversarial path, got {}",
            n / 2,
            run.rounds
        );
    }

    #[test]
    fn shared_flow_reports_every_round_of_the_run() {
        use smr_mapreduce::flow::FlowContext;
        let (g, caps) = small_instance();
        let baseline = run(GreedyMr::new(config()), &g, &caps);

        let flow = FlowContext::new(job());
        let run = GreedyMr::new(config()).run(&g, &caps, &flow);

        // Same result as the self-contained entry point…
        assert_eq!(run.matching.to_edge_vec(), baseline.matching.to_edge_vec());
        assert_eq!(run.rounds, baseline.rounds);
        assert_eq!(
            run.total_shuffled_records(),
            baseline.total_shuffled_records()
        );
        // …and every round's job visible in the shared flow report.
        let report = flow.report();
        assert_eq!(report.num_jobs(), run.mr_jobs);
        assert_eq!(
            report.total_shuffled_records(),
            run.total_shuffled_records()
        );
        assert_eq!(report.jobs[0].job_name, "greedy-mr-test-round-0");
    }

    #[test]
    fn spilled_and_in_memory_runs_agree_on_the_matching() {
        let (g, caps) = small_instance();
        let in_memory = GreedyMr::new(config()).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(None)),
        );
        let spilled = GreedyMr::new(config()).run(
            &g,
            &caps,
            &FlowContext::new(job().with_memory_budget(Some(256))),
        );
        assert_eq!(
            spilled.matching.to_edge_vec(),
            in_memory.matching.to_edge_vec()
        );
        assert_eq!(spilled.rounds, in_memory.rounds);
        assert_eq!(
            spilled.total_shuffled_records(),
            in_memory.total_shuffled_records(),
            "GreedyMR has no combiner, so spilling must not change the record flow"
        );
        assert!(
            spilled.job_metrics.iter().map(|m| m.disk_runs).sum::<u64>() > 0,
            "a 256-byte budget must force disk runs"
        );
    }

    #[test]
    fn respects_round_budget() {
        let (g, caps) = small_instance();
        let one = run(GreedyMr::new(config().with_max_rounds(1)), &g, &caps);
        assert_eq!(one.rounds, 1);
        // Still feasible (any-time property).
        assert!(one.matching.is_feasible(&g, &caps));

        // A zero budget runs nothing and returns the empty, feasible
        // matching.
        let zero = run(GreedyMr::new(config().with_max_rounds(0)), &g, &caps);
        assert_eq!((zero.rounds, zero.mr_jobs), (0, 0));
        assert!(zero.job_metrics.is_empty() && zero.value_per_round.is_empty());
        assert!(zero.matching.is_empty());
        assert!(zero.matching.is_feasible(&g, &caps));
    }

    #[test]
    fn capacities_above_degree_match_every_edge() {
        let (g, _) = small_instance();
        let caps = Capacities::uniform(&g, 10, 10);
        let run = run(GreedyMr::new(config()), &g, &caps);
        assert_eq!(run.matching.len(), g.num_edges());
    }
}
