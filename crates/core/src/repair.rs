//! Repairing capacity violations.
//!
//! StackMR may exceed node capacities by a factor of up to (1+ε).  The
//! paper argues such violations are negligible for content delivery; for
//! deployments that cannot tolerate any violation this module turns an
//! arbitrary matching into a *feasible* one by dropping, at every
//! over-subscribed node, its lightest selected edges — the cheapest edges
//! to sacrifice.  The repaired matching loses at most the weight of the
//! dropped edges, which is bounded by `ε/(1+ε)` of the node's selected
//! weight per violated node in the StackMR case.

use smr_graph::{BipartiteGraph, Capacities, Matching, NodeId};

/// The outcome of a repair.
#[derive(Debug, Clone)]
pub struct RepairReport {
    /// The feasible matching after the repair.
    pub matching: Matching,
    /// Edges removed, in removal order.
    pub removed_edges: Vec<usize>,
    /// Total weight removed.
    pub removed_weight: f64,
}

/// Makes `matching` feasible for `caps` by repeatedly removing the
/// lightest selected edge incident to an over-subscribed node.
///
/// Removing an edge decreases the degree of both of its endpoints, so the
/// loop terminates after at most `len()` removals; on already-feasible
/// input it is a no-op.
pub fn repair_violations(
    graph: &BipartiteGraph,
    caps: &Capacities,
    matching: &Matching,
) -> RepairReport {
    assert!(
        caps.matches(graph),
        "capacities were built for a different graph"
    );
    let mut repaired = matching.clone();
    let mut removed_edges = Vec::new();
    let mut removed_weight = 0.0;

    // Collect the currently violated nodes once; removing edges can only
    // shrink degrees, so nodes never become violated during the repair.
    let mut violated: Vec<NodeId> = graph
        .nodes()
        .filter(|&v| repaired.degree(graph, v) as u64 > caps.of(v))
        .collect();

    while let Some(&node) = violated.last() {
        let overflow = repaired.degree(graph, node) as i64 - caps.of(node) as i64;
        if overflow <= 0 {
            violated.pop();
            continue;
        }
        // The lightest selected edge at this node (ties by edge id).
        let lightest = graph
            .incident_edges(node)
            .iter()
            .copied()
            .filter(|&e| repaired.contains(e))
            .min_by(|&a, &b| {
                graph
                    .edge(a)
                    .weight
                    .partial_cmp(&graph.edge(b).weight)
                    .expect("edge weights are finite")
                    .then(a.cmp(&b))
            })
            .expect("a violated node has selected edges");
        repaired.remove(lightest);
        removed_weight += graph.edge(lightest).weight;
        removed_edges.push(lightest);
    }

    debug_assert!(repaired.is_feasible(graph, caps));
    RepairReport {
        matching: repaired,
        removed_edges,
        removed_weight,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::StackMrConfig;
    use crate::stack_mr::StackMr;
    use smr_graph::{ConsumerId, Edge, ItemId};
    use smr_mapreduce::JobConfig;

    fn star_graph() -> BipartiteGraph {
        // One popular item connected to four consumers.
        BipartiteGraph::from_edges(
            1,
            4,
            vec![
                Edge::new(ItemId(0), ConsumerId(0), 4.0),
                Edge::new(ItemId(0), ConsumerId(1), 3.0),
                Edge::new(ItemId(0), ConsumerId(2), 2.0),
                Edge::new(ItemId(0), ConsumerId(3), 1.0),
            ],
        )
    }

    #[test]
    fn feasible_matchings_are_untouched() {
        let g = star_graph();
        let caps = Capacities::from_vectors(vec![2], vec![1, 1, 1, 1]);
        let m = Matching::from_edges(4, [0, 1]);
        let report = repair_violations(&g, &caps, &m);
        assert_eq!(report.matching, m);
        assert!(report.removed_edges.is_empty());
        assert_eq!(report.removed_weight, 0.0);
    }

    #[test]
    fn overflow_drops_the_lightest_edges_first() {
        let g = star_graph();
        let caps = Capacities::from_vectors(vec![2], vec![1, 1, 1, 1]);
        // All four edges selected: item 0 exceeds its capacity by 2.
        let m = Matching::from_edges(4, [0, 1, 2, 3]);
        let report = repair_violations(&g, &caps, &m);
        assert!(report.matching.is_feasible(&g, &caps));
        assert_eq!(report.matching.to_edge_vec(), vec![0, 1]);
        assert_eq!(report.removed_edges.len(), 2);
        assert!((report.removed_weight - 3.0).abs() < 1e-12);
    }

    #[test]
    fn repaired_stackmr_solutions_are_feasible_and_keep_most_value() {
        let g = smr_datagen_free_grid();
        let caps = Capacities::uniform(&g, 2, 2);
        let job = JobConfig::named("repair-test").with_threads(1);
        let run = StackMr::new(StackMrConfig::default().with_seed(23)).run(
            &g,
            &caps,
            &smr_mapreduce::FlowContext::new(job),
        );
        let report = repair_violations(&g, &caps, &run.matching);
        assert!(report.matching.is_feasible(&g, &caps));
        assert!(report.matching.value(&g) <= run.matching.value(&g) + 1e-9);
        assert!(
            (report.matching.value(&g) + report.removed_weight - run.matching.value(&g)).abs()
                < 1e-9
        );
    }

    /// A deterministic medium-density grid graph (local helper to avoid a
    /// dev-dependency on `smr-datagen`).
    fn smr_datagen_free_grid() -> BipartiteGraph {
        let mut edges = Vec::new();
        let mut w = 0.2_f64;
        for t in 0..8u32 {
            for c in 0..8u32 {
                if (t + c) % 2 == 0 {
                    w = (w * 7.77 + 0.13).fract().max(0.05);
                    edges.push(Edge::new(ItemId(t), ConsumerId(c), w));
                }
            }
        }
        BipartiteGraph::from_edges(8, 8, edges)
    }

    #[test]
    fn every_removed_edge_was_selected_and_is_gone() {
        let g = star_graph();
        let caps = Capacities::from_vectors(vec![1], vec![1, 1, 1, 1]);
        let m = Matching::from_edges(4, [1, 2, 3]);
        let report = repair_violations(&g, &caps, &m);
        for &e in &report.removed_edges {
            assert!(m.contains(e));
            assert!(!report.matching.contains(e));
        }
        // Only the heaviest selected edge survives.
        assert_eq!(report.matching.to_edge_vec(), vec![1]);
    }
}
