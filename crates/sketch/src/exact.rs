//! The reference generator: the exact prefix-filter join, recall = 1.0 by
//! construction.

use smr_mapreduce::flow::FlowContext;
use smr_simjoin::{mapreduce_similarity_join, SimJoinResult, EXACT_GENERATOR};
use smr_text::SparseVector;

use crate::CandidateGenerator;

/// Wraps [`mapreduce_similarity_join`] behind the
/// [`CandidateGenerator`] interface.  This is the default generator of the
/// matching pipeline and the frontier's reference point: it misses no pair
/// with similarity ≥ σ, so every sketch generator's recall is measured
/// against its edge set.  Going through this type is byte-identical to
/// calling the join directly — it adds nothing and removes nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExactPrefixJoin;

impl ExactPrefixJoin {
    /// Creates the exact generator.
    pub fn new() -> Self {
        ExactPrefixJoin
    }
}

impl CandidateGenerator for ExactPrefixJoin {
    fn name(&self) -> String {
        EXACT_GENERATOR.to_string()
    }

    fn generate_vectors(
        &self,
        item_vectors: &[SparseVector],
        consumer_vectors: &[SparseVector],
        item_names: &[String],
        consumer_names: &[String],
        sigma: f64,
        flow: &FlowContext,
    ) -> SimJoinResult {
        mapreduce_similarity_join(
            item_vectors,
            consumer_vectors,
            item_names,
            consumer_names,
            sigma,
            flow,
        )
    }
}
