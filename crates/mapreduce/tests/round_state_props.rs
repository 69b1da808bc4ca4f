//! Property tests locking [`RoundState`] to its `Vec` model.
//!
//! Random sequences of `seed` / `absorb(output, keep)` / `dataset()` /
//! `clear` run against a flow at engine budgets {unlimited, 4 KiB, 64 B}.
//! After every step the state's live records — read back from its run
//! file through the tombstone-aware reader — must equal the model exactly,
//! in order: after `seed(records)` the model is `records`; after
//! `absorb(output, keep)` it is `output` filtered by `keep`; after `clear`
//! it is empty.  `keep` must be called once per output record, in output
//! order, and at most one round file may exist at any time.

use proptest::prelude::*;
use smr_mapreduce::prelude::*;

type Records = Vec<(u32, u64)>;

/// One generated step: an operation selector plus a batch of
/// `(key, value, keep)` triples (keys are deduplicated before use, since
/// round outputs are keyed by node).
type Step = (u8, Vec<(u32, u64, bool)>);

/// The batch's records with duplicate keys dropped (first occurrence
/// wins), and the matching keep mask.
fn unique_records(batch: &[(u32, u64, bool)]) -> (Records, Vec<bool>) {
    let mut seen = std::collections::HashSet::new();
    batch
        .iter()
        .filter(|(k, _, _)| seen.insert(*k))
        .map(|&(k, v, keep)| ((k, v), keep))
        .unzip()
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u8..10,
            proptest::collection::vec((0u32..48, any::<u64>(), any::<bool>()), 0..24),
        ),
        1..14,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn round_state_matches_the_vec_model_at_every_step(steps in steps()) {
        for budget in [None, Some(4 * 1024u64), Some(64)] {
            let flow = FlowContext::new(
                JobConfig::named("round-state-props").with_memory_budget(budget),
            );
            let side = flow.side_store();
            let mut state: RoundState<u32, u64> = flow.round_state("model");
            let mut model: Records = Vec::new();
            let mut absorbed = 0usize;
            for (step, (op, batch)) in steps.iter().enumerate() {
                let (records, mask) = unique_records(batch);
                match op {
                    0..=1 => {
                        state.seed(records.clone());
                        model = records;
                    }
                    2 => {
                        state.clear();
                        model.clear();
                    }
                    // Read-only step: the checks below re-read the state.
                    3..=4 => {}
                    _ => {
                        let mut calls: Records = Vec::new();
                        let mut next = mask.iter();
                        state.absorb(records.clone(), |k, v| {
                            calls.push((*k, *v));
                            *next.next().expect("keep called past the output")
                        });
                        prop_assert!(
                            calls == records,
                            "keep must see every output record in order (step {step})"
                        );
                        model = records
                            .into_iter()
                            .zip(&mask)
                            .filter(|(_, keep)| **keep)
                            .map(|(record, _)| record)
                            .collect();
                        absorbed += 1;
                    }
                }
                let context = format!("budget={budget:?} step={step} op={op}");
                prop_assert!(state.dataset().collect() == model, "{context}: records");
                prop_assert_eq!(state.len(), model.len());
                prop_assert_eq!(state.is_empty(), model.is_empty());
                prop_assert_eq!(state.round(), absorbed);
                prop_assert!(side.paths().len() <= 1, "{context}: superseded file kept");
            }
            drop(state);
            prop_assert!(side.paths().is_empty(), "drop must remove the round file");
        }
    }
}
