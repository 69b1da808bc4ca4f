//! Property tests locking the tournament (loser-tree) merge to its model,
//! a stable sort of the runs concatenated in run order: across run counts
//! {1, 2, 7, 64} and duplicate-key densities from all-distinct to
//! nearly-all-equal, the two must be **byte-identical** — same records,
//! same order, same `(key, run, position)` tie-break.  Values tag their `(run, position)` of
//! origin, so any deviation in the determinism contract (equal keys emit
//! in run order, within-run order intact) shows up as a concrete diff,
//! not just a multiset mismatch.

use proptest::prelude::*;
use smr_mapreduce::merge_runs;

/// Deterministic xorshift so run shapes derive from one seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self, modulus: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % modulus
    }
}

/// Builds `run_count` sorted runs whose keys are drawn modulo `key_mod` —
/// small moduli force heavy duplicate-key collisions across runs.  Each
/// value records where the record came from.
fn build_runs(
    seed: u64,
    run_count: usize,
    key_mod: u64,
    max_len: usize,
) -> Vec<Vec<(u32, (u32, u32))>> {
    let mut rng = XorShift(seed | 1);
    (0..run_count)
        .map(|run| {
            let len = rng.next(max_len as u64 + 1) as usize;
            let mut records: Vec<(u32, (u32, u32))> = (0..len)
                .map(|position| {
                    let key = rng.next(key_mod) as u32;
                    (key, (run as u32, position as u32))
                })
                .collect();
            records.sort_by_key(|record| record.0);
            records
        })
        .collect()
}

/// The merge's model: concatenate in run order, then stable-sort by key.
fn concat_and_sort(runs: &[Vec<(u32, (u32, u32))>]) -> Vec<(u32, (u32, u32))> {
    let mut all: Vec<(u32, (u32, u32))> = runs.iter().flatten().copied().collect();
    all.sort_by_key(|record| record.0);
    all
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tournament_merge_is_identical_to_the_stable_sort_model(
        seed in 1u64..1_000_000,
        key_mod in 1u64..48,
        max_len in 0usize..40,
    ) {
        for run_count in [1usize, 2, 7, 64] {
            let runs = build_runs(seed, run_count, key_mod, max_len);
            let tournament = merge_runs(runs.clone());
            let model = concat_and_sort(&runs);
            prop_assert!(
                tournament == model,
                "loser tree diverged from the model: run_count={run_count} \
                 key_mod={key_mod} runs={runs:?}"
            );
        }
    }

    #[test]
    fn all_equal_keys_emit_in_exact_run_position_order(
        run_count_index in 0usize..4,
        len in 1usize..12,
    ) {
        // The degenerate density: every record shares one key, so the
        // output order IS the tie-break contract and nothing else.
        let run_count = [1usize, 2, 7, 64][run_count_index];
        let runs: Vec<Vec<(u32, (u32, u32))>> = (0..run_count)
            .map(|run| {
                (0..len)
                    .map(|position| (7u32, (run as u32, position as u32)))
                    .collect()
            })
            .collect();
        let merged = merge_runs(runs.clone());
        let expected: Vec<(u32, (u32, u32))> = runs.iter().flatten().copied().collect();
        prop_assert!(merged == expected, "tie-break order broken: {merged:?}");
        prop_assert_eq!(&merged, &concat_and_sort(&runs));
    }
}
