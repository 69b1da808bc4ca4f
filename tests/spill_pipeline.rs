//! End-to-end acceptance of the out-of-core storage layer: a full
//! pipeline run (similarity join + GreedyMR rounds) under a small memory
//! budget must
//!
//! 1. produce output **byte-identical** to the unlimited-budget run,
//! 2. report `disk_runs > 0` and `spill_bytes > 0` in its job metrics,
//! 3. leave **no temp files behind** once the jobs (and their
//!    `SpillManager`s) are done.

use social_content_matching::datagen::FlickrGenerator;
use social_content_matching::mapreduce::JobConfig;
use social_content_matching::matching::AlgorithmKind;
use social_content_matching::{MatchingPipeline, PipelineRun};

fn dataset() -> social_content_matching::datagen::SocialDataset {
    FlickrGenerator {
        num_photos: 80,
        num_users: 30,
        vocabulary: 100,
        seed: 11,
        ..FlickrGenerator::default()
    }
    .generate()
}

fn run_pipeline(budget: Option<u64>, spill_dir: Option<&std::path::Path>) -> PipelineRun {
    let mut pipeline = MatchingPipeline::new(dataset())
        .sigma(0.1)
        .algorithm(AlgorithmKind::GreedyMr)
        .job(JobConfig::named("spill-e2e").with_threads(2))
        .memory_budget(budget);
    if let Some(dir) = spill_dir {
        pipeline = pipeline.spill_dir(dir);
    }
    pipeline.run()
}

#[test]
fn budgeted_pipeline_is_byte_identical_spills_and_cleans_up() {
    let unlimited = run_pipeline(None, None);
    assert_eq!(
        unlimited.report.totals.disk_runs, 0,
        "the unlimited run must not touch disk"
    );

    let spill_base = std::env::temp_dir().join(format!("smr-e2e-spill-{}", std::process::id()));
    std::fs::create_dir_all(&spill_base).unwrap();
    // A 1 KiB budget across the whole pipeline: every join job and every
    // matching round spills.
    let budgeted = run_pipeline(Some(1024), Some(&spill_base));

    // (1) Byte-identity of everything the pipeline produces.
    assert_eq!(budgeted.graph.edges(), unlimited.graph.edges());
    assert_eq!(
        budgeted.matching.matching.to_edge_vec(),
        unlimited.matching.matching.to_edge_vec()
    );
    assert_eq!(budgeted.matching.rounds, unlimited.matching.rounds);
    assert_eq!(
        budgeted.report.total_shuffled_records(),
        unlimited.report.total_shuffled_records()
    );

    // (2) The spill path actually ran, and the metrics say so.
    assert!(
        budgeted.report.totals.disk_runs > 0,
        "disk_runs must be reported: {:?}",
        budgeted.report.totals
    );
    assert!(
        budgeted.report.totals.spill_bytes > 0,
        "spill_bytes must be reported: {:?}",
        budgeted.report.totals
    );
    // Per-job metrics carry the spill accounting too (at least one job
    // spilled; sums match the totals).
    let per_job_runs: u64 = budgeted.report.jobs.iter().map(|m| m.disk_runs).sum();
    assert_eq!(per_job_runs, budgeted.report.totals.disk_runs);

    // (3) Every SpillManager removed its spill file.
    assert_eq!(
        std::fs::read_dir(&spill_base).unwrap().count(),
        0,
        "no temp files may outlive the pipeline"
    );
    std::fs::remove_dir_all(&spill_base).unwrap();
}

#[test]
fn pipeline_under_the_env_budget_matches_the_unlimited_run() {
    // The CI spill job sets SMR_MEMORY_BUDGET for the whole suite; this
    // test pins the invariant it relies on — defaults (whatever the
    // environment) and an explicit unlimited budget agree bit-for-bit.
    let default_budget = MatchingPipeline::new(dataset())
        .sigma(0.1)
        .job(JobConfig::named("spill-env").with_threads(2))
        .run();
    let unlimited = run_pipeline(None, None);
    assert_eq!(
        default_budget.matching.matching.to_edge_vec(),
        unlimited.matching.matching.to_edge_vec()
    );
    assert_eq!(
        default_budget.report.total_shuffled_records(),
        unlimited.report.total_shuffled_records()
    );
}
