//! Hot-path perf harness: times each optimised engine lane against the
//! implementation it replaced, **in the same process and run**, and gates
//! on the resulting speedup ratios.
//!
//! Lanes (baseline → optimised):
//!
//! | Lane | Baseline | Optimised |
//! |---|---|---|
//! | `codec` | [`Codec::encode_to_vec`], one allocation per record | [`Codec::encode_into`], caller-owned scratch |
//! | `merge` | `BinaryHeap` k-way merge (`heap_merge`, below) | loser-tree merge (`merge_runs`) |
//! | `probe` | array-of-structs postings + `HashMap` scores | struct-of-arrays postings + open-addressed [`ScoreAccumulator`] |
//!
//! plus the end-to-end pipeline across memory budgets {4 KiB, ∞} ×
//! thread counts {1, 8}, whose outputs are asserted **byte-identical**.
//!
//! Because both sides of every lane run back-to-back on the same machine,
//! the speedup ratios are machine-independent in a way absolute
//! nanoseconds are not; the committed baseline
//! (`crates/bench/perf_baseline.json`) therefore stores ratios, and the
//! CI regression gate compares ratios within a 15% tolerance.  See
//! `docs/perf.md`.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use smr_datagen::DatasetPreset;
use smr_graph::BipartiteGraph;
use smr_mapreduce::{merge_runs, JobConfig};
use smr_simjoin::join::probe_partition;
use smr_simjoin::{IndexPartition, PartialScore, Posting, ScoreAccumulator};
use smr_storage::Codec;
use smr_text::{TermId, TokenizerConfig};
use social_content_matching::MatchingPipeline;

use crate::experiments::ExperimentScale;
use crate::report::{fmt_f, Table};

/// Minimum in-run speedup a lane must show for the speedup gate.
pub const SPEEDUP_FLOOR: f64 = 1.3;
/// How many of the three gated lanes (`codec`, `merge`, `probe`) must
/// clear [`SPEEDUP_FLOOR`].
pub const SPEEDUP_LANES_REQUIRED: usize = 2;
/// Relative tolerance of the regression gate against the committed
/// baseline ratios: the run fails if a lane's speedup drops below
/// `baseline · (1 − 0.15)`.
pub const REGRESSION_TOLERANCE: f64 = 0.15;
/// Slack allowed on the thread-scaling gate (8 threads may be up to this
/// factor slower than 1 thread before the gate trips — it is a "threads
/// must not invert" gate, not a linear-scaling demand).
pub const THREAD_GATE_SLACK: f64 = 1.10;

/// One timed measurement: a named workload, its best-of-N wall time and
/// the volume it processed.
#[derive(Debug, Clone)]
pub struct LaneSample {
    /// Measurement name (e.g. `codec_baseline`, `pipeline_t8_b4096`).
    pub name: String,
    /// Best-of-reps wall time, milliseconds.
    pub wall_ms: f64,
    /// Records processed per repetition.
    pub records: u64,
    /// Bytes processed per repetition.
    pub bytes: u64,
}

impl LaneSample {
    /// Nanoseconds of wall time per record.
    pub fn ns_per_record(&self) -> f64 {
        if self.records == 0 {
            0.0
        } else {
            self.wall_ms * 1e6 / self.records as f64
        }
    }
}

/// A baseline/optimised pair for one lane.
#[derive(Debug, Clone)]
pub struct LaneComparison {
    /// Lane name (`codec`, `merge`, `probe`).
    pub lane: &'static str,
    /// The replaced implementation, re-run in this process.
    pub baseline: LaneSample,
    /// The shipping implementation.
    pub optimized: LaneSample,
}

impl LaneComparison {
    /// Baseline-over-optimised per-record time ratio (> 1 means the
    /// optimised lane is faster).
    pub fn speedup(&self) -> f64 {
        let optimized = self.optimized.ns_per_record();
        if optimized == 0.0 {
            1.0
        } else {
            self.baseline.ns_per_record() / optimized
        }
    }
}

/// One pass/fail check of the run.
#[derive(Debug, Clone)]
pub struct Gate {
    /// Gate name as written to the JSON report.
    pub name: String,
    /// Whether the gate held.
    pub passed: bool,
    /// Human-readable evidence.
    pub detail: String,
    /// Hard gates are correctness claims (byte-identity) that hold at any
    /// scale and in any build profile; soft gates are timing claims that
    /// are only meaningful in release builds.
    pub hard: bool,
}

/// The full result of a perf run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Baseline/optimised lane pairs.
    pub lanes: Vec<LaneComparison>,
    /// End-to-end pipeline samples, one per (threads, budget) config.
    pub pipeline: Vec<LaneSample>,
    /// All gates evaluated on this run.
    pub gates: Vec<Gate>,
}

impl PerfReport {
    /// Gates that failed, including timing gates.
    pub fn failures(&self) -> Vec<&Gate> {
        self.gates.iter().filter(|g| !g.passed).collect()
    }

    /// Failed *correctness* gates — the subset that must hold even in
    /// unoptimised builds (used by the debug-profile smoke test).
    pub fn hard_failures(&self) -> Vec<&Gate> {
        self.gates.iter().filter(|g| g.hard && !g.passed).collect()
    }

    /// The lane comparison with the given name, if present.
    pub fn lane(&self, name: &str) -> Option<&LaneComparison> {
        self.lanes.iter().find(|l| l.lane == name)
    }

    /// Renders the lanes, pipeline configs and gates as plain-text tables.
    pub fn render(&self) -> String {
        let mut lanes = Table::new(
            "perf lanes (baseline vs optimized, best-of-reps)",
            &["lane", "base ns/rec", "opt ns/rec", "speedup", "records"],
        );
        for lane in &self.lanes {
            lanes.push_row(vec![
                lane.lane.to_string(),
                fmt_f(lane.baseline.ns_per_record(), 1),
                fmt_f(lane.optimized.ns_per_record(), 1),
                format!("{:.2}x", lane.speedup()),
                lane.optimized.records.to_string(),
            ]);
        }
        let mut pipeline = Table::new(
            "end-to-end pipeline (byte-identity asserted)",
            &["config", "wall ms", "shuffled records"],
        );
        for sample in &self.pipeline {
            pipeline.push_row(vec![
                sample.name.clone(),
                fmt_f(sample.wall_ms, 1),
                sample.records.to_string(),
            ]);
        }
        let mut gates = Table::new("gates", &["gate", "result", "detail"]);
        for gate in &self.gates {
            gates.push_row(vec![
                gate.name.clone(),
                if gate.passed { "pass" } else { "FAIL" }.to_string(),
                gate.detail.clone(),
            ]);
        }
        format!("{lanes}\n{pipeline}\n{gates}")
    }
}

/// Deterministic xorshift for synthetic lane inputs.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self, modulus: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % modulus
    }

    fn next_f64(&mut self) -> f64 {
        self.next(1 << 20) as f64 / (1u64 << 20) as f64
    }
}

/// Runs `work` `reps` times and returns (best wall ms, last result).
fn best_of<R>(reps: usize, mut work: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..reps {
        let started = Instant::now();
        let r = work();
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("reps >= 1"))
}

fn reps(scale: ExperimentScale) -> usize {
    match scale {
        ExperimentScale::Smoke => 3,
        ExperimentScale::Full => 5,
    }
}

/// The record type the codec lane pushes through: the probe
/// shuffle's actual wire shape, `((item, consumer), PartialScore)`-like.
type WireRecord = ((u64, u64), (f64, f64));

fn wire_records(scale: ExperimentScale) -> Vec<WireRecord> {
    let n = match scale {
        ExperimentScale::Smoke => 100_000,
        ExperimentScale::Full => 1_000_000,
    };
    let mut rng = XorShift(0x5eed);
    (0..n)
        .map(|_| {
            (
                (rng.next(1 << 20), rng.next(1 << 20)),
                (rng.next_f64(), rng.next_f64()),
            )
        })
        .collect()
}

/// Codec lane: per-record `encode_to_vec` (alloc per record) vs
/// `encode_into` a reused scratch buffer.
fn codec_lane(scale: ExperimentScale) -> LaneComparison {
    let records = wire_records(scale);
    let reps = reps(scale);
    let (base_ms, base_bytes) = best_of(reps, || {
        let mut total = 0u64;
        for record in &records {
            total += black_box(record.encode_to_vec()).len() as u64;
        }
        total
    });
    let (opt_ms, opt_bytes) = best_of(reps, || {
        let mut scratch = Vec::new();
        let mut total = 0u64;
        for record in &records {
            total += black_box(record.encode_into(&mut scratch)).len() as u64;
        }
        total
    });
    assert_eq!(base_bytes, opt_bytes, "codec lanes must encode identically");
    LaneComparison {
        lane: "codec",
        baseline: LaneSample {
            name: "codec_baseline".into(),
            wall_ms: base_ms,
            records: records.len() as u64,
            bytes: base_bytes,
        },
        optimized: LaneSample {
            name: "codec_optimized".into(),
            wall_ms: opt_ms,
            records: records.len() as u64,
            bytes: opt_bytes,
        },
    }
}

/// The retired shuffle merge: a `BinaryHeap` k-way merge breaking key
/// ties by run index — the same `(key, run, position)` order as the loser
/// tree — kept here as the merge lane's executable baseline.
fn heap_merge<K: Ord, V>(runs: Vec<Vec<(K, V)>>) -> Vec<(K, V)> {
    struct HeapEntry<K, V> {
        key: K,
        value: V,
        run: usize,
    }
    impl<K: Ord, V> PartialEq for HeapEntry<K, V> {
        fn eq(&self, other: &Self) -> bool {
            self.key == other.key && self.run == other.run
        }
    }
    impl<K: Ord, V> Eq for HeapEntry<K, V> {}
    impl<K: Ord, V> PartialOrd for HeapEntry<K, V> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl<K: Ord, V> Ord for HeapEntry<K, V> {
        fn cmp(&self, other: &Self) -> Ordering {
            // Reversed: the max-heap must surface the smallest (key, run).
            other
                .key
                .cmp(&self.key)
                .then_with(|| other.run.cmp(&self.run))
        }
    }
    let mut iters: Vec<_> = runs.into_iter().map(Vec::into_iter).collect();
    let total: usize = iters.iter().map(|i| i.size_hint().0).sum();
    let mut heap: BinaryHeap<HeapEntry<K, V>> = BinaryHeap::with_capacity(iters.len());
    for (run, iter) in iters.iter_mut().enumerate() {
        if let Some((key, value)) = iter.next() {
            heap.push(HeapEntry { key, value, run });
        }
    }
    let mut merged = Vec::with_capacity(total);
    while let Some(entry) = heap.pop() {
        merged.push((entry.key, entry.value));
        if let Some((key, value)) = iters[entry.run].next() {
            heap.push(HeapEntry {
                key,
                value,
                run: entry.run,
            });
        }
    }
    merged
}

/// Merge lane: the retired `BinaryHeap` k-way merge vs the loser tree,
/// over 64 sorted runs shaped like the engine's real shuffles — each key
/// appears ~8 times per run, so every sorted run carries contiguous
/// equal-key streaks, exactly what a map task's term-grouped posting
/// emissions (or a word count's repeated words — the reason map-side
/// combining exists) look like.  In-run streaks are where the
/// winner-stays fast path earns its keep: the tournament collapses to
/// one comparison per record along them.  On all-distinct uniform keys
/// the tree has no streaks to exploit and the `BinaryHeap` is a close
/// match; that regime is locked correct (not fast) by the merge property
/// tests.
fn merge_lane(scale: ExperimentScale) -> LaneComparison {
    let run_count = 64usize;
    let per_run = match scale {
        ExperimentScale::Smoke => 2_000,
        ExperimentScale::Full => 20_000,
    };
    let key_space = (per_run / 8).max(1) as u64;
    let mut rng = XorShift(0xfeed);
    let runs: Vec<Vec<(u64, u64)>> = (0..run_count)
        .map(|_| {
            let mut run: Vec<(u64, u64)> = (0..per_run)
                .map(|_| (rng.next(key_space), rng.next(u64::MAX)))
                .collect();
            run.sort_unstable_by_key(|r| r.0);
            run
        })
        .collect();
    let total = (run_count * per_run) as u64;
    let bytes = total * std::mem::size_of::<(u64, u64)>() as u64;
    let reps = reps(scale);
    // Merges consume their input: pre-clone one copy per repetition so
    // the timed region moves, not clones.
    let mut pool: Vec<_> = (0..reps).map(|_| runs.clone()).collect();
    let (base_ms, base_out) = best_of(reps, || {
        let input = pool.pop().expect("one clone per rep");
        black_box(heap_merge(input)).len() as u64
    });
    let mut pool: Vec<_> = (0..reps).map(|_| runs.clone()).collect();
    let (opt_ms, opt_out) = best_of(reps, || {
        let input = pool.pop().expect("one clone per rep");
        black_box(merge_runs(input)).len() as u64
    });
    assert_eq!(base_out, opt_out, "merges must emit every record");
    LaneComparison {
        lane: "merge",
        baseline: LaneSample {
            name: "merge_heap".into(),
            wall_ms: base_ms,
            records: total,
            bytes,
        },
        optimized: LaneSample {
            name: "merge_loser_tree".into(),
            wall_ms: opt_ms,
            records: total,
            bytes,
        },
    }
}

/// One sparse query: sorted, deduped `(term, weight)` pairs.
type ProbeQuery = Vec<(TermId, f64)>;

/// Synthetic probe inputs: a term-partitioned index plus a query batch.
fn probe_inputs(scale: ExperimentScale) -> (Vec<(u32, Posting)>, Vec<ProbeQuery>) {
    let (terms, per_term, queries, query_terms) = match scale {
        ExperimentScale::Smoke => (1_000, 32, 200, 12),
        ExperimentScale::Full => (4_000, 64, 1_000, 16),
    };
    let consumers = terms * per_term / 4;
    let mut rng = XorShift(0xabcd);
    let mut records = Vec::with_capacity(terms * per_term);
    for term in 0..terms as u32 {
        for _ in 0..per_term {
            records.push((
                term,
                Posting {
                    doc: rng.next(consumers as u64) as usize,
                    weight: rng.next_f64(),
                    bound: rng.next_f64() * 0.25,
                },
            ));
        }
    }
    let query_batch: Vec<Vec<(TermId, f64)>> = (0..queries)
        .map(|_| {
            let mut ids: Vec<u32> = (0..query_terms)
                .map(|_| rng.next(terms as u64) as u32)
                .collect();
            ids.sort_unstable();
            ids.dedup();
            ids.into_iter()
                .map(|t| (TermId(t), rng.next_f64()))
                .collect()
        })
        .collect();
    (records, query_batch)
}

/// The retired probe: array-of-structs postings, `HashMap` accumulation —
/// a faithful replica of the pre-optimisation `probe_partition`, kept
/// here as the lane's executable baseline.
fn legacy_probe(
    index: &[(u32, Vec<Posting>)],
    query: &[(TermId, f64)],
    scores: &mut HashMap<usize, PartialScore>,
) {
    for &(term, weight) in query {
        let postings = match index.binary_search_by_key(&term.0, |(t, _)| *t) {
            Ok(i) => &index[i].1,
            Err(_) => continue,
        };
        for posting in postings {
            let entry = scores.entry(posting.doc).or_insert(PartialScore {
                score: 0.0,
                remainder: posting.bound,
            });
            entry.score += weight * posting.weight;
        }
    }
}

/// Probe lane: legacy AoS + `HashMap` vs SoA columns + open-addressed
/// accumulator, over the same index and queries; outputs are asserted
/// identical.
fn probe_lane(scale: ExperimentScale) -> LaneComparison {
    let (records, queries) = probe_inputs(scale);
    // Legacy layout: per-term posting vectors, term-sorted.
    let mut sorted = records.clone();
    sorted.sort_by_key(|(term, _)| *term);
    let mut legacy: Vec<(u32, Vec<Posting>)> = Vec::new();
    for (term, posting) in sorted {
        match legacy.last_mut() {
            Some((last, list)) if *last == term => list.push(posting),
            _ => legacy.push((term, vec![posting])),
        }
    }
    let partition = IndexPartition::from_records(records);
    // Work volume: one record = one posting visited by one query.
    let touched: u64 = queries
        .iter()
        .flat_map(|q| q.iter())
        .map(|&(t, _)| partition.postings(t.0).len() as u64)
        .sum();
    let bytes = touched * std::mem::size_of::<Posting>() as u64;
    let reps = reps(scale);
    let (base_ms, base_candidates) = best_of(reps, || {
        let mut emitted = Vec::new();
        for query in &queries {
            let mut scores: HashMap<usize, PartialScore> = HashMap::new();
            legacy_probe(&legacy, query, &mut scores);
            let mut candidates: Vec<(usize, PartialScore)> = scores.into_iter().collect();
            candidates.sort_unstable_by_key(|(doc, _)| *doc);
            emitted.push(candidates);
        }
        emitted
    });
    let (opt_ms, opt_candidates) = best_of(reps, || {
        let mut emitted = Vec::new();
        let mut scores = ScoreAccumulator::new();
        for query in &queries {
            probe_partition(&partition, query, &mut scores);
            emitted.push(scores.drain_sorted());
        }
        emitted
    });
    assert_eq!(
        base_candidates, opt_candidates,
        "probe lanes must produce identical candidates"
    );
    LaneComparison {
        lane: "probe",
        baseline: LaneSample {
            name: "probe_aos_hashmap".into(),
            wall_ms: base_ms,
            records: touched,
            bytes,
        },
        optimized: LaneSample {
            name: "probe_soa_accumulator".into(),
            wall_ms: opt_ms,
            records: touched,
            bytes,
        },
    }
}

/// End-to-end pipeline over (threads × memory budget) configs; returns
/// the samples and the graphs for the byte-identity gate.
fn pipeline_samples(scale: ExperimentScale) -> (Vec<LaneSample>, Vec<BipartiteGraph>) {
    let preset = match scale {
        ExperimentScale::Smoke => DatasetPreset::FlickrSmall,
        ExperimentScale::Full => DatasetPreset::FlickrLarge,
    };
    let dataset = preset.generate();
    let sigma = *preset
        .sigma_sweep()
        .last()
        .expect("presets have non-empty sweeps");
    let configs: [(usize, Option<u64>); 4] =
        [(1, None), (8, None), (1, Some(4096)), (8, Some(4096))];
    let mut samples = Vec::new();
    let mut graphs = Vec::new();
    for (threads, budget) in configs {
        let name = format!(
            "pipeline_t{threads}_{}",
            budget.map_or("unbudgeted".to_string(), |b| format!("b{b}"))
        );
        // Task counts default to the thread count, and the engine's
        // determinism contract is per *task layout*: the same logical
        // tasks produce the same bytes whatever worker pool executes
        // them.  Pin the layout so only threads and budget vary.  Each
        // config keeps its best of `reps` runs, like the lanes.
        let (wall_ms, candidate) = best_of(reps(scale), || {
            MatchingPipeline::new(dataset.clone())
                .tokenizer(TokenizerConfig::tags_only())
                .sigma(sigma)
                .job(
                    JobConfig::named(&name)
                        .with_threads(threads)
                        .with_map_tasks(8)
                        .with_reduce_tasks(8),
                )
                .memory_budget(budget)
                .build_graph()
        });
        samples.push(LaneSample {
            name,
            wall_ms,
            records: candidate.report.total_shuffled_records(),
            bytes: (candidate.graph.num_edges() * std::mem::size_of::<smr_graph::Edge>()) as u64,
        });
        graphs.push(candidate.graph);
    }
    (samples, graphs)
}

fn evaluate_gates(
    lanes: &[LaneComparison],
    pipeline: &[LaneSample],
    graphs: &[BipartiteGraph],
    baseline_json: Option<&str>,
) -> Vec<Gate> {
    let mut gates = Vec::new();

    // Byte-identity across budgets × thread counts (hard).
    let mut divergence = None;
    for (config, graph) in graphs.iter().enumerate().skip(1) {
        if graph.edges() == graphs[0].edges() {
            continue;
        }
        let at = graph
            .edges()
            .iter()
            .zip(graphs[0].edges())
            .position(|(a, b)| a != b);
        divergence = Some(match at {
            Some(i) => format!(
                "config {} diverges at edge {i}: {:?} vs {:?}",
                pipeline[config].name,
                graph.edges()[i],
                graphs[0].edges()[i]
            ),
            None => format!(
                "config {} has {} edges vs {}",
                pipeline[config].name,
                graph.num_edges(),
                graphs[0].num_edges()
            ),
        });
        break;
    }
    gates.push(Gate {
        name: "pipeline_byte_identity".into(),
        passed: divergence.is_none(),
        detail: divergence.unwrap_or_else(|| {
            format!(
                "{} configs, {} edges each",
                graphs.len(),
                graphs.first().map_or(0, |g| g.num_edges())
            )
        }),
        hard: true,
    });

    // In-run speedup floor on the gated lanes (soft — timing).
    let gated = ["codec", "merge", "probe"];
    let cleared: Vec<String> = lanes
        .iter()
        .filter(|l| gated.contains(&l.lane) && l.speedup() >= SPEEDUP_FLOOR)
        .map(|l| format!("{} {:.2}x", l.lane, l.speedup()))
        .collect();
    gates.push(Gate {
        name: "speedup_floor".into(),
        passed: cleared.len() >= SPEEDUP_LANES_REQUIRED,
        detail: format!(
            "{}/{} lanes >= {SPEEDUP_FLOOR}x: [{}]",
            cleared.len(),
            gated.len(),
            cleared.join(", ")
        ),
        hard: false,
    });

    // Thread scaling must not invert — only meaningful with >= 2 cores
    // (soft — timing).
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let wall_of = |name: &str| pipeline.iter().find(|s| s.name == name).map(|s| s.wall_ms);
    let (t1, t8) = (
        wall_of("pipeline_t1_unbudgeted"),
        wall_of("pipeline_t8_unbudgeted"),
    );
    let (passed, detail) = match (cores >= 2, t1, t8) {
        (false, _, _) => (
            true,
            format!("skipped: {cores} core(s) available, scaling unmeasurable"),
        ),
        (true, Some(t1), Some(t8)) => (
            t8 <= t1 * THREAD_GATE_SLACK,
            format!("t8 {t8:.1} ms vs t1 {t1:.1} ms (slack {THREAD_GATE_SLACK}x)"),
        ),
        _ => (false, "pipeline samples missing".to_string()),
    };
    gates.push(Gate {
        name: "thread_scaling".into(),
        passed,
        detail,
        hard: false,
    });

    // Regression vs the committed baseline ratios (soft — timing).
    for lane in lanes.iter().filter(|l| gated.contains(&l.lane)) {
        let key = format!("{}_speedup", lane.lane);
        let (passed, detail) = match baseline_json.and_then(|text| json_number(text, &key)) {
            None => (true, "no committed baseline".to_string()),
            Some(reference) => {
                let floor = reference * (1.0 - REGRESSION_TOLERANCE);
                (
                    lane.speedup() >= floor,
                    format!(
                        "{:.2}x vs baseline {reference:.2}x (floor {floor:.2}x)",
                        lane.speedup()
                    ),
                )
            }
        };
        gates.push(Gate {
            name: format!("regression_{}", lane.lane),
            passed,
            detail,
            hard: false,
        });
    }
    gates
}

/// Runs every lane and the end-to-end pipeline at the given scale,
/// evaluates the gates against `baseline_json` (the contents of
/// `crates/bench/perf_baseline.json`, when present) and returns the
/// report.  Pure measurement — callers decide what a failed gate means.
pub fn run_perf(scale: ExperimentScale, baseline_json: Option<&str>) -> PerfReport {
    let lanes = vec![codec_lane(scale), merge_lane(scale), probe_lane(scale)];
    let (pipeline, graphs) = pipeline_samples(scale);
    let gates = evaluate_gates(&lanes, &pipeline, &graphs, baseline_json);
    PerfReport {
        lanes,
        pipeline,
        gates,
    }
}

/// The committed baseline ratios this checkout carries.
pub fn committed_baseline() -> Option<String> {
    std::fs::read_to_string(baseline_path()).ok()
}

/// Path of the committed baseline JSON inside the repository.
pub fn baseline_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("perf_baseline.json")
}

/// Extracts the number following `"key":` in a flat JSON object — enough
/// JSON for the baseline file without a parser dependency.
pub fn json_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\"");
    let after = &text[text.find(&needle)? + needle.len()..];
    let after = after.trim_start().strip_prefix(':')?.trim_start();
    let end = after
        .find(|c: char| {
            !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E' || c == '+')
        })
        .unwrap_or(after.len());
    after[..end].parse().ok()
}

fn push_sample(out: &mut String, sample: &LaneSample, last: bool) {
    out.push_str(&format!(
        "    \"{}\": {{\"wall_ms\": {:.3}, \"records\": {}, \"bytes\": {}, \"ns_per_record\": {:.3}}}{}\n",
        sample.name,
        sample.wall_ms,
        sample.records,
        sample.bytes,
        sample.ns_per_record(),
        if last { "" } else { "," }
    ));
}

/// Serialises the report as the `BENCH_PR10.json` document: every
/// measurement under `"experiments"` (schema: name → wall_ms / records /
/// bytes / ns_per_record), the lane speedup ratios under `"speedups"`
/// (the machine-portable numbers the regression gate compares), and the
/// gate verdicts under `"gates"`.
pub fn to_json(report: &PerfReport) -> String {
    let mut out = String::from("{\n  \"experiments\": {\n");
    let samples: Vec<&LaneSample> = report
        .lanes
        .iter()
        .flat_map(|l| [&l.baseline, &l.optimized])
        .chain(report.pipeline.iter())
        .collect();
    for (i, sample) in samples.iter().enumerate() {
        push_sample(&mut out, sample, i + 1 == samples.len());
    }
    out.push_str("  },\n  \"speedups\": {\n");
    for (i, lane) in report.lanes.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}_speedup\": {:.4}{}\n",
            lane.lane,
            lane.speedup(),
            if i + 1 == report.lanes.len() { "" } else { "," }
        ));
    }
    out.push_str("  },\n  \"gates\": {\n");
    for (i, gate) in report.gates.iter().enumerate() {
        out.push_str(&format!(
            "    \"{}\": {}{}\n",
            gate.name,
            gate.passed,
            if i + 1 == report.gates.len() { "" } else { "," }
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Writes [`to_json`] to `path`.
pub fn write_json(report: &PerfReport, path: &Path) -> std::io::Result<()> {
    let mut file = std::fs::File::create(path)?;
    file.write_all(to_json(report).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_number_extracts_flat_keys() {
        let text = "{\n  \"codec_speedup\": 2.125,\n  \"merge_speedup\": 1.5e0\n}";
        assert_eq!(json_number(text, "codec_speedup"), Some(2.125));
        assert_eq!(json_number(text, "merge_speedup"), Some(1.5));
        assert_eq!(json_number(text, "probe_speedup"), None);
    }

    #[test]
    fn committed_baseline_parses() {
        // The repo ships a baseline; if this fails the baseline file is
        // malformed and the CI regression gate would silently pass.
        let text = committed_baseline().expect("perf_baseline.json is committed");
        for key in ["codec_speedup", "merge_speedup", "probe_speedup"] {
            assert!(
                json_number(&text, key).is_some(),
                "baseline is missing {key}"
            );
        }
    }

    #[test]
    fn probe_lanes_agree_and_pipeline_is_byte_identical_at_smoke_scale() {
        // Timing gates are meaningless under the test (debug) profile;
        // the hard gates — identical lane outputs, byte-identical
        // pipeline — must hold in any profile.
        let report = run_perf(ExperimentScale::Smoke, None);
        assert!(
            report.hard_failures().is_empty(),
            "hard gates failed: {:?}",
            report.hard_failures()
        );
        assert_eq!(report.lanes.len(), 3);
        assert_eq!(report.pipeline.len(), 4);
        for lane in &report.lanes {
            assert!(lane.baseline.records > 0);
            assert!(lane.baseline.ns_per_record() > 0.0);
        }
        let json = to_json(&report);
        for key in ["codec_speedup", "merge_speedup", "probe_speedup"] {
            assert!(json_number(&json, key).is_some(), "JSON missing {key}");
        }
        assert!(json.contains("\"pipeline_t8_b4096\""));
        assert!(report.render().contains("perf lanes"));
    }
}
