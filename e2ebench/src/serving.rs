//! The serving workload `xl-serving-mixed`: a standing index built by
//! `MatchingPipeline::serve` over 90% of flickr-xl's consumers, then every
//! item arriving through `ServingPipeline::assign` (closed loop, one
//! client), with the held-out 10% of consumers written back through
//! `add_consumers` in evenly spaced batches.  One pass over the arrival
//! stream is one operation; every pass starts from a fresh build.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use social_content_matching::datagen::arrivals::{ArrivalStream, ItemArrival};
use social_content_matching::datagen::{DatasetPreset, SocialDataset};
use social_content_matching::matching::IncrementalMatcher;
use social_content_matching::text::{Document, SparseVector};
use social_content_matching::{MatchingPipeline, ServingPipeline};

use crate::layers::{Counters, LayerReport};
use crate::stats::{self, median, ratio, secs, splitmix64, Fnv};
use crate::trace::Tracer;
use crate::{check, Env, Outcome, Timings};

const PRESET: DatasetPreset = DatasetPreset::FlickrXl;
/// flickr-xl's default σ (the middle of its sweep).
const SIGMA: f64 = 0.20;
const ALPHA: f64 = 1.0;
/// One consumer in `HELD_OUT_EVERY` is held out of the build and written
/// back during the pass.
const HELD_OUT_EVERY: usize = 10;
const WRITE_BATCHES: usize = 20;
/// Arrivals per pass whose candidates are checked against brute force.
const CHECK_SAMPLES: usize = 32;
/// Set-ups timed before the first pass (each pass adds one more).
const SETUP_SAMPLES: usize = 3;
/// Score slack of the brute-force check: pairs this close to σ may fall
/// either side of it, since the index and the dot product sum in
/// different orders.
const SCORE_SLACK: f64 = 1e-9;

/// The generated inputs of one pass.
struct Inputs {
    /// The dataset the index is built over (held-out consumers removed).
    served: SocialDataset,
    /// Consumers written back during the pass, batch by batch, with the
    /// capacity each batch joins with.
    batches: Vec<(Vec<Document>, u64)>,
    /// Arrival index before which each write batch runs.
    batch_at: Vec<usize>,
    arrivals: Vec<ItemArrival>,
    items: Vec<Document>,
    /// Arrivals whose candidates are checked.
    samples: Vec<usize>,
}

fn generate(seed: u64) -> Inputs {
    let full = PRESET.generate_with_seed(seed);
    let full_caps = full.capacities(ALPHA);
    let n = full.consumers.len();
    let held = n / HELD_OUT_EVERY;
    let mut served = full.clone();
    served.consumers.truncate(n - held);
    served.consumer_activity.truncate(n - held);
    let per_batch = held.div_ceil(WRITE_BATCHES);
    let batches = (n - held..n)
        .collect::<Vec<_>>()
        .chunks(per_batch)
        .map(|ids| {
            let docs = ids.iter().map(|&c| full.consumers[c].clone()).collect();
            let total: u64 = ids
                .iter()
                .map(|&c| full_caps.consumer_capacities()[c])
                .sum();
            let mean = (total as f64 / ids.len() as f64).round() as u64;
            (docs, mean.max(1))
        })
        .collect::<Vec<_>>();
    let arrivals = ArrivalStream::new(&full, ALPHA, seed).arrivals;
    let batch_at = (0..batches.len())
        .map(|j| (2 * j + 1) * arrivals.len() / (2 * batches.len()))
        .collect();
    let mut state = seed;
    let samples = (0..CHECK_SAMPLES)
        .map(|_| (splitmix64(&mut state) % arrivals.len() as u64) as usize)
        .collect();
    Inputs {
        items: full.items,
        served,
        batches,
        batch_at,
        arrivals,
        samples,
    }
}

/// Generates the inputs and builds the standing index; returns them with
/// the two set-up times in seconds.
fn setup(seed: u64) -> (Inputs, ServingPipeline, f64, f64) {
    let t = Instant::now();
    let inputs = generate(seed);
    let datagen = secs(t.elapsed());
    let t = Instant::now();
    let serving = MatchingPipeline::new(inputs.served.clone())
        .sigma(SIGMA)
        .alpha(ALPHA)
        .serve();
    (inputs, serving, datagen, secs(t.elapsed()))
}

/// A checked arrival: its index, the consumers indexed at that moment,
/// and the candidates returned as (consumer, score).
type Sample = (usize, usize, Vec<(usize, f64)>);

/// What one pass produced.
#[derive(Default)]
struct Pass {
    wall: f64,
    /// `assign` latencies, in milliseconds (untraced passes).
    latencies_ms: Vec<f64>,
    sampled: Vec<Sample>,
    panics: u64,
    failed_writes: u64,
    /// The final assignment: (item, consumer, weight).
    assignment: Vec<(usize, usize, f64)>,
    /// Every candidate edge returned (when recorded): (item, consumer,
    /// weight).
    edges: Vec<(usize, usize, f64)>,
    value: f64,
}

impl Pass {
    fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for &(item, consumer, weight) in &self.assignment {
            h.u64(item as u64);
            h.u64(consumer as u64);
            h.u64(weight.to_bits());
        }
        h.finish()
    }
}

fn write_batch(serving: &mut ServingPipeline, docs: &[Document], cap: u64) -> bool {
    let before = serving.num_consumers();
    catch_unwind(AssertUnwindSafe(|| serving.add_consumers(docs, cap)))
        .is_ok_and(|range| range == (before..before + docs.len()))
}

fn sorted_assignment(mut assignment: Vec<(usize, usize, f64)>) -> Vec<(usize, usize, f64)> {
    assignment.sort_by_key(|e| (e.0, e.1));
    assignment
}

/// One closed-loop pass through `ServingPipeline::assign`, optionally
/// recording every candidate edge returned.
fn untraced_pass(inputs: &Inputs, serving: &mut ServingPipeline, record_edges: bool) -> Pass {
    let mut pass = Pass {
        latencies_ms: Vec::with_capacity(inputs.arrivals.len()),
        ..Pass::default()
    };
    let mut next_batch = 0;
    let start = Instant::now();
    for (i, arrival) in inputs.arrivals.iter().enumerate() {
        if inputs.batch_at.get(next_batch) == Some(&i) {
            let (docs, cap) = &inputs.batches[next_batch];
            pass.failed_writes += u64::from(!write_batch(serving, docs, *cap));
            next_batch += 1;
        }
        let text = &inputs.items[arrival.item].text;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            serving.assign(text, arrival.capacity, usize::MAX)
        }));
        pass.latencies_ms.push(stats::ms(t.elapsed()));
        let Ok(a) = result else {
            pass.panics += 1;
            continue;
        };
        if record_edges {
            pass.edges
                .extend(a.candidates.iter().map(|m| (a.item, m.consumer, m.score)));
        }
        if inputs.samples.contains(&i) {
            let candidates = a.candidates.iter().map(|m| (m.consumer, m.score)).collect();
            pass.sampled.push((i, serving.num_consumers(), candidates));
        }
    }
    pass.wall = secs(start.elapsed());
    pass.assignment = sorted_assignment(serving.matcher().assignment());
    pass.value = serving.matcher().total_weight();
    pass
}

/// The same pass with `assign` decomposed into its layers' calls —
/// `vectorize` (text), `match_vector` (simjoin's `ServingIndex`) and
/// `IncrementalMatcher::arrive` (matching) — each traced, plus the traced
/// `add_consumers` writes (serving).  The matcher mirrors the one inside
/// the `ServingPipeline`.
fn traced_pass(
    inputs: &Inputs,
    serving: &mut ServingPipeline,
    t: &mut Tracer,
    counters: &mut Counters,
) -> Pass {
    let caps = inputs.served.capacities(ALPHA);
    let mut matcher = IncrementalMatcher::new(Vec::new(), caps.consumer_capacities().to_vec());
    let mut pass = Pass::default();
    let mut next_batch = 0;
    let mut edges_returned = 0usize;
    let start = Instant::now();
    for (i, arrival) in inputs.arrivals.iter().enumerate() {
        if inputs.batch_at.get(next_batch) == Some(&i) {
            let (docs, cap) = &inputs.batches[next_batch];
            let span = t.begin_proc("serving");
            let ok = write_batch(serving, docs, *cap);
            for _ in docs {
                matcher.add_consumer(*cap);
            }
            t.end(span);
            pass.failed_writes += u64::from(!ok);
            next_batch += 1;
        }
        let span = t.begin("text");
        let query: SparseVector = serving.vectorize(&inputs.items[arrival.item].text);
        t.end(span);
        let span = t.begin("simjoin");
        let candidates = serving.match_vector(&query, usize::MAX);
        t.end(span);
        let span = t.begin("matching");
        let item = matcher.add_item(arrival.capacity);
        let edges: Vec<(usize, f64)> = candidates.iter().map(|m| (m.consumer, m.score)).collect();
        matcher.arrive(item, &edges);
        t.end(span);
        edges_returned += edges.len();
        if inputs.samples.contains(&i) {
            pass.sampled.push((i, serving.num_consumers(), edges));
        }
    }
    pass.wall = secs(start.elapsed());
    pass.assignment = sorted_assignment(matcher.assignment());
    pass.value = matcher.total_weight();
    let index = serving.index();
    *counters = Counters {
        simjoin_edges: edges_returned as f64,
        serving_queries: inputs.arrivals.len() as f64,
        serving_disk_reads: index.disk_reads() as f64,
        serving_partitions: index.num_partitions() as f64,
        serving_postings: index.num_postings() as f64,
        serving_preemptions: matcher.preemptions() as f64,
        ..Counters::default()
    };
    pass
}

/// Capacity of every consumer, in the order the index holds them.
fn consumer_capacities(inputs: &Inputs) -> Vec<u64> {
    let mut caps = inputs
        .served
        .capacities(ALPHA)
        .consumer_capacities()
        .to_vec();
    for (docs, cap) in &inputs.batches {
        caps.extend(std::iter::repeat_n(*cap, docs.len()));
    }
    caps
}

/// Value of the centralized greedy b-matching over the candidate edges a
/// pass returned (`IncrementalMatcher::arrive_batch` over the whole edge
/// set equals `greedy_matching`).
fn greedy_value(inputs: &Inputs, edges: &[(usize, usize, f64)]) -> f64 {
    let item_caps = inputs.arrivals.iter().map(|a| a.capacity).collect();
    let mut greedy = IncrementalMatcher::new(item_caps, consumer_capacities(inputs));
    greedy.arrive_batch(edges);
    greedy.total_weight()
}

/// Checks one pass's outputs; returns the number of failed operations
/// they reveal.
fn check_pass(inputs: &Inputs, serving: &ServingPipeline, pass: &Pass, out: &mut Outcome) -> u64 {
    // Sampled arrivals: candidates = brute-force similarity at σ over the
    // consumers indexed at that moment.
    let consumer_vectors: Vec<SparseVector> = inputs
        .served
        .consumers
        .iter()
        .chain(inputs.batches.iter().flat_map(|(docs, _)| docs.iter()))
        .map(|d| serving.vectorize(&d.text))
        .collect();
    let mut bad_samples = 0u64;
    for (i, indexed, candidates) in &pass.sampled {
        let query = serving.vectorize(&inputs.items[inputs.arrivals[*i].item].text);
        let scores: Vec<f64> = consumer_vectors[..*indexed]
            .iter()
            .map(|v| query.dot(v))
            .collect();
        let returned_ok = candidates.iter().all(|&(c, score)| {
            c < *indexed && (score - scores[c]).abs() <= SCORE_SLACK && score >= SIGMA - SCORE_SLACK
        });
        let mut returned: Vec<usize> = candidates.iter().map(|&(c, _)| c).collect();
        returned.sort_unstable();
        let complete = scores
            .iter()
            .enumerate()
            .filter(|(_, &s)| s >= SIGMA + SCORE_SLACK)
            .all(|(c, _)| returned.binary_search(&c).is_ok());
        bad_samples += u64::from(!(returned_ok && complete));
    }
    out.checks.push(check(
        "sampled candidates = brute force at sigma",
        bad_samples == 0,
        format!(
            "{} of {} sampled arrivals wrong",
            bad_samples,
            pass.sampled.len()
        ),
    ));

    // No capacity is exceeded, on either side.
    let consumer_caps = consumer_capacities(inputs);
    let mut consumer_load = vec![0u64; consumer_caps.len()];
    let mut item_load = vec![0u64; inputs.arrivals.len()];
    for &(item, consumer, _) in &pass.assignment {
        item_load[item] += 1;
        consumer_load[consumer] += 1;
    }
    let over = consumer_load
        .iter()
        .zip(&consumer_caps)
        .filter(|(load, cap)| load > cap)
        .count()
        + item_load
            .iter()
            .zip(&inputs.arrivals)
            .filter(|(load, a)| **load > a.capacity)
            .count();
    out.checks.push(check(
        "no capacity exceeded",
        over == 0,
        format!("{over} nodes over capacity"),
    ));
    out.checks.push(check(
        "every write batch appended its consumers",
        pass.failed_writes == 0,
        format!("{} failed", pass.failed_writes),
    ));
    bad_samples + over as u64 + pass.panics + pass.failed_writes
}

pub fn run(env: &Env) -> Outcome {
    let seed = env.args.seed;
    let mut out = Outcome::default();
    let mut report = LayerReport::default();
    let mut setup_total = Vec::new();
    let mut fresh = |report: &mut LayerReport| {
        let (inputs, serving, datagen, build) = setup(seed);
        report.setup_datagen.push(datagen);
        report.setup_index_build.push(build);
        setup_total.push(datagen + build);
        (inputs, serving)
    };
    for _ in 1..SETUP_SAMPLES {
        drop(fresh(&mut report));
    }

    let per_pass_ops = |inputs: &Inputs| (inputs.arrivals.len() + inputs.batches.len()) as u64;
    let (inputs, mut serving) = fresh(&mut report);
    let warm = untraced_pass(&inputs, &mut serving, true);
    let reference = warm.fingerprint();
    // Quality relative to the centralized greedy on the same candidates:
    // stable across seeds, unlike the raw matching value.
    let quality = ratio(warm.value, greedy_value(&inputs, &warm.edges));
    let value = warm.value;
    out.attempted += per_pass_ops(&inputs);
    out.failed += check_pass(&inputs, &serving, &warm, &mut out);
    drop(serving);

    let mut tracer = Tracer::default();
    let mut latencies = Vec::new();
    let (mut arrivals, mut pass_wall) = (0usize, 0.0);
    let mut last_counters = Counters::default();
    let mut identical = true;
    let loop_start = Instant::now();
    loop {
        let (inputs, mut serving) = fresh(&mut report);
        let pass = untraced_pass(&inputs, &mut serving, false);
        out.attempted += per_pass_ops(&inputs);
        out.failed += check_pass(&inputs, &serving, &pass, &mut out);
        if pass.fingerprint() != reference {
            identical = false;
            out.failed += inputs.arrivals.len() as u64;
        }
        latencies.extend_from_slice(&pass.latencies_ms);
        arrivals += inputs.arrivals.len();
        pass_wall += pass.wall;
        report.untraced_walls.push(pass.wall);
        drop(serving);

        let traced_enough = !env.args.trace || !report.breakdowns.is_empty();
        if loop_start.elapsed().as_secs_f64() >= env.args.seconds && traced_enough {
            break;
        }
        if env.args.trace {
            let (inputs, mut serving) = fresh(&mut report);
            let root = tracer.begin_proc("op");
            let pass = traced_pass(&inputs, &mut serving, &mut tracer, &mut last_counters);
            tracer.end(root);
            report.breakdowns.push(tracer.breakdown(root));
            out.attempted += per_pass_ops(&inputs);
            out.failed += check_pass(&inputs, &serving, &pass, &mut out);
            if pass.fingerprint() != reference {
                identical = false;
                out.failed += inputs.arrivals.len() as u64;
            }
        }
    }
    let peak_rss = crate::proc_stats::peak_rss_mb();
    // One line per distinct check outcome is enough.
    out.checks
        .sort_by(|a, b| (&a.name, a.passed).cmp(&(&b.name, b.passed)));
    out.checks
        .dedup_by(|a, b| a.name == b.name && a.passed == b.passed && a.passed);
    out.checks.push(check(
        "every pass's final assignment is identical",
        identical,
        format!("fingerprint {reference:016x}"),
    ));

    if env.args.trace {
        report.counters = last_counters;
        out.metrics = report.metrics();
        out.table = report.table();
        out.tracer = Some(tracer);
    } else {
        let times = Timings {
            setup_s: median(&setup_total),
            latency_p50_ms: median(&latencies),
            latency_tail_ms: stats::tail(&latencies),
            throughput_per_s: ratio(arrivals as f64, pass_wall),
        };
        out.metrics = times.metrics(peak_rss, quality);
        out.table = vec![format!(
            "# {arrivals} timed arrivals (+{WRITE_BATCHES} write batches per pass) in {pass_wall:.2} s of passes; online value {value}"
        )];
    }
    out
}
