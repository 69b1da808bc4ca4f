//! The per-layer report of a traced run: the metrics of `per_layer` in
//! `BENCHMARK.json` and the printed layer table.
//!
//! Every workload reports the same metric names.  Time metrics are only
//! those every workload measures (its calls into `text`, `simjoin` and
//! `matching`, the unattributed remainder); a layer only some
//! workloads cross (MapReduce phases, serving writes, the distrib session)
//! is reported as its share of the operation's wall time, which reads 0
//! where the layer is absent.  Deterministic counters come from the last
//! traced operation; timings are medians over the traced operations.

use std::time::Duration;

use crate::stats::{median, ratio, secs};
use crate::trace::{Breakdown, Layer};
use crate::{metric, Metric};

/// Counters a workload reads from the values its calls return.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub simjoin_indexed_entries: f64,
    pub simjoin_candidate_pairs: f64,
    pub simjoin_pruned: f64,
    pub simjoin_verify_exact: f64,
    pub simjoin_edges: f64,
    pub matching_jobs: f64,
    pub matching_rounds: f64,
    pub matching_max_round_state_bytes: f64,
    /// Wall time of each matching round (from `FlowReport::round_jobs`).
    pub matching_round_s: Vec<f64>,
    pub serving_queries: f64,
    pub serving_disk_reads: f64,
    pub serving_partitions: f64,
    pub serving_postings: f64,
    pub serving_preemptions: f64,
    pub distrib_respawns: f64,
}

/// Everything a traced run measured.
#[derive(Debug, Default)]
pub struct LayerReport {
    /// One breakdown per traced operation.
    pub breakdowns: Vec<Breakdown>,
    /// Wall times of the untraced operations run alongside, in seconds.
    pub untraced_walls: Vec<f64>,
    /// Set-up samples, in seconds: dataset generation and (serving only)
    /// the standing-index build.
    pub setup_datagen: Vec<f64>,
    pub setup_index_build: Vec<f64>,
    pub counters: Counters,
}

/// Layers in table order.
const LAYERS: [&str; 6] = [
    "distrib",
    "text",
    "simjoin",
    "capacities",
    "matching",
    "serving",
];

impl LayerReport {
    fn med(&self, f: impl Fn(&Breakdown) -> f64) -> f64 {
        let values: Vec<f64> = self.breakdowns.iter().map(f).collect();
        median(&values)
    }

    fn layer_med(&self, name: &str, f: impl Fn(&Layer, &Breakdown) -> f64) -> f64 {
        self.med(|b| f(&b.get(name), b))
    }

    /// Summed job counters of the last traced operation.
    fn jobs_total(
        &self,
        f: impl Fn(&social_content_matching::mapreduce::JobMetrics) -> u64,
    ) -> f64 {
        self.breakdowns.last().map_or(0.0, |b| {
            b.layers
                .values()
                .flat_map(|l| l.jobs.iter())
                .map(&f)
                .sum::<u64>() as f64
        })
    }

    fn layer_jobs_total(
        &self,
        name: &str,
        f: impl Fn(&social_content_matching::mapreduce::JobMetrics) -> u64,
    ) -> f64 {
        self.breakdowns
            .last()
            .map_or(0.0, |b| b.get(name).jobs.iter().map(&f).sum::<u64>() as f64)
    }

    /// The `per_layer` metrics, in `BENCHMARK.json` order.
    pub fn metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let span_s = |name: &str| self.layer_med(name, |l, _| secs(l.total));
        let self_s = |name: &str| self.layer_med(name, |l, _| secs(l.self_time));
        let share =
            |f: &dyn Fn(&Breakdown) -> Duration| self.med(|b| ratio(secs(f(b)), secs(b.wall)));
        let cores = |name: &str| {
            self.layer_med(name, |l, _| {
                ratio(l.proc.user_s + l.proc.sys_s, secs(l.total))
            })
        };
        let sys_frac = |name: &str| {
            self.layer_med(name, |l, _| {
                ratio(l.proc.sys_s, l.proc.user_s + l.proc.sys_s)
            })
        };
        let io = |name: &str, f: fn(&crate::proc_stats::ProcSample) -> u64| {
            self.layer_med(name, |l, _| f(&l.proc) as f64)
        };
        let traced_wall = self.med(|b| secs(b.wall));
        let map_out = self.jobs_total(|m| m.map_output_records);
        let shuffled = self.jobs_total(|m| m.shuffle_records);
        let spill = self.jobs_total(|m| m.spill_bytes);
        let disk_runs = self.jobs_total(|m| m.disk_runs);
        let setup_total: Vec<f64> = self
            .setup_datagen
            .iter()
            .zip(self.setup_index_build.iter().chain(std::iter::repeat(&0.0)))
            .map(|(d, b)| d + b)
            .collect();

        vec![
            metric("trace.wall_s", traced_wall, "s"),
            metric(
                "trace.overhead_s",
                traced_wall - median(&self.untraced_walls),
                "s",
            ),
            metric(
                "pipeline.unattributed_s",
                self.med(|b| secs(b.unattributed)),
                "s",
            ),
            metric("setup.datagen_s", median(&self.setup_datagen), "s"),
            metric(
                "setup.index_build_share",
                ratio(median(&self.setup_index_build), median(&setup_total)),
                "ratio",
            ),
            metric("text.s", span_s("text"), "s"),
            metric(
                "text.call_us_p50",
                self.layer_med("text", |l, _| l.call_us(0.5)),
                "us",
            ),
            metric("simjoin.s", span_s("simjoin"), "s"),
            metric("simjoin.self_s", self_s("simjoin"), "s"),
            metric(
                "simjoin.call_us_p50",
                self.layer_med("simjoin", |l, _| l.call_us(0.5)),
                "us",
            ),
            metric(
                "simjoin.call_us_p99",
                self.layer_med("simjoin", |l, _| l.call_us(0.99)),
                "us",
            ),
            metric(
                "simjoin.indexed_entries",
                c.simjoin_indexed_entries,
                "count",
            ),
            metric(
                "simjoin.candidate_pairs",
                c.simjoin_candidate_pairs,
                "count",
            ),
            metric("simjoin.pruned", c.simjoin_pruned, "count"),
            metric("simjoin.verify_exact", c.simjoin_verify_exact, "count"),
            metric("simjoin.edges", c.simjoin_edges, "count"),
            metric(
                "simjoin.shuffle_records",
                self.layer_jobs_total("simjoin", |m| m.shuffle_records),
                "count",
            ),
            metric(
                "simjoin.verify_yield",
                ratio(c.simjoin_edges, c.simjoin_verify_exact),
                "ratio",
            ),
            metric(
                "simjoin.prune_rate",
                ratio(c.simjoin_pruned, c.simjoin_candidate_pairs),
                "ratio",
            ),
            metric("matching.s", span_s("matching"), "s"),
            metric("matching.self_s", self_s("matching"), "s"),
            metric(
                "matching.call_us_p50",
                self.layer_med("matching", |l, _| l.call_us(0.5)),
                "us",
            ),
            metric("matching.jobs", c.matching_jobs, "count"),
            metric("matching.rounds", c.matching_rounds, "count"),
            metric(
                "matching.shuffle_records",
                self.layer_jobs_total("matching", |m| m.shuffle_records),
                "count",
            ),
            metric(
                "matching.max_round_state_bytes",
                c.matching_max_round_state_bytes,
                "bytes",
            ),
            metric(
                "mapreduce.map_share",
                share(&|b| phase_sum(b, |l| l.map)),
                "ratio",
            ),
            metric(
                "mapreduce.shuffle_share",
                share(&|b| phase_sum(b, |l| l.shuffle)),
                "ratio",
            ),
            metric(
                "mapreduce.reduce_share",
                share(&|b| phase_sum(b, |l| l.reduce)),
                "ratio",
            ),
            metric(
                "mapreduce.jobs",
                self.breakdowns.last().map_or(0.0, |b| {
                    b.layers.values().map(|l| l.jobs.len()).sum::<usize>() as f64
                }),
                "count",
            ),
            metric("mapreduce.map_output_records", map_out, "count"),
            metric("mapreduce.shuffle_records", shuffled, "count"),
            metric(
                "mapreduce.merge_runs",
                self.jobs_total(|m| m.merge_runs),
                "count",
            ),
            metric(
                "mapreduce.combine_reduction",
                if map_out == 0.0 {
                    0.0
                } else {
                    1.0 - shuffled / map_out
                },
                "ratio",
            ),
            metric(
                "mapreduce.shuffle_bytes_est",
                self.jobs_total(|m| m.shuffle_bytes),
                "bytes",
            ),
            metric("storage.spill_bytes", spill, "bytes"),
            metric("storage.disk_runs", disk_runs, "count"),
            metric("storage.bytes_per_run", ratio(spill, disk_runs), "bytes"),
            // Process CPU as ratios, not seconds: `/proc` counts 10 ms
            // ticks, so a short operation's CPU seconds can read the same
            // on every run.
            metric(
                "cpu.cores",
                self.med(|b| ratio(b.proc.user_s + b.proc.sys_s, secs(b.wall))),
                "ratio",
            ),
            metric(
                "cpu.sys_frac",
                self.med(|b| ratio(b.proc.sys_s, b.proc.user_s + b.proc.sys_s)),
                "ratio",
            ),
            metric("cpu.simjoin.cores", cores("simjoin"), "ratio"),
            metric("cpu.simjoin.sys_frac", sys_frac("simjoin"), "ratio"),
            metric("cpu.matching.cores", cores("matching"), "ratio"),
            metric("cpu.matching.sys_frac", sys_frac("matching"), "ratio"),
            metric("cpu.serving.cores", cores("serving"), "ratio"),
            metric("cpu.serving.sys_frac", sys_frac("serving"), "ratio"),
            metric("io.rchar", self.med(|b| b.proc.rchar as f64), "bytes"),
            metric("io.wchar", self.med(|b| b.proc.wchar as f64), "bytes"),
            metric("io.syscr", self.med(|b| b.proc.syscr as f64), "count"),
            metric("io.syscw", self.med(|b| b.proc.syscw as f64), "count"),
            metric("io.simjoin.rchar", io("simjoin", |p| p.rchar), "bytes"),
            metric("io.simjoin.wchar", io("simjoin", |p| p.wchar), "bytes"),
            metric("io.simjoin.syscr", io("simjoin", |p| p.syscr), "count"),
            metric("io.simjoin.syscw", io("simjoin", |p| p.syscw), "count"),
            metric("io.matching.rchar", io("matching", |p| p.rchar), "bytes"),
            metric("io.matching.wchar", io("matching", |p| p.wchar), "bytes"),
            metric("io.matching.syscr", io("matching", |p| p.syscr), "count"),
            metric("io.matching.syscw", io("matching", |p| p.syscw), "count"),
            metric("io.serving.rchar", io("serving", |p| p.rchar), "bytes"),
            metric("io.serving.wchar", io("serving", |p| p.wchar), "bytes"),
            metric("io.serving.syscr", io("serving", |p| p.syscr), "count"),
            metric("io.serving.syscw", io("serving", |p| p.syscw), "count"),
            metric(
                "serving.write_share",
                share(&|b| b.get("serving").total),
                "ratio",
            ),
            metric("serving.disk_reads", c.serving_disk_reads, "count"),
            metric("serving.partitions", c.serving_partitions, "count"),
            metric("serving.postings", c.serving_postings, "count"),
            metric(
                "serving.candidates_per_query",
                ratio(c.simjoin_edges, c.serving_queries),
                "ratio",
            ),
            metric("serving.preemptions", c.serving_preemptions, "count"),
            metric(
                "distrib.self_share",
                share(&|b| b.get("distrib").self_time),
                "ratio",
            ),
            metric(
                "distrib.worker_cpu_share",
                self.med(|b| {
                    let p = &b.proc;
                    ratio(p.children_cpu_s, p.user_s + p.sys_s + p.children_cpu_s)
                }),
                "ratio",
            ),
            metric("distrib.respawns", c.distrib_respawns, "count"),
        ]
    }

    /// The printed layer table: medians over the traced operations, plus
    /// the identity `Σ self + Σ phases + unattributed = wall` checked on
    /// every traced operation.
    pub fn table(&self) -> Vec<String> {
        let mut lines = vec![format!(
            "# layer table: medians over {} traced operation(s); times in seconds",
            self.breakdowns.len()
        )];
        lines.push(format!(
            "# {:<12} {:>6} {:>10} {:>10} {:>9} {:>9} {:>9} {:>8} {:>8} {:>12} {:>8}",
            "layer",
            "calls",
            "span_s",
            "self_s",
            "map_s",
            "shuffle_s",
            "reduce_s",
            "user_s",
            "sys_s",
            "wchar",
            "share"
        ));
        for name in LAYERS {
            if self.breakdowns.iter().all(|b| !b.layers.contains_key(name)) {
                lines.push(format!("# {name:<12} {:>6}", "—"));
                continue;
            }
            let m = |f: &dyn Fn(&Layer) -> f64| self.layer_med(name, |l, _| f(l));
            lines.push(format!(
                "# {:<12} {:>6} {:>10.4} {:>10.4} {:>9.4} {:>9.4} {:>9.4} {:>8.2} {:>8.2} {:>12} {:>7.1}%",
                name,
                m(&|l| l.calls.len() as f64),
                m(&|l| secs(l.total)),
                m(&|l| secs(l.self_time)),
                m(&|l| secs(l.map)),
                m(&|l| secs(l.shuffle)),
                m(&|l| secs(l.reduce)),
                m(&|l| l.proc.user_s),
                m(&|l| l.proc.sys_s),
                m(&|l| l.proc.wchar as f64),
                100.0 * self.layer_med(name, |l, b| ratio(secs(l.self_time + l.phases()), secs(b.wall))),
            ));
        }
        lines.push(format!(
            "# {:<12} {:>6} {:>10} {:>10.4} {:>49} {:>7.1}%",
            "unattributed",
            "",
            "",
            self.med(|b| secs(b.unattributed)),
            "",
            100.0 * self.med(|b| ratio(secs(b.unattributed), secs(b.wall))),
        ));
        let worst = self
            .breakdowns
            .iter()
            .map(|b| (secs(b.accounted()) - secs(b.wall)).abs())
            .fold(0.0, f64::max);
        lines.push(format!(
            "# traced wall {:.4} s (untraced {:.4} s, overhead {:.4} s); Σ self + phases + unattributed = wall on every op (max |error| {:.1e} s)",
            self.med(|b| secs(b.wall)),
            median(&self.untraced_walls),
            self.med(|b| secs(b.wall)) - median(&self.untraced_walls),
            worst
        ));
        let c = &self.counters;
        if !c.matching_round_s.is_empty() {
            lines.push(format!(
                "# matching rounds: {} (round wall p50 {:.4} s, max {:.4} s)",
                c.matching_round_s.len(),
                median(&c.matching_round_s),
                c.matching_round_s.iter().copied().fold(0.0, f64::max)
            ));
        }
        let serving = self.layer_med("serving", |l, _| l.calls.len() as f64);
        if serving > 0.0 {
            lines.push(format!(
                "# serving writes (add_consumers): {} calls, p50 {:.3} ms, max {:.3} ms",
                serving,
                self.layer_med("serving", |l, _| l.call_us(0.5) / 1e3),
                self.layer_med("serving", |l, _| l.call_us(1.0) / 1e3),
            ));
        }
        let session = self.layer_med("distrib", |l, _| secs(l.total));
        if session > 0.0 {
            lines.push(format!(
                "# distrib: session {:.4} s, coordinator cpu {:.2} s, worker cpu {:.2} s, coordinator rchar {}",
                session,
                self.med(|b| b.proc.user_s + b.proc.sys_s),
                self.med(|b| b.proc.children_cpu_s),
                self.med(|b| b.proc.rchar as f64),
            ));
        }
        lines
    }
}

fn phase_sum(b: &Breakdown, f: impl Fn(&Layer) -> Duration) -> Duration {
    b.layers.values().map(f).sum()
}
