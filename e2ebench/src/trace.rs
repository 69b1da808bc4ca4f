//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! A span has a name (the layer), a start, an end and the span it was
//! opened inside.  MapReduce jobs run by a call are attached to that call's
//! span with their phase timings (`JobMetrics::timings`) and their
//! deterministic counters, kept apart.  Everything stays in memory until
//! [`Tracer::write_jsonl`] writes it out after the run.
//!
//! Self time of a span is its duration minus its child spans and minus
//! the phases of the jobs attached to it, so for every traced operation
//! `Σ self + Σ phases = root duration`, and the root's own self time is
//! the operation's unattributed remainder.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use social_content_matching::mapreduce::JobMetrics;

use crate::proc_stats::ProcSample;
use crate::stats;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub end: Duration,
    pub parent: Option<usize>,
    /// Process counter deltas over the span, when it was opened with
    /// [`Tracer::begin_proc`].
    pub proc: Option<ProcSample>,
    proc_start: Option<ProcSample>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// A MapReduce job that ran inside a span.
#[derive(Debug, Clone)]
pub struct JobRecord {
    pub span: usize,
    pub metrics: JobMetrics,
}

/// In-memory span and job recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    pub jobs: Vec<JobRecord>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            jobs: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Tracer {
    /// Opens a span inside the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> usize {
        self.open(name, None)
    }

    /// Opens a span that also records `/proc` counter deltas.  Reading
    /// `/proc` costs tens of microseconds, so this is for calls that take
    /// milliseconds or more.
    pub fn begin_proc(&mut self, name: &'static str) -> usize {
        self.open(name, Some(ProcSample::now()))
    }

    fn open(&mut self, name: &'static str, proc_start: Option<ProcSample>) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.stack.last().copied(),
            proc: None,
            proc_start,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let end = self.origin.elapsed();
        assert_eq!(
            self.stack.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let span = &mut self.spans[id];
        span.end = end;
        if let Some(start) = span.proc_start.take() {
            span.proc = Some(ProcSample::now().since(&start));
        }
    }

    /// Closes every span opened inside `id` that is still open — the
    /// spans a panicking call left behind — so the next span nests
    /// correctly.
    pub fn unwind_to(&mut self, id: usize) {
        while let Some(&top) = self.stack.last() {
            if top == id {
                break;
            }
            self.end(top);
        }
    }

    /// Attaches the MapReduce jobs a call ran to that call's span.
    pub fn attach_jobs(&mut self, span: usize, jobs: &[JobMetrics]) {
        self.jobs.extend(jobs.iter().map(|metrics| JobRecord {
            span,
            metrics: metrics.clone(),
        }));
    }

    /// Per-layer breakdown of the operation under root span `root`.
    pub fn breakdown(&self, root: usize) -> Breakdown {
        let mut in_op = vec![false; self.spans.len()];
        in_op[root] = true;
        // Parents always precede children, so one forward pass suffices.
        for i in root + 1..self.spans.len() {
            if let Some(p) = self.spans[i].parent {
                in_op[i] = in_op[p];
            }
        }
        let mut child_time = vec![Duration::ZERO; self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let (true, Some(p)) = (in_op[i], span.parent) {
                child_time[p] += span.duration();
            }
        }
        let mut b = Breakdown {
            wall: self.spans[root].duration(),
            ..Breakdown::default()
        };
        let mut phase_time = vec![Duration::ZERO; self.spans.len()];
        for job in self.jobs.iter().filter(|j| in_op[j.span]) {
            let t = &job.metrics.timings;
            phase_time[job.span] += t.total();
            let layer = b.layer(self.spans[job.span].name);
            layer.map += t.map;
            layer.shuffle += t.shuffle;
            layer.reduce += t.reduce;
            layer.jobs.push(job.metrics.clone());
        }
        for (i, span) in self.spans.iter().enumerate() {
            if !in_op[i] || i == root {
                continue;
            }
            let self_time = span
                .duration()
                .saturating_sub(child_time[i] + phase_time[i]);
            let layer = b.layer(span.name);
            layer.total += span.duration();
            layer.self_time += self_time;
            layer.calls.push(span.duration());
            if let Some(proc) = &span.proc {
                layer.proc.add(proc);
            }
        }
        b.unattributed = b.wall.saturating_sub(child_time[root] + phase_time[root]);
        b.proc = self.spans[root].proc.unwrap_or_default();
        b
    }

    /// Writes every span and job as JSON lines: timings and deterministic
    /// counters in separate objects.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
            if let Some(p) = &s.proc {
                write!(
                    out,
                    ",\"proc\":{{\"user_s\":{},\"sys_s\":{},\"children_cpu_s\":{},\"rchar\":{},\"wchar\":{},\"syscr\":{},\"syscw\":{}}}",
                    p.user_s, p.sys_s, p.children_cpu_s, p.rchar, p.wchar, p.syscr, p.syscw
                )?;
            }
            writeln!(out, "}}")?;
        }
        for job in &self.jobs {
            let m = &job.metrics;
            let t = &m.timings;
            writeln!(
                out,
                "{{\"job\":\"{}\",\"span\":{},\"timings\":{{\"map_ns\":{},\"shuffle_ns\":{},\"reduce_ns\":{}}},\"counters\":{{\"map_input_records\":{},\"map_output_records\":{},\"shuffle_records\":{},\"shuffle_bytes_est\":{},\"merge_runs\":{},\"spill_bytes\":{},\"disk_runs\":{},\"reduce_output_records\":{}}}}}",
                m.job_name.replace('"', "'"),
                job.span,
                t.map.as_nanos(),
                t.shuffle.as_nanos(),
                t.reduce.as_nanos(),
                m.map_input_records,
                m.map_output_records,
                m.shuffle_records,
                m.shuffle_bytes,
                m.merge_runs,
                m.spill_bytes,
                m.disk_runs,
                m.reduce_output_records
            )?;
        }
        out.flush()
    }
}

/// Time and counters of one layer within one operation.
#[derive(Debug, Clone, Default)]
pub struct Layer {
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time (span minus child spans minus attached phases).
    pub self_time: Duration,
    /// Phase timings of the MapReduce jobs attached to the layer's spans.
    pub map: Duration,
    pub shuffle: Duration,
    pub reduce: Duration,
    /// Duration of every call.
    pub calls: Vec<Duration>,
    /// Summed `/proc` deltas of the spans that recorded them.
    pub proc: ProcSample,
    pub jobs: Vec<JobMetrics>,
}

impl Layer {
    pub fn phases(&self) -> Duration {
        self.map + self.shuffle + self.reduce
    }

    /// Per-call latency quantile in microseconds (0 without calls).
    pub fn call_us(&self, q: f64) -> f64 {
        let us: Vec<f64> = self.calls.iter().map(|d| stats::us(*d)).collect();
        stats::quantile(&us, q)
    }
}

/// Layer table of one traced operation.
#[derive(Debug, Clone, Default)]
pub struct Breakdown {
    pub wall: Duration,
    pub unattributed: Duration,
    /// `/proc` deltas over the whole operation (when the root recorded
    /// them).
    pub proc: ProcSample,
    pub layers: BTreeMap<&'static str, Layer>,
}

impl Breakdown {
    fn layer(&mut self, name: &'static str) -> &mut Layer {
        self.layers.entry(name).or_default()
    }

    /// The layer's figures (an empty layer when the operation never
    /// entered it).
    pub fn get(&self, name: &str) -> Layer {
        self.layers.get(name).cloned().unwrap_or_default()
    }

    /// `Σ self + Σ phases + unattributed`, which equals `wall` by
    /// construction; printed next to the wall as a check.
    pub fn accounted(&self) -> Duration {
        self.layers
            .values()
            .map(|l| l.self_time + l.phases())
            .sum::<Duration>()
            + self.unattributed
    }
}
