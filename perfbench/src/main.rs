//! One benchmark for the histogram stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <construct|serve|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets up several times
//! (reporting the median set-up time), measures for `--seconds`, checks every
//! output and prints, as its last line, one JSON object with the end-to-end
//! metrics (`--trace 0`) or the per-layer breakdown (`--trace 1`). Lines
//! before it stamp the run and give the same numbers under the names the
//! workloads are documented with (see `perfbench/README.md`).

mod construct;
mod gen;
mod ingest;
mod probe;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use probe::Probe;
use stats::median;
use trace::{Kind, LayerStats, Tracer};

/// How many times each workload builds its set-up; `setup_s` is the median.
const SETUPS: usize = 5;

/// Spans of this many leading work units per recorder are written out.
const TRACE_DUMP_UNITS: u64 = 2_000;

/// Layers timed from outside, one span name each, with the unit their
/// median self time is reported in.
const LAYERS: &[(&str, &str)] = &[
    ("core.signal", "us"),
    ("core.merging", "us"),
    ("core.fastmerging", "us"),
    ("core.hierarchical", "us"),
    ("core.kernel_build", "us"),
    ("stream.fit_chunks", "us"),
    ("stream.fit_chunks_parallel", "us"),
    ("stream.tree_merge", "us"),
    ("baselines.exact_dp", "s"),
    ("net.encode_request", "ns"),
    ("net.decode_request", "ns"),
    ("persist.crc32", "ns"),
    ("serve.snapshot", "ns"),
    ("core.query", "ns"),
    ("net.encode_response", "ns"),
    ("net.decode_response", "ns"),
    ("net.round_trip", "us"),
    ("pipeline.next_batch", "us"),
    ("stream.extend", "us"),
    ("serve.update_merge", "us"),
    ("core.merge", "us"),
    ("pipeline.checkpoint", "us"),
];

/// Per-layer figures that are not a span's self time.
const EXTRAS: &[(&str, &str)] = &[
    ("core.merging_rounds", "count"),
    ("stream.parallel_speedup", "x"),
    ("net.transport_us", "us"),
    ("stream.chunks", "count"),
    ("persist.checkpoint_bytes", "bytes"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must lie in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Renders any error as text; the benchmark reports, it does not recover.
pub fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Operations attempted and the ones that failed or answered wrongly.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the log.
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one operation and its correctness verdict.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }

    /// Folds another thread's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for problem in other.problems {
            if self.problems.len() < 8 {
                self.problems.push(problem);
            }
        }
    }
}

/// Builds a workload's set-up [`SETUPS`] times, keeping the last one and
/// returning the median wall time of a set-up in seconds. Earlier set-ups are
/// dropped (servers shut down, threads joined) before the next starts.
pub fn timed_setups<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let started = Instant::now();
        last = Some(build()?);
        times.push(started.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// The end-to-end figures every workload reports (its own work in each).
pub struct EndToEnd {
    pub setup_s: f64,
    /// Work per second: input points fitted (`construct`), requests answered
    /// (`serve`), events ingested (`ingest`).
    pub throughput: f64,
    pub latency_p50_us: f64,
    pub latency_tail_us: f64,
    /// Produced or served L2 error over its reference.
    pub quality_ratio: f64,
    pub pieces_per_k: f64,
}

/// One reported number.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// What a workload run produced.
pub struct Report {
    pub tally: Tally,
    pub metrics: Vec<Metric>,
    pub notes: Vec<String>,
    end_to_end: bool,
}

impl Report {
    /// An untraced run's report. The tail latency is printed on its own line
    /// but is not a bounded metric: on a shared two-CPU host a slow spell
    /// covering a whole run moved it by up to 1.5 times its median (quartile
    /// distance over ten seeds), far past any usable bound.
    pub fn end_to_end(tally: Tally, e: EndToEnd, mut notes: Vec<String>) -> Self {
        notes.push(format!("latency_tail_us {} us (unbounded)", e.latency_tail_us));
        let metric = |name: &str, unit, value| Metric { name: name.into(), unit, value };
        let metrics = vec![
            metric("setup_s", "s", e.setup_s),
            metric("throughput", "1/s", e.throughput),
            metric("latency_p50_us", "us", e.latency_p50_us),
            metric("quality_ratio", "ratio", e.quality_ratio),
            metric("pieces_per_k", "ratio", e.pieces_per_k),
        ];
        Self { tally, metrics, notes, end_to_end: true }
    }

    /// A traced run's report: every layer in [`LAYERS`] and [`EXTRAS`]. A
    /// layer the workload never calls reports the probe's time beside its own
    /// zero call count; the probe also supplies the transport share where the
    /// workload sends nothing over the wire. Other extras the workload does
    /// not measure read 0.
    pub fn per_layer(
        stats: BTreeMap<&'static str, LayerStats>,
        mut extras: BTreeMap<&'static str, f64>,
        probe: &Probe,
        mut notes: Vec<String>,
    ) -> Self {
        extras.entry("net.transport_us").or_insert(probe.transport_us);
        let mut metrics = Vec::new();
        for &(stem, unit) in LAYERS {
            let scale = match unit {
                "s" => 1e-9,
                "us" => 1e-3,
                _ => 1.0,
            };
            let layer = stats.get(stem).cloned().unwrap_or_default();
            let timed = match probe.stats.get(stem) {
                Some(probed) if layer.calls == 0 => probed,
                _ => &layer,
            };
            let value = if timed.calls == 0 { 0.0 } else { median(&timed.self_ns) * scale };
            if layer.calls == 0 {
                notes.push(format!(
                    "layer {stem:<28} not called; probe median self {value:.3} {unit}"
                ));
            }
            metrics.push(Metric { name: format!("{stem}_{unit}"), unit, value });
            metrics.push(Metric {
                name: format!("{stem}.calls"),
                unit: "count",
                value: layer.calls as f64,
            });
            metrics.push(Metric {
                name: format!("{stem}.failures"),
                unit: "count",
                value: layer.failures as f64,
            });
            if layer.calls > 0 && layer.kind != Some(Kind::Work) {
                notes.push(format!(
                    "layer {stem:<28} {:>8} calls  median self {value:>12.3} {unit}  total {:>9.3} ms  ({:?})",
                    layer.calls,
                    layer.total_ns() / 1e6,
                    layer.kind.expect("recorded layers have a kind"),
                ));
            }
        }
        for &(name, unit) in EXTRAS {
            let value = extras.get(name).copied().unwrap_or(0.0);
            metrics.push(Metric { name: name.into(), unit, value });
            notes.push(format!("extra {name:<28} {value} {unit}"));
        }
        Self { tally: Tally::default(), metrics, notes, end_to_end: false }
    }
}

/// Writes a traced run's spans to `perfbench/traces/<workload>-seed<seed>.tsv`
/// (relative to the working directory). Failure to write is reported on
/// stderr and does not fail the run: the summary is already in memory.
pub fn write_trace(args: &Args, tracers: &[&Tracer]) {
    let dir = std::path::Path::new("perfbench").join("traces");
    let path = dir.join(format!("{}-seed{}.tsv", args.workload, args.seed));
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_spans(&mut out, tracers, TRACE_DUMP_UNITS)
    });
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM line")?;
    let kib: f64 =
        line.split_whitespace().nth(1).ok_or("malformed VmHWM line")?.parse().map_err(err)?;
    Ok(kib / 1024.0)
}

/// The checked-out git revision, read from `.git` in the working directory
/// (no subprocess); `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok().map(|s| s.trim().to_string());
    let Some(head) = read(".git/HEAD") else { return "unknown".into() };
    let Some(reference) = head.strip_prefix("ref: ") else { return head };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .map(|l| l[..l.len() - reference.len()].trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <construct|serve|ingest> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let result = match args.workload.as_str() {
        "construct" => construct::run(&args),
        "serve" => serve::run(&args),
        "ingest" => ingest::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if report.end_to_end {
        match peak_rss_mb() {
            Ok(mb) => {
                report.metrics.push(Metric { name: "peak_rss_mb".into(), unit: "MB", value: mb })
            }
            Err(e) => {
                eprintln!("perfbench: cannot read peak RSS: {e}");
                std::process::exit(1);
            }
        }
    }

    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# stamp {{\"workload\": {}, \"seed\": {}, \"revision\": {}, \"available_parallelism\": {parallelism}, \"run_seconds\": {}, \"trace\": {}}}",
        json_string(&args.workload),
        args.seed,
        json_string(&git_revision()),
        args.seconds,
        u8::from(args.trace),
    );
    for note in &report.notes {
        println!("# {note}");
    }
    let tally = &report.tally;
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    for problem in &tally.problems {
        println!("# FAILED {problem}");
    }

    let finite = report.metrics.iter().all(|m| m.value.is_finite());
    let correct = tally.failed == 0 && tally.attempted > 0 && finite;
    let mut metrics = String::new();
    for (i, m) in report.metrics.iter().enumerate() {
        println!("# {} {} {}", m.name, m.value, m.unit);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            metrics,
            "{}{}: {{\"value\": {value:?}, \"unit\": {}}}",
            if i == 0 { "" } else { ", " },
            json_string(&m.name),
            json_string(m.unit)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
