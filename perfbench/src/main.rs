//! One benchmark for the whole Mogul stack.
//!
//! ```text
//! perfbench --workload <online|batch|ingest|build> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The benchmark generates the fixed reference corpus (`web_like`, 12,000
//! items, 32-d, 60 topics, background 0.2, k-NN k = 10) and, from the seed,
//! the query stream; runs one workload against the system through its
//! public functions; checks the answers; and prints one JSON line last:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! * `--trace 0` reports the end-to-end metrics (`setup_s`,
//!   `cpu_ms_per_op`, `throughput_per_s`, `peak_rss_mib`). Latencies are
//!   printed on standard error: on a shared host they swing with the CPU
//!   time the host takes away, too far for a bound.
//! * `--trace 1` records spans around every call into a layer, runs the
//!   layer sweep, and reports the per-layer metrics instead, plus the
//!   workload's latency, CPU time and throughput measured under tracing
//!   (tracing overhead = traced − untraced). The spans are written to
//!   `.perfbench_run/trace-<workload>-<seed>.jsonl`.
//!
//! `METRICS.md` next to this crate defines every metric per workload.

mod common;
mod inputs;
mod layers;
mod stats;
mod trace;
mod workloads;

use std::time::Instant;
use trace::Tracer;
use workloads::Ctx;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

const WORKLOADS: [&str; 4] = ["online", "batch", "ingest", "build"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(problem: &str) -> ! {
    eprintln!("perfbench: {problem}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .unwrap_or_else(|| usage(&format!("{} needs a value", argv[i])));
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .unwrap_or_else(|_| usage("bad --seconds")),
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown argument {other}")),
        }
        i += 2;
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload {workload}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        usage("--seconds must lie in (0, 600]");
    }
    Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace,
    }
}

fn render(metric: &Metric) -> String {
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        metric.name, metric.value, metric.unit
    )
}

fn main() {
    let args = parse_args();
    let tracer = Tracer::new(args.trace);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: &tracer,
        dir: common::scratch_dir(&args.workload, args.seed),
    };
    let started = Instant::now();
    let mut outcome = match args.workload.as_str() {
        "online" => workloads::online(&ctx),
        "batch" => workloads::batch(&ctx),
        "ingest" => workloads::ingest(&ctx),
        "build" => workloads::build(&ctx),
        _ => unreachable!("workload names are validated"),
    };
    let phase_spans = tracer.spans().len();
    if outcome.latencies_ms.is_empty() {
        outcome
            .mismatches
            .push(format!("{}: no operation succeeded", args.workload));
    }
    let p50 = stats::median(&outcome.latencies_ms);
    let (tail, tail_p) = stats::tail(&outcome.latencies_ms);
    let cpu_ms_per_op = outcome.usage.cpu_s * 1e3 / outcome.ops.max(1) as f64;
    eprintln!(
        "{}: {} latency samples, p50 {p50:.4} ms, p{:.0} {tail:.4} ms; {:.1}/s; {cpu_ms_per_op:.4} CPU ms/op; \
         set-up {:.3} s; host steal {:.1}%",
        args.workload,
        outcome.latencies_ms.len(),
        tail_p * 100.0,
        outcome.throughput_per_s,
        outcome.setup_s,
        outcome.usage.steal_share * 100.0,
    );

    let metrics = if args.trace {
        let mut metrics = layers::sweep(&ctx, outcome.reference.take(), &mut outcome.mismatches);
        metrics.extend([
            Metric::new("trace.latency_p50_ms", p50, "ms"),
            Metric::new("trace.latency_tail_ms", tail, "ms"),
            Metric::new("trace.cpu_ms_per_op", cpu_ms_per_op, "ms"),
            Metric::new("trace.throughput_per_s", outcome.throughput_per_s, "1/s"),
            Metric::new("trace.phase_spans", phase_spans as f64, "count"),
            Metric::new("host.steal_share", outcome.usage.steal_share, "ratio"),
        ]);
        let path = ctx
            .dir
            .with_file_name(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&path).expect("write the trace");
        for (name, t) in trace::totals_by_name(&tracer.spans()) {
            eprintln!(
                "  span {name:<22} n {:>7}  total {:>10.3} ms  self {:>10.3} ms",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            );
        }
        metrics
    } else {
        vec![
            Metric::new("setup_s", outcome.setup_s, "s"),
            Metric::new("cpu_ms_per_op", cpu_ms_per_op, "ms"),
            Metric::new("throughput_per_s", outcome.throughput_per_s, "1/s"),
            Metric::new("peak_rss_mib", outcome.usage.peak_rss_mib, "MiB"),
        ]
    };
    let _ = std::fs::remove_dir_all(&ctx.dir);

    for problem in &outcome.mismatches {
        eprintln!("CHECK FAILED: {problem}");
    }
    let correct = outcome.mismatches.is_empty()
        && metrics
            .iter()
            .all(|m| m.value.is_finite() && m.value >= 0.0);
    eprintln!(
        "{}: done in {:.1} s",
        args.workload,
        started.elapsed().as_secs_f64()
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.iter().map(render).collect::<Vec<_>>().join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
