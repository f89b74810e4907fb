//! Pieces every workload shares: the reference index build, serving
//! options, the answer comparison used by the checks, and process memory.

use crate::trace::Tracer;
use mogul_core::{
    MogulConfig, MogulIndex, OutOfSampleConfig, OutOfSampleIndex, SearchStats, TopKResult,
};
use mogul_graph::knn::{knn_graph, KnnConfig};
use mogul_graph::Graph;
use mogul_serve::{QueryResponse, ServeOptions};
use std::sync::Arc;
use std::time::Instant;

/// Worker threads of every server: one per core of the 2-core reference
/// machine.
pub const WORKERS: usize = 2;

/// How many times set-up runs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Options of every server under test. One pipelined connection carries
/// many independent users, so the per-connection in-flight cap is raised to
/// the queue bound: the open loop measures queueing, not shedding.
pub fn serve_options() -> ServeOptions {
    ServeOptions::builder()
        .workers(WORKERS)
        .queue_capacity(1024)
        .max_inflight_per_conn(1024)
        .build()
        .expect("the benchmark's serve options are valid")
}

/// The monolithic reference build: `knn_graph` → `MogulIndex::build` →
/// `OutOfSampleIndex::new`, with default `MogulConfig` (incomplete LDLᵀ).
/// The same calls traced and untraced; the precompute steps inside
/// `MogulIndex::build` are timed one by one in the layer sweep.
pub fn build_reference(features: &[Vec<f64>], tracer: &Tracer) -> (Graph, Arc<OutOfSampleIndex>) {
    let _build = tracer.span("build.monolithic");
    let graph = {
        let _s = tracer.span("graph.knn");
        knn_graph(features, KnnConfig::with_k(crate::inputs::K)).expect("k-NN graph")
    };
    let index = {
        let _s = tracer.span("mogul.build");
        MogulIndex::build(&graph, MogulConfig::default()).expect("Mogul index")
    };
    let oos = {
        let _s = tracer.span("oos.attach");
        OutOfSampleIndex::new(index, features.to_vec(), OutOfSampleConfig::default())
            .expect("out-of-sample index")
    };
    (graph, Arc::new(oos))
}

/// Run `setup` [`SETUP_REPEATS`] times, keep the last result, and return
/// it with the median wall time in seconds.
pub fn repeated_setup<T>(tracer: &Tracer, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous result first, so peak memory is one set-up's.
        drop(kept.take());
        let _s = tracer.span("setup");
        let start = Instant::now();
        kept = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        kept.expect("set-up ran at least once"),
        crate::stats::median(&times),
    )
}

/// What a query answer must reproduce exactly: the ranked top-k, and for an
/// out-of-sample answer its neighbours and work counters. Phase timings are
/// measurements, not answers, and are left out.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerKey {
    pub top_k: TopKResult,
    pub out_of_sample: Option<(Vec<usize>, SearchStats)>,
}

pub fn answer_key(response: &QueryResponse) -> AnswerKey {
    AnswerKey {
        top_k: response.top_k().clone(),
        out_of_sample: response
            .out_of_sample()
            .map(|r| (r.neighbors.clone(), r.stats)),
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next reading covers
/// only what follows. Without this kernel interface the reading keeps
/// covering the set-up too.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// CPU time of the whole process (every thread, live or ended), seconds.
fn process_cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name; utime and stime are the
    // 12th and 13th of those, in clock ticks (100 a second on Linux).
    let fields: Vec<&str> = stat[stat.rfind(')').expect("stat has a command name") + 2..]
        .split_whitespace()
        .collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) / 100.0
}

/// Ticks the host took from this machine (steal) and all ticks, summed
/// over every CPU, from the first line of `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (
        ticks.get(7).copied().unwrap_or(0),
        ticks.iter().take(8).sum(),
    )
}

/// Process CPU time, peak memory and host steal over one timed phase.
pub struct PhaseMeter {
    cpu_s: f64,
    host: (u64, u64),
}

/// What a timed phase used.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseUsage {
    /// CPU seconds the process spent, over all its threads.
    pub cpu_s: f64,
    /// Share of the machine's CPU time the host took away (steal). Wall
    /// times swing with it on a shared host; CPU time does not.
    pub steal_share: f64,
    /// Peak resident set during the phase, MiB: what the phase held on top
    /// of the set-up that was resident when it began.
    pub peak_rss_mib: f64,
}

impl PhaseMeter {
    pub fn start() -> Self {
        reset_peak_rss();
        PhaseMeter {
            cpu_s: process_cpu_seconds(),
            host: host_ticks(),
        }
    }

    pub fn stop(self) -> PhaseUsage {
        let (steal, total) = host_ticks();
        PhaseUsage {
            cpu_s: process_cpu_seconds() - self.cpu_s,
            steal_share: (steal - self.host.0) as f64 / (total - self.host.1).max(1) as f64,
            peak_rss_mib: peak_rss_mib(),
        }
    }
}

/// A directory for this run's files inside the checkout, emptied first.
pub fn scratch_dir(workload: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(".perfbench_run").join(format!("{workload}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the run directory");
    dir
}

/// A `NetServer` running on its own thread over loopback.
pub struct RunningNet {
    pub addr: std::net::SocketAddr,
    handle: mogul_serve::net::NetHandle,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl RunningNet {
    pub fn start(server: mogul_serve::net::NetServer) -> Self {
        let addr = server.local_addr();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        RunningNet {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    pub fn stats(&self) -> mogul_serve::net::ServerStatsReport {
        self.handle.stats_report()
    }

    /// Drain the server and wait for its thread to end.
    pub fn stop(mut self) {
        let thread = self.thread.take().expect("a running server has its thread");
        self.handle.drain();
        thread
            .join()
            .expect("the server thread panicked")
            .expect("the server ended with an I/O error");
    }
}

/// A run that panics still drains its server, so no thread outlives it.
impl Drop for RunningNet {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.drain();
            let _ = thread.join();
        }
    }
}

/// Connect a client with bounded waits, so a stalled server fails the run
/// instead of hanging it.
pub fn connect(addr: std::net::SocketAddr) -> mogul_serve::net::NetClient {
    let client = mogul_serve::net::NetClient::connect(addr).expect("connect to the server");
    let limit = Some(std::time::Duration::from_secs(10));
    client
        .set_read_timeout(limit)
        .expect("set the read timeout");
    client
        .set_write_timeout(limit)
        .expect("set the write timeout");
    client
}
