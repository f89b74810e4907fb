//! The four workloads. Each sets up the system from the seed, runs its
//! timed phase for `--seconds`, checks the answers it got, and returns the
//! samples the end-to-end metrics are computed from.

use crate::common::{
    answer_key, build_reference, connect, repeated_setup, serve_options, AnswerKey, PhaseMeter,
    PhaseUsage, RunningNet,
};
use crate::inputs::{self, corpus, delta_sequence, poisson_schedule, query_stream, ITEMS, K};
use crate::trace::Tracer;
use mogul_core::persist;
use mogul_core::update::IndexBuilder;
use mogul_core::wal::{self, WalSync};
use mogul_core::{OutOfSampleIndex, ShardedConfig, ShardedIndex};
use mogul_graph::Graph;
use mogul_serve::net::NetServer;
use mogul_serve::{IndexWriter, QueryRequest, QueryServer, ServeError};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the `online` open loop, queries per second. A fixed
/// number, about half the closed-loop capacity of the 2-core reference
/// machine (≈4,200 q/s over two connections); never probed at run time.
pub const ONLINE_RATE: f64 = 2_000.0;
/// Requests per `serve_batch` call in `batch`.
pub const BATCH: usize = 64;
/// Length of the query stream the workloads cycle through.
pub const STREAM_LEN: usize = 4_096;
/// Every n-th answer is kept and checked against the in-process answer.
const SAMPLE_EVERY: usize = 40;
/// MOG1 loads per `build` cycle.
const LOADS_PER_CYCLE: usize = 12;
/// Rows of the k-NN graph checked against the benchmark's brute force.
const KNN_CHECK_ROWS: usize = 24;
/// Deltas per second of `--seconds` in the `ingest` write phase. The
/// sequence length is fixed by the run length, not by how fast the machine
/// applies it, so every run walks the same correction-rank trajectory.
const INGEST_PACE: f64 = 2.0;
/// Offered rate of the `ingest` reader, queries per second: a fixed number,
/// about half the reads a closed-loop reader completes beside the writer on
/// the 2-core reference machine (≈120/s). At a fixed rate the reader's CPU
/// time grows with the cost of each corrected read, so `cpu_ms_per_op`
/// shows that cost; a closed loop would do fewer reads instead.
pub const INGEST_READ_RATE: f64 = 60.0;
/// Deltas applied after the final checkpoint, so recovery replays the log.
const REPLAYED_AFTER_CHECKPOINT: usize = 2;

/// Everything a run needs besides its inputs.
pub struct Ctx<'a> {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: &'a Tracer,
    pub dir: std::path::PathBuf,
}

/// The reference index a workload built, handed to the traced layer sweep.
pub struct Reference {
    pub features: Vec<Vec<f64>>,
    pub graph: Graph,
    pub oos: Arc<OutOfSampleIndex>,
}

/// Raw results of one workload run.
#[derive(Default)]
pub struct Outcome {
    pub setup_s: f64,
    /// The workload's operation latencies, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Operations (or items) completed per second.
    pub throughput_per_s: f64,
    /// Operations of the timed phase that `usage.cpu_s` is divided by.
    pub ops: u64,
    pub usage: PhaseUsage,
    pub attempted: u64,
    /// Failed, shed and timed-out operations.
    pub failed: u64,
    /// Answer-check failures; any entry makes the run incorrect.
    pub mismatches: Vec<String>,
    pub reference: Option<Reference>,
}

impl Outcome {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A typed refusal (`Overloaded`, `Draining`): counted as shed, never
/// panicked on.
fn is_shed(err: &ServeError) -> bool {
    matches!(err, ServeError::Overloaded { .. } | ServeError::Draining)
}

// ---------------------------------------------------------------------------
// online
// ---------------------------------------------------------------------------

/// Result of one open-loop run over one pipelined connection.
pub struct OpenLoop {
    /// Latency of each answered request, timed from its due time, ms.
    pub latencies_ms: Vec<f64>,
    /// How late the generator sent each request, µs.
    pub late_us: Vec<f64>,
    pub attempted: u64,
    pub answered: u64,
    pub shed: u64,
    pub failed: u64,
    /// Seconds from the first due time to the last answer.
    pub wall_s: f64,
    /// `(request index, answer)` of every [`SAMPLE_EVERY`]-th request.
    pub sampled: Vec<(usize, AnswerKey)>,
}

/// Send `stream[i % len]` at `schedule[i]` seconds over one connection, with
/// a sender thread and a receiver thread.
pub fn open_loop(
    addr: std::net::SocketAddr,
    stream: &[QueryRequest],
    schedule: &[f64],
    tracer: &Tracer,
) -> OpenLoop {
    let total = schedule.len();
    let mut sender = connect(addr);
    let mut receiver = sender.try_clone().expect("clone the client socket");
    // The first due time leaves the threads a moment to start.
    let t0 = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| t0 + Duration::from_secs_f64(schedule[i]);
    let (sent_tx, sent_rx) = mpsc::channel::<(u64, usize)>();

    std::thread::scope(|scope| {
        let send = scope.spawn(move || {
            let mut late_us = Vec::with_capacity(total);
            let mut failed = 0u64;
            for i in 0..total {
                let at = due(i);
                if let Some(wait) = at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                late_us.push(Instant::now().saturating_duration_since(at).as_secs_f64() * 1e6);
                let _s = tracer.span_for("net.send", Some(i as u64));
                match sender.send_query(&stream[i % stream.len()]) {
                    Ok(id) => sent_tx
                        .send((id, i))
                        .expect("the receiver outlives the sender"),
                    Err(_) => {
                        failed = (total - i) as u64;
                        break;
                    }
                }
            }
            (late_us, failed)
        });

        let recv = scope.spawn(move || {
            let mut pending = std::collections::HashMap::<u64, usize>::new();
            let mut out = OpenLoop {
                latencies_ms: Vec::with_capacity(total),
                late_us: Vec::new(),
                attempted: total as u64,
                answered: 0,
                shed: 0,
                failed: 0,
                wall_s: 0.0,
                sampled: Vec::new(),
            };
            let mut last = t0;
            let mut received = 0usize;
            while received < total {
                let got = {
                    let _s = tracer.span("net.recv");
                    receiver.recv_answer()
                };
                let (id, answer) = match got {
                    Ok(got) => got,
                    // A read timeout or a closed socket: the rest never came.
                    Err(_) => break,
                };
                received += 1;
                let i = loop {
                    if let Some(i) = pending.remove(&id) {
                        break i;
                    }
                    match sent_rx.recv() {
                        Ok((sent, i)) => {
                            pending.insert(sent, i);
                        }
                        Err(_) => panic!("answer for request id {id}, which was never sent"),
                    }
                };
                let now = Instant::now();
                last = now;
                match answer {
                    Ok(response) => {
                        out.answered += 1;
                        out.latencies_ms
                            .push(ms(now.saturating_duration_since(due(i))));
                        if i.is_multiple_of(SAMPLE_EVERY) {
                            out.sampled.push((i, answer_key(&response)));
                        }
                    }
                    Err(err) if is_shed(&err) => out.shed += 1,
                    Err(_) => out.failed += 1,
                }
            }
            out.wall_s = last.saturating_duration_since(t0).as_secs_f64();
            out
        });

        let (late_us, send_failed) = send.join().expect("the sender thread panicked");
        let mut out = recv.join().expect("the receiver thread panicked");
        out.late_us = late_us;
        // Whatever was neither answered, shed nor failed timed out.
        let accounted = out.answered + out.shed + out.failed;
        out.failed += send_failed.max(out.attempted - accounted);
        out
    })
}

/// Check sampled socket answers against in-process `QueryServer::query`.
fn check_sampled(
    outcome: &mut Outcome,
    server: &QueryServer,
    stream: &[QueryRequest],
    sampled: &[(usize, AnswerKey)],
    what: &str,
) {
    for (i, got) in sampled {
        let request = &stream[i % stream.len()];
        let want = server.query(request).map(|r| answer_key(&r));
        outcome.check(want.as_ref() == Ok(got), || {
            format!("{what}: request {i} answered differently over the socket")
        });
    }
}

/// Independent users searching by example: a Poisson open loop over
/// loopback MGW1 at [`ONLINE_RATE`].
pub fn online(ctx: &Ctx) -> Outcome {
    let tracer = ctx.tracer;
    let schedule = poisson_schedule(ctx.seed, ONLINE_RATE, ctx.seconds);
    let ((features, graph, oos, server), core_s) = repeated_setup(tracer, || {
        let features = corpus();
        let (graph, oos) = build_reference(&features, tracer);
        let server = Arc::new(QueryServer::new(Arc::clone(&oos), serve_options()));
        (features, graph, oos, server)
    });
    let start = Instant::now();
    let net = RunningNet::start(
        NetServer::bind("127.0.0.1:0", Arc::clone(&server), serve_options())
            .expect("bind the front door"),
    );
    let setup_s = core_s + start.elapsed().as_secs_f64();

    let ids: Vec<usize> = (0..ITEMS).collect();
    let stream = query_stream(ctx.seed, &features, &ids, STREAM_LEN);
    warm_socket(net.addr, &stream);

    let meter = PhaseMeter::start();
    let run = open_loop(net.addr, &stream, &schedule, tracer);
    let usage = meter.stop();
    let stats = net.stats();
    net.stop();

    let late_p99 = crate::stats::percentile(&run.late_us, 0.99);
    eprintln!(
        "online: {} sent, {} answered, {} shed, {} failed; generator late p50 {:.0} us, p99 {:.0} us; \
         server completed {} (server-side p50 {:.0} us, excludes the socket write)",
        run.attempted,
        run.answered,
        run.shed,
        run.failed,
        crate::stats::median(&run.late_us),
        late_p99,
        stats.completed,
        stats.p50_us,
    );
    let mut outcome = Outcome {
        setup_s,
        throughput_per_s: run.answered as f64 / run.wall_s.max(1e-9),
        ops: run.answered,
        usage,
        attempted: run.attempted,
        failed: run.shed + run.failed,
        ..Outcome::default()
    };
    check_sampled(&mut outcome, &server, &stream, &run.sampled, "online");
    outcome.check(!run.sampled.is_empty(), || {
        "online: no answer was sampled".into()
    });
    outcome.latencies_ms = run.latencies_ms;
    outcome.reference = Some(Reference {
        features,
        graph,
        oos,
    });
    outcome
}

/// A few hundred round trips before timing, so lazily grown buffers and
/// caches are warm.
fn warm_socket(addr: std::net::SocketAddr, stream: &[QueryRequest]) {
    let mut client = connect(addr);
    for request in stream.iter().take(256) {
        client.query(request).expect("warm-up query");
    }
}

// ---------------------------------------------------------------------------
// batch
// ---------------------------------------------------------------------------

/// Offline bulk retrieval: one caller submitting 64-request batches to
/// `QueryServer::serve_batch`, closed loop.
pub fn batch(ctx: &Ctx) -> Outcome {
    let tracer = ctx.tracer;
    let ((features, graph, oos, server), setup_s) = repeated_setup(tracer, || {
        let features = corpus();
        let (graph, oos) = build_reference(&features, tracer);
        let server = QueryServer::new(Arc::clone(&oos), serve_options());
        (features, graph, oos, server)
    });
    let ids: Vec<usize> = (0..ITEMS).collect();
    let stream = query_stream(ctx.seed, &features, &ids, STREAM_LEN);
    let batches: Vec<&[QueryRequest]> = stream.chunks(BATCH).collect();
    for batch in batches.iter().take(4) {
        server.serve_batch(batch);
    }

    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut sampled = Vec::new();
    let mut answered = 0u64;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let mut call = 0usize;
    let meter = PhaseMeter::start();
    while Instant::now() < deadline {
        let batch = batches[call % batches.len()];
        let begun = Instant::now();
        let answers = {
            let _s = tracer.span("serve.batch64");
            server.serve_batch(batch)
        };
        outcome.latencies_ms.push(ms(begun.elapsed()));
        outcome.attempted += batch.len() as u64;
        for answer in &answers {
            match answer {
                Ok(_) => answered += 1,
                Err(_) => outcome.failed += 1,
            }
        }
        if call.is_multiple_of(SAMPLE_EVERY) {
            sampled.push((call % batches.len(), answers));
        }
        call += 1;
    }
    outcome.usage = meter.stop();
    let wall = start.elapsed().as_secs_f64();
    outcome.throughput_per_s = answered as f64 / wall;
    outcome.ops = answered;
    eprintln!(
        "batch: {call} calls of {BATCH}, {answered} answered, {} failed in {wall:.2} s",
        outcome.failed
    );

    // `serve_batch` must answer exactly as per-request `query` does.
    for (b, answers) in &sampled {
        for (request, answer) in batches[*b].iter().zip(answers) {
            let got = answer.as_ref().map(answer_key);
            let want = server.query(request).map(|r| answer_key(&r));
            outcome.check(got.ok() == want.ok(), || {
                format!("batch: batch {b} differs from per-request query")
            });
        }
    }
    outcome.check(!sampled.is_empty(), || "batch: no batch was sampled".into());
    outcome.reference = Some(Reference {
        features,
        graph,
        oos,
    });
    outcome
}

// ---------------------------------------------------------------------------
// ingest
// ---------------------------------------------------------------------------

/// Writes beside reads: a writer applying single-item durable deltas back to
/// back through `IndexWriter::apply_delta`, and a Poisson open-loop reader
/// at [`INGEST_READ_RATE`] over one MGW1 connection against the writer's
/// server.
pub fn ingest(ctx: &Ctx) -> Outcome {
    let tracer = ctx.tracer;
    let mut setups = 0usize;
    let ((features, server, writer, checkpoint, wal_dir), core_s) = repeated_setup(tracer, || {
        setups += 1;
        let features = corpus();
        let index = {
            let _s = tracer.span("update.build");
            IndexBuilder::new()
                .knn_k(K)
                .build(features.clone())
                .expect("updatable index")
        };
        let (server, writer) = IndexWriter::new(index, serve_options());
        let checkpoint = ctx.dir.join(format!("checkpoint-{setups}.mog1"));
        let wal_dir = ctx.dir.join(format!("wal-{setups}"));
        writer.set_checkpoint(Some(checkpoint.clone()));
        writer
            .enable_wal(&wal_dir, WalSync::EveryRecord)
            .expect("enable the write-ahead log");
        (features, server, Arc::new(writer), checkpoint, wal_dir)
    });
    let start = Instant::now();
    let net = RunningNet::start(
        NetServer::bind("127.0.0.1:0", Arc::clone(&server), serve_options())
            .expect("bind the front door")
            .with_writer(Arc::clone(&writer)),
    );
    let setup_s = core_s + start.elapsed().as_secs_f64();

    let writes = (INGEST_PACE * ctx.seconds).ceil() as usize;
    let (deltas, removed) = delta_sequence(&features, writes + REPLAYED_AFTER_CHECKPOINT);
    let ids: Vec<usize> = (0..ITEMS).filter(|id| !removed.contains(id)).collect();
    let stream = query_stream(ctx.seed, &features, &ids, STREAM_LEN);
    warm_socket(net.addr, &stream);

    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let schedule = poisson_schedule(ctx.seed, INGEST_READ_RATE, ctx.seconds);
    let meter = PhaseMeter::start();
    let (write_results, reads) = std::thread::scope(|scope| {
        let writer_thread = scope.spawn(|| {
            let mut update_ms = Vec::with_capacity(writes);
            let (mut acked, mut failed, mut rebuilds) = (0u64, 0u64, 0u64);
            let begun = Instant::now();
            for delta in &deltas[..writes] {
                let t = Instant::now();
                let report = {
                    let _s = tracer.span("ingest.apply_delta");
                    writer.apply_delta(delta)
                };
                update_ms.push(ms(t.elapsed()));
                match report {
                    Ok(report) => {
                        acked += delta.len() as u64;
                        rebuilds += u64::from(report.rebuilt);
                    }
                    Err(_) => failed += 1,
                }
            }
            (
                update_ms,
                acked,
                failed,
                rebuilds,
                begun.elapsed().as_secs_f64(),
            )
        });
        let reader_thread = scope.spawn(|| open_loop(net.addr, &stream, &schedule, tracer));
        (
            writer_thread.join().expect("the writer thread panicked"),
            reader_thread.join().expect("the reader thread panicked"),
        )
    });
    outcome.usage = meter.stop();
    let (update_ms, acked, write_failed, rebuilds, write_s) = write_results;
    net.stop();

    let debt = writer.debt();
    eprintln!(
        "ingest: {writes} deltas ({acked} items acked, {write_failed} failed, {rebuilds} rebuilds) \
         in {write_s:.2} s, update p50 {:.1} ms; correction rank {} at the end; \
         {} reads ({} shed, {} failed), read p50 {:.2} ms from the due time, generator late p99 {:.0} us",
        crate::stats::median(&update_ms),
        debt.correction_rank,
        reads.attempted,
        reads.shed,
        reads.failed,
        crate::stats::median(&reads.latencies_ms),
        crate::stats::percentile(&reads.late_us, 0.99),
    );
    outcome.throughput_per_s = acked as f64 / write_s;
    outcome.ops = acked;
    outcome.attempted = reads.attempted + writes as u64;
    outcome.failed = reads.shed + reads.failed + write_failed;
    outcome.latencies_ms = reads.latencies_ms;

    // Recovery check, outside the timed phase: checkpoint now (rotating the
    // log), apply a few more logged deltas, then recover checkpoint + log
    // and compare with the live writer.
    writer
        .checkpoint_now()
        .expect("checkpoint after the write phase");
    // Records the log holds past the last checkpoint (a rebuild re-saves
    // the checkpoint and rotates the log).
    let mut logged = 0usize;
    for delta in &deltas[writes..] {
        let report = writer
            .apply_delta(delta)
            .expect("apply after the checkpoint");
        logged = if report.rebuilt { 0 } else { logged + 1 };
    }
    let live = server.snapshot();
    drop(writer);
    let (recovered, _log, report) = {
        let _s = tracer.span("wal.recover");
        wal::recover_updatable(&checkpoint, &wal_dir, WalSync::EveryRecord)
            .expect("recover checkpoint + log")
    };
    outcome.check(recovered.epoch() == live.epoch(), || {
        format!(
            "ingest: recovery landed on epoch {} but the writer is on {}",
            recovered.epoch(),
            live.epoch()
        )
    });
    outcome.check(report.replay.applied == logged, || {
        format!(
            "ingest: recovery replayed {} records, expected {logged}",
            report.replay.applied
        )
    });
    let recovered = recovered.snapshot();
    outcome.check(recovered.item_ids() == live.item_ids(), || {
        "ingest: recovered item ids differ".into()
    });
    for id in live.item_ids().into_iter().step_by(197) {
        let same = recovered.query_by_id(id, K).ok() == live.query_by_id(id, K).ok();
        outcome.check(same, || {
            format!("ingest: recovered answer for id {id} differs")
        });
    }
    for request in stream.iter().step_by(97) {
        if let QueryRequest::OutOfSample { feature, .. } = request {
            let key = |s: &mogul_core::update::IndexSnapshot| {
                s.query_by_feature(feature, K)
                    .ok()
                    .map(|r| (r.top_k, r.neighbors, r.stats))
            };
            outcome.check(key(&recovered) == key(&live), || {
                "ingest: a recovered out-of-sample answer differs".into()
            });
        }
    }
    outcome
}

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

/// The benchmark's own brute-force k nearest neighbours of row `i`:
/// ascending squared distance, ties by ascending index, distances reported
/// as square roots.
pub fn brute_force_row(features: &[Vec<f64>], i: usize, k: usize) -> Vec<(usize, f64)> {
    let mut all: Vec<(f64, usize)> = features
        .iter()
        .enumerate()
        .filter(|&(j, _)| j != i)
        .map(|(j, f)| {
            let d2 = features[i]
                .iter()
                .zip(f)
                .fold(0.0, |acc, (a, b)| acc + (a - b) * (a - b));
            (d2, j)
        })
        .collect();
    all.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    all.truncate(k);
    all.into_iter().map(|(d2, j)| (j, d2.sqrt())).collect()
}

/// Check sampled k-NN rows: the library's per-row search must equal the
/// brute force (tie order included), and the graph must hold exactly the
/// union-rule edges those rows imply for the sampled nodes.
pub fn check_knn_rows(outcome: &mut Outcome, features: &[Vec<f64>], graph: &Graph, seed: u64) {
    let mut rng = inputs::Rng::fork(seed, 5);
    for _ in 0..KNN_CHECK_ROWS {
        let i = rng.below(features.len());
        let want = brute_force_row(features, i, K);
        let got = mogul_graph::knn::nearest_neighbors(features, &features[i], K, i);
        outcome.check(got == want, || {
            format!("build: k-NN row {i} differs from brute force")
        });
        for &(j, _) in &want {
            outcome.check(graph.has_edge(i, j), || {
                format!("build: the graph lacks the k-NN edge {i}-{j}")
            });
        }
        for &(j, _) in graph.neighbors(i) {
            let listed = want.iter().any(|&(n, _)| n == j)
                || brute_force_row(features, j, K).iter().any(|&(n, _)| n == i);
            outcome.check(listed, || {
                format!("build: the graph edge {i}-{j} is in neither k-NN row")
            });
        }
    }
}

/// Operator build and restart: monolithic builds, S=4 sharded builds, a
/// MOG1 save and repeated loads, cycled for the run.
pub fn build(ctx: &Ctx) -> Outcome {
    let tracer = ctx.tracer;
    let ((features, graph, oos), setup_s) = repeated_setup(tracer, || {
        let features = corpus();
        let (graph, oos) = build_reference(&features, tracer);
        (features, graph, oos)
    });
    let path = ctx.dir.join("index.mog1");
    let mut outcome = Outcome {
        setup_s,
        ..Outcome::default()
    };
    let mut build_s = Vec::new();
    let mut shard_s = Vec::new();
    let mut loaded = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let meter = PhaseMeter::start();
    while Instant::now() < deadline {
        let t = Instant::now();
        let (_graph, built) = build_reference(&features, tracer);
        build_s.push(t.elapsed().as_secs_f64());

        let t = Instant::now();
        let (sharded, report) = {
            let _s = tracer.span("shard.build");
            ShardedIndex::build(
                features.clone(),
                ShardedConfig::with_shards(4).builder(IndexBuilder::new().knn_k(K)),
            )
            .expect("sharded build")
        };
        shard_s.push(t.elapsed().as_secs_f64());
        let covered: usize = report.groups.iter().map(Vec::len).sum();
        outcome.check(covered == ITEMS, || {
            format!("build: the shards cover {covered} of {ITEMS} items")
        });
        drop(sharded);

        {
            let _s = tracer.span("persist.save");
            persist::save_index(&built, &path).expect("save the index");
        }
        for _ in 0..LOADS_PER_CYCLE {
            let t = Instant::now();
            let index = {
                let _s = tracer.span("persist.load");
                persist::load_index(&path).expect("load the index")
            };
            outcome.latencies_ms.push(ms(t.elapsed()));
            loaded = Some(index);
        }
        outcome.attempted += 2 + LOADS_PER_CYCLE as u64 + 1;
    }
    outcome.usage = meter.stop();
    outcome.ops = build_s.len() as u64;
    let wall = start.elapsed().as_secs_f64();
    let median_build = crate::stats::median(&build_s);
    outcome.throughput_per_s = ITEMS as f64 / median_build;
    eprintln!(
        "build: {} cycles in {wall:.1} s; monolithic build median {median_build:.3} s, \
         sharded (S=4) median {:.3} s, load median {:.2} ms",
        build_s.len(),
        crate::stats::median(&shard_s),
        crate::stats::median(&outcome.latencies_ms),
    );

    // Loaded answers must be the built answers.
    let loaded = loaded.expect("at least one load ran");
    let mut ws_a = mogul_core::SearchWorkspace::new();
    let mut ws_b = mogul_core::SearchWorkspace::new();
    for id in (0..ITEMS).step_by(131) {
        let a = oos.index().search_in(&mut ws_a, id, K).ok();
        let b = loaded.index().search_in(&mut ws_b, id, K).ok();
        outcome.check(a.is_some() && a == b, || {
            format!("build: the loaded index answers id {id} differently")
        });
    }
    let ids: Vec<usize> = (0..ITEMS).collect();
    for request in query_stream(ctx.seed, &features, &ids, 256).iter() {
        if let QueryRequest::OutOfSample { feature, .. } = request {
            let key = |o: &OutOfSampleIndex| {
                o.query(feature, K)
                    .ok()
                    .map(|r| (r.top_k, r.neighbors, r.stats))
            };
            outcome.check(key(&oos) == key(&loaded), || {
                "build: the loaded index answers a probe differently".into()
            });
        }
    }
    check_knn_rows(&mut outcome, &features, &graph, ctx.seed);
    outcome.reference = Some(Reference {
        features,
        graph,
        oos,
    });
    outcome
}
