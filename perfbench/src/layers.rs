//! The traced run's layer sweep: fixed, seeded calls into each layer's
//! public functions on the reference index, each wrapped in a span. The
//! per-layer metrics are read from those spans (and `graph.knn_s` from the
//! k-NN spans of every reference build). The sweep is the same code on every
//! workload; `METRICS.md` maps each metric to the end-to-end metric and
//! workload it should move.

use crate::common::{build_reference, connect, serve_options, RunningNet};
use crate::inputs::{delta_sequence, poisson_schedule, query_stream, K};
use crate::trace::{Span, Tracer};
use crate::workloads::{open_loop, Ctx, Reference, ONLINE_RATE, STREAM_LEN};
use crate::Metric;
use mogul_core::update::IndexBuilder;
use mogul_core::wal::{self, Wal, WalOp, WalSync};
use mogul_core::{
    BatchWorkspace, IterativeConfig, IterativeSolver, MogulConfig, MogulIndex, MrParams,
    OosWorkspace, Ranker, SearchMode, SearchStats, SearchWorkspace, ShardedConfig, ShardedIndex,
};
use mogul_graph::clustering::modularity_clustering;
use mogul_graph::ordering::mogul_ordering;
use mogul_serve::net::wire::{decode_query_response, encode_query_request, encode_query_response};
use mogul_serve::net::NetServer;
use mogul_serve::{QueryRequest, QueryServer};
use std::sync::Arc;
use std::time::Instant;

/// Calls per timed layer in the sweep.
const CALLS: usize = 256;
/// Panel width of the batched-engine probes.
const PANEL: usize = 8;
/// Deltas replayed on the sweep's own updatable index.
const REPLAYED_DELTAS: usize = 4;
/// Ids whose Mogul top-10 is compared with the iterative solver.
const PRECISION_IDS: usize = 8;
/// Length of the open-loop burst that measures generator lateness, s.
const BURST_SECONDS: f64 = 1.0;
/// Runs of each precompute step of `MogulIndex::build`.
const PRECOMPUTE_REPEATS: usize = 3;

fn durations<'a>(spans: &'a [Span], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| s.name == name)
        .map(|s| s.duration_ns() as f64)
}

/// Median duration of the spans called `name`, in nanoseconds.
fn median_ns(spans: &[Span], name: &str) -> f64 {
    let values: Vec<f64> = durations(spans, name).collect();
    assert!(!values.is_empty(), "no span named {name} was recorded");
    crate::stats::median(&values)
}

/// Run every layer probe and return the per-layer metrics.
pub fn sweep(ctx: &Ctx, reference: Option<Reference>, mismatches: &mut Vec<String>) -> Vec<Metric> {
    let tracer: &Tracer = ctx.tracer;
    let first_sweep_span = tracer.spans().len();
    let Reference {
        features,
        graph,
        oos,
    } = reference.unwrap_or_else(|| {
        let features = crate::inputs::corpus();
        let (graph, oos) = build_reference(&features, tracer);
        Reference {
            features,
            graph,
            oos,
        }
    });
    let index = oos.index();
    let ids: Vec<usize> = (0..features.len()).collect();
    let stream = query_stream(ctx.seed, &features, &ids, STREAM_LEN);
    let in_db: Vec<usize> = stream
        .iter()
        .filter_map(|r| match r {
            QueryRequest::InDatabase { node, .. } => Some(*node),
            QueryRequest::OutOfSample { .. } => None,
        })
        .take(CALLS)
        .collect();
    let probes: Vec<&[f64]> = stream
        .iter()
        .filter_map(|r| match r {
            QueryRequest::OutOfSample { feature, .. } => Some(feature.as_slice()),
            QueryRequest::InDatabase { .. } => None,
        })
        .take(CALLS / 2)
        .collect();

    // mogul-graph clustering and ordering, then mogul-core precompute: the
    // steps `MogulIndex::build` takes, one by one on the reference graph.
    // The result must answer as the reference index does.
    let config = MogulConfig::default();
    let mut stepwise = None;
    for _ in 0..PRECOMPUTE_REPEATS {
        let clustering = {
            let _s = tracer.span("graph.clustering");
            modularity_clustering(&graph, &config.clustering)
        };
        let ordering = {
            let _s = tracer.span("graph.ordering");
            mogul_ordering(&graph, &clustering).expect("Mogul ordering")
        };
        let _s = tracer.span("mogul.factor_bounds");
        stepwise =
            Some(MogulIndex::build_with_ordering(&graph, config, ordering).expect("Mogul index"));
    }
    let stepwise = stepwise.expect("the precompute ran at least once");
    for &q in in_db.iter().take(PRECISION_IDS) {
        if stepwise.search(q, K).ok() != index.search(q, K).ok() {
            mismatches.push(format!(
                "sweep: the step-by-step build answers id {q} differently"
            ));
        }
    }
    drop(stepwise);

    // mogul-core::mogul::search — scalar pruned Algorithm 2.
    let mut ws = SearchWorkspace::new();
    let mut stats = SearchStats::default();
    for &q in &in_db {
        let _s = tracer.span("mogul.search");
        let (_, s) = index
            .search_with_stats_in(&mut ws, q, K, SearchMode::Pruned)
            .expect("pruned search");
        stats.merge(&s);
    }
    // mogul-core::mogul::batch — 8-wide panels of the same ids.
    let mut batch_ws = BatchWorkspace::new();
    for chunk in in_db.chunks(PANEL) {
        let _s = tracer.span("mogul.search_batch8");
        index
            .search_batch_in(&mut batch_ws, chunk, K, SearchMode::Pruned)
            .expect("panel search");
    }
    // mogul-core::out_of_sample — scalar and 8-wide.
    let mut oos_ws = OosWorkspace::new();
    let (mut nn_secs, mut total_secs) = (0.0, 0.0);
    for feature in &probes {
        let _s = tracer.span("oos.query");
        let result = oos
            .query_in(&mut oos_ws, feature, K)
            .expect("out-of-sample query");
        nn_secs += result.nearest_neighbor_secs;
        total_secs += result.total_secs();
    }
    for chunk in probes.chunks(PANEL) {
        let _s = tracer.span("oos.query_batch8");
        oos.query_batch_in(&mut batch_ws, chunk, K)
            .expect("out-of-sample panel");
    }
    // mogul-sparse::triangular + kernel — the reference factor's own sweeps.
    let l = index.factor_l();
    let u = l.transpose();
    let mut rng = crate::inputs::Rng::fork(ctx.seed, 6);
    let rhs: Vec<f64> = (0..l.nrows() * PANEL).map(|_| rng.unit() - 0.5).collect();
    let mut x = Vec::new();
    for _ in 0..CALLS / 4 {
        let _s = tracer.span("sparse.lower_b8");
        mogul_sparse::triangular::solve_unit_lower_multi_into(l, &rhs, PANEL, &mut x)
            .expect("unit lower panel solve");
    }
    for _ in 0..CALLS / 4 {
        let _s = tracer.span("sparse.upper_b8");
        mogul_sparse::triangular::solve_unit_upper_multi_into(&u, &rhs, PANEL, &mut x)
            .expect("unit upper panel solve");
    }

    // mogul-serve::server — per-request and 64-request dispatch.
    let server = Arc::new(QueryServer::new(Arc::clone(&oos), serve_options()));
    let mut responses = Vec::with_capacity(CALLS);
    for request in stream.iter().take(CALLS) {
        let _s = tracer.span("serve.query");
        responses.push(server.query(request).expect("serve query"));
    }
    for batch in stream.chunks(crate::workloads::BATCH).take(CALLS / 16) {
        let _s = tracer.span("serve.batch64");
        server.serve_batch(batch);
    }

    // mogul-serve::net — the codec alone (timed in blocks, since one call
    // is shorter than a span), then the socket.
    let (encode_ns, decode_ns) = codec_ns(&stream, &responses);
    let net = RunningNet::start(
        NetServer::bind("127.0.0.1:0", Arc::clone(&server), serve_options())
            .expect("bind the sweep's front door"),
    );
    {
        let mut client = connect(net.addr);
        for request in stream.iter().take(CALLS) {
            let _s = tracer.span("net.rtt");
            client.query(request).expect("unloaded socket query");
        }
    }
    let schedule = poisson_schedule(ctx.seed ^ 0x5EED, ONLINE_RATE, BURST_SECONDS);
    let burst = open_loop(net.addr, &stream, &schedule, tracer);
    net.stop();

    // mogul-core::update, ::wal and ::persist on the sweep's own updatable
    // index, with the reference write sequence of `ingest`.
    let (deltas, _) = delta_sequence(&features, REPLAYED_DELTAS);
    let mut updatable = {
        let _s = tracer.span("update.build");
        IndexBuilder::new()
            .knn_k(K)
            .build(features.clone())
            .expect("updatable index")
    };
    let checkpoint = ctx.dir.join("sweep-checkpoint.mog1");
    let wal_dir = ctx.dir.join("sweep-wal");
    mogul_core::persist::save_updatable(&updatable, &checkpoint).expect("save the checkpoint");
    let mut log =
        Wal::create(&wal_dir, updatable.epoch(), WalSync::EveryRecord).expect("create the log");
    let mut rebuilds = 0usize;
    for delta in &deltas {
        {
            let _s = tracer.span("wal.append");
            log.append(updatable.epoch() + 1, &WalOp::Delta(delta.clone()))
                .expect("append to the log");
        }
        let _s = tracer.span("update.apply");
        let report = updatable.apply(delta).expect("apply a delta");
        rebuilds += usize::from(report.rebuilt);
    }
    drop(log);
    let (recovered, _log, _) = {
        let _s = tracer.span("wal.recover");
        wal::recover_updatable(&checkpoint, &wal_dir, WalSync::EveryRecord).expect("recover")
    };
    if recovered.epoch() != updatable.epoch()
        || recovered.snapshot().query_by_id(0, K).ok()
            != updatable.snapshot().query_by_id(0, K).ok()
    {
        mismatches.push("sweep: recovery differs from the replayed index".into());
    }
    let correction_rank = updatable.debt().correction_rank;
    drop((recovered, updatable));

    let mog1 = ctx.dir.join("sweep-index.mog1");
    for _ in 0..3 {
        let _s = tracer.span("persist.save");
        mogul_core::persist::save_index(&oos, &mog1).expect("save the index");
    }
    for _ in 0..5 {
        let _s = tracer.span("persist.load");
        mogul_core::persist::load_index(&mog1).expect("load the index");
    }
    {
        let _s = tracer.span("shard.build");
        ShardedIndex::build(
            features.clone(),
            ShardedConfig::with_shards(4).builder(IndexBuilder::new().knn_k(K)),
        )
        .expect("sharded build");
    }

    // Quality: Mogul's top-10 against the iterative solver at a tight
    // tolerance.
    let exact = IterativeSolver::new(
        &graph,
        MrParams::default(),
        IterativeConfig {
            tolerance: 1e-10,
            max_iterations: 20_000,
        },
    )
    .expect("iterative solver");
    let mut precision = 0.0;
    for &q in in_db.iter().take(PRECISION_IDS) {
        let want = exact.top_k(q, K).expect("iterative top-k").nodes();
        let got = index.search(q, K).expect("Mogul top-k").nodes();
        precision += got.iter().filter(|n| want.contains(n)).count() as f64 / K as f64;
    }
    precision /= PRECISION_IDS as f64;

    let all = tracer.spans();
    let sweep_spans = &all[first_sweep_span..];
    let us = |name| median_ns(sweep_spans, name) / 1e3;
    let ms = |name| median_ns(sweep_spans, name) / 1e6;
    let queries = in_db.len() as f64;
    let prune_ratio = stats.clusters_pruned as f64 / stats.clusters_considered.max(1) as f64;
    vec![
        Metric::new("graph.knn_s", median_ns(&all, "graph.knn") / 1e9, "s"),
        Metric::new(
            "graph.clustering_ms",
            median_ns(sweep_spans, "graph.clustering") / 1e6,
            "ms",
        ),
        Metric::new(
            "graph.ordering_ms",
            median_ns(sweep_spans, "graph.ordering") / 1e6,
            "ms",
        ),
        Metric::new(
            "mogul.factor_bounds_ms",
            median_ns(sweep_spans, "mogul.factor_bounds") / 1e6,
            "ms",
        ),
        Metric::new("mogul.l_nnz", index.factor_l().nnz() as f64, "count"),
        Metric::new("mogul.search_us", us("mogul.search"), "us"),
        Metric::new("mogul.prune_ratio", prune_ratio, "ratio"),
        Metric::new(
            "mogul.nodes_scored",
            stats.nodes_scored as f64 / queries,
            "count",
        ),
        Metric::new(
            "mogul.bound_evals",
            stats.bound_evaluations as f64 / queries,
            "count",
        ),
        Metric::new("mogul.search_batch8_us", us("mogul.search_batch8"), "us"),
        Metric::new("mogul.precision_at_10", precision, "ratio"),
        Metric::new("oos.query_us", us("oos.query"), "us"),
        Metric::new("oos.nn_share", nn_secs / total_secs.max(1e-12), "ratio"),
        Metric::new("oos.query_batch8_us", us("oos.query_batch8"), "us"),
        Metric::new("sparse.lower_b8_us", us("sparse.lower_b8"), "us"),
        Metric::new("sparse.upper_b8_us", us("sparse.upper_b8"), "us"),
        Metric::new("serve.query_us", us("serve.query"), "us"),
        Metric::new("serve.batch64_ms", ms("serve.batch64"), "ms"),
        Metric::new("wire.encode_ns", encode_ns, "ns"),
        Metric::new("wire.decode_ns", decode_ns, "ns"),
        Metric::new("net.rtt_us", us("net.rtt"), "us"),
        Metric::new(
            "gen.late_p99_us",
            crate::stats::percentile(&burst.late_us, 0.99),
            "us",
        ),
        Metric::new("update.apply_ms", ms("update.apply"), "ms"),
        Metric::new("update.correction_rank", correction_rank as f64, "count"),
        Metric::new("update.rebuilds", rebuilds as f64, "count"),
        Metric::new("wal.append_us", us("wal.append"), "us"),
        Metric::new("wal.recover_ms", ms("wal.recover"), "ms"),
        Metric::new("persist.save_ms", ms("persist.save"), "ms"),
        Metric::new("persist.load_ms", ms("persist.load"), "ms"),
        Metric::new(
            "shard.build_s",
            median_ns(sweep_spans, "shard.build") / 1e9,
            "s",
        ),
    ]
}

/// Median nanoseconds per `encode_query_request` and per
/// `decode_query_response` call, timed in blocks of calls.
fn codec_ns(stream: &[QueryRequest], responses: &[mogul_serve::QueryResponse]) -> (f64, f64) {
    const BLOCKS: usize = 32;
    let mut buf = Vec::with_capacity(1 << 12);
    let mut encode = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let start = Instant::now();
        for request in stream.iter().take(CALLS) {
            buf.clear();
            encode_query_request(std::hint::black_box(request), &mut buf);
            std::hint::black_box(&buf);
        }
        encode.push(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    let payloads: Vec<Vec<u8>> = responses
        .iter()
        .map(|r| {
            let mut out = Vec::new();
            encode_query_response(r, &mut out);
            out
        })
        .collect();
    let mut decode = Vec::with_capacity(BLOCKS);
    for _ in 0..BLOCKS {
        let start = Instant::now();
        for payload in &payloads {
            std::hint::black_box(
                decode_query_response(std::hint::black_box(payload)).expect("decode a response"),
            );
        }
        decode.push(start.elapsed().as_nanos() as f64 / payloads.len() as f64);
    }
    (crate::stats::median(&encode), crate::stats::median(&decode))
}
