//! Engine-vs-reference equivalence: the panel engine (the library's only
//! Algorithm-2 implementation) must reproduce an independent scalar
//! implementation of Algorithm 2 — `reference/mod.rs`, built on public API
//! only — per lane, at every batch size including 1 (the single-query entry
//! points).
//!
//! The comparison is **bit-identical** for both factorizations —
//! `TopKResult`s are compared with `==`, which compares `f64` scores
//! exactly — and the per-lane work counters (`SearchStats`, including
//! pruning decisions) must match too: each lane performs the reference's
//! floating-point operations in the reference's order, which is stricter
//! than the documented 1e-9 tolerance contract of `docs/PERFORMANCE.md`.

mod reference;

use mogul_core::{
    BatchWorkspace, MogulConfig, MogulIndex, OosWorkspace, OutOfSampleConfig, OutOfSampleIndex,
    SearchMode, SearchWorkspace, PANEL_WIDTH,
};
use mogul_data::coil::{coil_like, CoilLikeConfig};
use mogul_graph::knn::{knn_graph, KnnConfig};
use reference::Reference;

fn build_indices() -> (mogul_data::Dataset, MogulIndex, MogulIndex) {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 8,
        poses_per_object: 18,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let graph = knn_graph(data.features(), KnnConfig::with_k(5)).unwrap();
    let approx = MogulIndex::build(&graph, MogulConfig::default()).unwrap();
    let exact = MogulIndex::build(&graph, MogulConfig::exact()).unwrap();
    (data, approx, exact)
}

/// Batch sizes covering singletons, one full panel, ragged final panels and
/// several panels.
fn batch_sizes() -> Vec<usize> {
    vec![
        1,
        2,
        PANEL_WIDTH - 1,
        PANEL_WIDTH,
        PANEL_WIDTH + 3,
        3 * PANEL_WIDTH + 5,
    ]
}

const MODES: [SearchMode; 3] = [
    SearchMode::Pruned,
    SearchMode::NoPruning,
    SearchMode::FullSubstitution,
];

#[test]
fn in_database_batches_match_the_reference_bit_for_bit() {
    // Every lane is also answered alone through the single-query entry
    // point (a one-lane panel) on a separately reused workspace.
    let (_, approx, exact) = build_indices();
    let mut batch_ws = BatchWorkspace::new();
    let mut single_ws = SearchWorkspace::new();
    for (label, index) in [("incomplete", &approx), ("exact", &exact)] {
        let reference = Reference::new(index);
        let n = index.num_nodes();
        for size in batch_sizes() {
            // Deterministic spread of queries, including duplicates.
            let queries: Vec<usize> = (0..size).map(|i| (i * 37 + size) % n).collect();
            for mode in MODES {
                for k in [1usize, 5, 10] {
                    let batched = index
                        .search_batch_in(&mut batch_ws, &queries, k, mode)
                        .unwrap();
                    assert_eq!(batched.len(), queries.len());
                    for (lane, &query) in queries.iter().enumerate() {
                        let (want, want_stats) = reference.search(query, k, mode);
                        assert_eq!(
                            batched[lane].0, want,
                            "{label}: size {size} lane {lane} query {query} k {k} mode {mode:?}"
                        );
                        assert_eq!(
                            batched[lane].1, want_stats,
                            "{label}: stats diverge for size {size} lane {lane} mode {mode:?}"
                        );
                        let single = index
                            .search_with_stats_in(&mut single_ws, query, k, mode)
                            .unwrap();
                        assert_eq!(single, batched[lane], "{label}: single query {query}");
                    }
                }
            }
        }
    }
}

#[test]
fn panels_with_pruned_out_columns_are_exercised_and_match() {
    // On a clustered dataset the pruned mode must actually prune for some
    // lanes (otherwise the masked shrinking-width path is never covered),
    // and the pruning decisions must match the reference per lane.
    let (_, approx, _) = build_indices();
    let reference = Reference::new(&approx);
    let n = approx.num_nodes();
    let queries: Vec<usize> = (0..PANEL_WIDTH).map(|i| (i * 19) % n).collect();
    let batched = approx
        .search_batch(&queries, 3, SearchMode::Pruned)
        .unwrap();
    let pruned_lanes = batched
        .iter()
        .filter(|(_, stats)| stats.clusters_pruned > 0)
        .count();
    assert!(
        pruned_lanes > 0,
        "expected at least one lane to prune clusters: {:?}",
        batched
            .iter()
            .map(|(_, s)| s.clusters_pruned)
            .collect::<Vec<_>>()
    );
    // Heterogeneous pruning across lanes (not all-or-nothing) is the
    // interesting masked case; assert per-lane agreement either way.
    for (lane, &query) in queries.iter().enumerate() {
        assert_eq!(
            batched[lane],
            reference.search(query, 3, SearchMode::Pruned)
        );
    }
}

#[test]
fn all_scores_match_the_reference_bit_for_bit() {
    let (_, approx, exact) = build_indices();
    let mut batch_ws = BatchWorkspace::new();
    for index in [&approx, &exact] {
        let reference = Reference::new(index);
        let n = index.num_nodes();
        for size in [1, PANEL_WIDTH + 3] {
            let queries: Vec<usize> = (0..size).map(|i| (i * 29 + 1) % n).collect();
            let batched = index.all_scores_batch_in(&mut batch_ws, &queries).unwrap();
            for (lane, &query) in queries.iter().enumerate() {
                let want = reference.all_scores(query);
                assert_eq!(batched[lane], want, "size {size} lane {lane} query {query}");
                assert_eq!(index.all_scores_in(&mut batch_ws, query).unwrap(), want);
            }
        }
    }
}

#[test]
fn weighted_batches_match_the_reference_bit_for_bit() {
    let (_, approx, exact) = build_indices();
    let mut batch_ws = BatchWorkspace::new();
    for index in [&approx, &exact] {
        let reference = Reference::new(index);
        let n = index.num_nodes();
        // Multi-node weighted lanes touching one or several clusters.
        let lanes: Vec<Vec<(usize, f64)>> = (0..(PANEL_WIDTH + 2))
            .map(|i| {
                vec![
                    ((i * 13) % n, 0.6),
                    ((i * 31 + 7) % n, 0.3),
                    ((i * 53 + 11) % n, 0.1),
                ]
            })
            .collect();
        let lane_refs: Vec<&[(usize, f64)]> = lanes.iter().map(|l| l.as_slice()).collect();
        for mode in MODES {
            let batched = index
                .search_weighted_batch_in(&mut batch_ws, &lane_refs, 6, mode)
                .unwrap();
            for (lane, weights) in lanes.iter().enumerate() {
                let want = reference.search_weighted(weights, 6, mode);
                assert_eq!(batched[lane], want, "lane {lane} mode {mode:?}");
                let single = index
                    .search_weighted_in(&mut batch_ws, weights, 6, mode)
                    .unwrap();
                assert_eq!(single, want, "single lane {lane} mode {mode:?}");
            }
        }
    }
}

#[test]
fn ranking_system_solves_match_the_reference_bit_for_bit() {
    let (_, approx, exact) = build_indices();
    let mut ws = BatchWorkspace::new();
    for index in [&approx, &exact] {
        let reference = Reference::new(index);
        let n = index.num_nodes();
        let width = 3usize;
        let rhs: Vec<f64> = (0..n * width)
            .map(|i| {
                if i % 7 == 0 {
                    0.5 + (i % 5) as f64
                } else {
                    0.0
                }
            })
            .collect();
        let mut panel = Vec::new();
        index
            .solve_ranking_system_batch_in(&mut ws, &rhs, width, &mut panel)
            .unwrap();
        let mut single = Vec::new();
        for lane in 0..width {
            let column: Vec<f64> = (0..n).map(|i| rhs[i * width + lane]).collect();
            let want = reference.solve(&column);
            index
                .solve_ranking_system_in(&mut ws, &column, &mut single)
                .unwrap();
            assert_eq!(single, want, "lane {lane}");
            let got: Vec<f64> = (0..n).map(|i| panel[i * width + lane]).collect();
            assert_eq!(got, want, "panel lane {lane}");
        }
    }
}

#[test]
fn out_of_sample_batches_match_single_queries() {
    let data = coil_like(&CoilLikeConfig {
        num_objects: 7,
        poses_per_object: 16,
        dim: 12,
        noise: 0.02,
        ..Default::default()
    })
    .unwrap();
    let (db, held_out) = data.split_out_queries(7, 11).unwrap();
    let graph = knn_graph(db.features(), KnnConfig::with_k(5)).unwrap();
    for config in [MogulConfig::default(), MogulConfig::exact()] {
        let index = MogulIndex::build(&graph, config).unwrap();
        let oos =
            OutOfSampleIndex::new(index, db.features().to_vec(), OutOfSampleConfig::default())
                .unwrap();
        let features: Vec<&[f64]> = held_out.iter().map(|(f, _)| f.as_slice()).collect();
        let mut batch_ws = BatchWorkspace::new();
        let mut scalar_ws = OosWorkspace::new();
        // Ragged sub-batches too.
        for size in [1usize, PANEL_WIDTH, features.len()] {
            let slice = &features[..size.min(features.len())];
            let batched = oos.query_batch_in(&mut batch_ws, slice, 5).unwrap();
            assert_eq!(batched.len(), slice.len());
            for (lane, &feature) in slice.iter().enumerate() {
                let scalar = oos.query_in(&mut scalar_ws, feature, 5).unwrap();
                assert_eq!(batched[lane].top_k, scalar.top_k, "lane {lane}");
                assert_eq!(batched[lane].neighbors, scalar.neighbors, "lane {lane}");
                assert_eq!(batched[lane].stats, scalar.stats, "lane {lane}");
            }
        }
    }
}

#[test]
fn snapshot_batches_match_single_queries_on_clean_and_corrected_epochs() {
    use mogul_core::update::{IndexBuilder, IndexDelta, RebuildPolicy, SnapshotWorkspace};

    // Two well-separated clusters, exact (MogulE) ranking so corrected
    // answers are exact too.
    let mut features: Vec<Vec<f64>> = Vec::new();
    for i in 0..14 {
        features.push(vec![0.15 * i as f64, 0.07 * (i % 4) as f64]);
    }
    for i in 0..14 {
        features.push(vec![9.0 + 0.15 * i as f64, 5.0 + 0.07 * (i % 4) as f64]);
    }
    let dim = 2usize;
    let mut index = IndexBuilder::new()
        .knn_k(3)
        .exact_ranking()
        .rebuild_policy(RebuildPolicy::never())
        .build(features)
        .unwrap();

    let mut ws = SnapshotWorkspace::new();
    let mut scalar_ws = SnapshotWorkspace::new();
    for corrected in [false, true] {
        if corrected {
            let mut delta = IndexDelta::new();
            delta
                .insert(vec![0.5, 0.1])
                .insert(vec![9.4, 5.2])
                .remove(3);
            index.apply(&delta).unwrap();
        }
        let snapshot = index.snapshot();
        assert_eq!(snapshot.is_clean(), !corrected);

        // In-database batches by stable id (spanning several panels).
        let ids: Vec<usize> = snapshot.item_ids();
        let batched = snapshot.query_batch_by_id_in(&mut ws, &ids, 4).unwrap();
        for (lane, &id) in ids.iter().enumerate() {
            let scalar = snapshot.query_by_id_in(&mut scalar_ws, id, 4).unwrap();
            assert_eq!(batched[lane], scalar, "corrected={corrected} id {id}");
        }

        // Out-of-sample feature batches.
        let probes: Vec<Vec<f64>> = (0..(PANEL_WIDTH + 2))
            .map(|i| vec![0.1 * i as f64 + 0.03, 0.05])
            .collect();
        let probe_refs: Vec<&[f64]> = probes.iter().map(|f| f.as_slice()).collect();
        let batched = snapshot
            .query_batch_by_feature_in(&mut ws, &probe_refs, 3)
            .unwrap();
        for (lane, &feature) in probe_refs.iter().enumerate() {
            let scalar = snapshot
                .query_by_feature_in(&mut scalar_ws, feature, 3)
                .unwrap();
            assert_eq!(batched[lane].top_k, scalar.top_k, "corrected={corrected}");
            assert_eq!(batched[lane].neighbors, scalar.neighbors);
        }

        // Unknown ids and bad features fail the whole batch.
        assert!(snapshot
            .query_batch_by_id_in(&mut ws, &[0, 10_000], 3)
            .is_err());
        let bad = vec![f64::NAN; dim];
        let bad_refs: Vec<&[f64]> = vec![&bad];
        assert!(snapshot
            .query_batch_by_feature_in(&mut ws, &bad_refs, 3)
            .is_err());
    }
}

#[test]
fn batch_validation_and_edge_cases() {
    let (_, approx, _) = build_indices();
    let n = approx.num_nodes();
    // Invalid query id / k = 0 / non-finite weight are rejected.
    assert!(approx.search_batch(&[0, n], 3, SearchMode::Pruned).is_err());
    assert!(approx.search_batch(&[0, 1], 0, SearchMode::Pruned).is_err());
    let bad: Vec<&[(usize, f64)]> = vec![&[(0, f64::NAN)]];
    assert!(approx
        .search_weighted_batch_in(&mut BatchWorkspace::new(), &bad, 3, SearchMode::Pruned)
        .is_err());
    // Empty batches succeed and return nothing.
    assert!(approx
        .search_batch(&[], 3, SearchMode::Pruned)
        .unwrap()
        .is_empty());
    assert!(approx.all_scores_batch(&[]).unwrap().is_empty());
    // A warm workspace from a previous (larger) batch gives identical
    // results on a fresh small batch.
    let mut ws = BatchWorkspace::with_capacity(10_000);
    let big: Vec<usize> = (0..3 * PANEL_WIDTH).map(|i| i % n).collect();
    approx
        .search_batch_in(&mut ws, &big, 4, SearchMode::Pruned)
        .unwrap();
    let warm = approx
        .search_batch_in(&mut ws, &[5, 9], 4, SearchMode::Pruned)
        .unwrap();
    let fresh = approx.search_batch(&[5, 9], 4, SearchMode::Pruned).unwrap();
    assert_eq!(warm, fresh);
}
