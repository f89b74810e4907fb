//! An independent scalar implementation of Algorithm 2 — the reference the
//! equivalence batteries compare the library's panel engine against.
//!
//! It answers one query at a time with plain `Vec<f64>` scratch, the way the
//! paper states the algorithm: restricted forward substitution over the
//! query clusters and the border (Lemma 4), border-first back substitution
//! (Lemma 5), and cluster pruning by the upper-bounding estimation
//! (Section 4.3). It is built only on public API — the factors `L` and `D`,
//! the node ordering, the ranking parameters and
//! [`ClusterBounds::precompute`] — so it shares no code with the engine
//! beyond the bounded top-k selector and the bound formula.

use std::cmp::Ordering;

use mogul_core::mogul::ClusterBounds;
use mogul_core::{BoundedTopK, MogulIndex, RankedNode, SearchMode, SearchStats, TopKResult};
use mogul_graph::ordering::ClusterRange;
use mogul_sparse::CsrMatrix;

/// A candidate of the answer set `K`: better means higher score, and among
/// equal scores the larger node id (the engine's collector order).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Candidate {
    score: f64,
    node: usize,
}

impl Eq for Candidate {}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then(other.node.cmp(&self.node))
    }
}

/// Algorithm 2's set `K`: `k` implicit dummies of score 0, so the threshold
/// `θ` starts at 0 and negative scores never enter.
struct AnswerSet {
    top: BoundedTopK<Candidate>,
    threshold: f64,
}

impl AnswerSet {
    fn new(k: usize) -> Self {
        AnswerSet {
            top: BoundedTopK::new(k),
            threshold: 0.0,
        }
    }

    fn offer(&mut self, node: usize, score: f64) {
        if !score.is_finite() || score < self.threshold {
            return;
        }
        if self.top.offer(Candidate { score, node }) && self.top.is_full() {
            self.threshold = self.top.worst().map_or(0.0, |c| c.score);
        }
    }

    fn finish(self) -> TopKResult {
        TopKResult::new(
            self.top
                .into_unsorted_vec()
                .into_iter()
                .map(|c| RankedNode {
                    node: c.node,
                    score: c.score,
                })
                .collect(),
        )
    }
}

/// The scalar reference over one index.
pub struct Reference<'a> {
    index: &'a MogulIndex,
    u: CsrMatrix,
    bounds: ClusterBounds,
}

impl<'a> Reference<'a> {
    pub fn new(index: &'a MogulIndex) -> Self {
        let u = index.factor_l().transpose();
        let bounds = ClusterBounds::precompute(&u, index.ordering());
        Reference { index, u, bounds }
    }

    /// `MogulIndex::search_with_stats` of an in-database node.
    pub fn search(&self, query: usize, k: usize, mode: SearchMode) -> (TopKResult, SearchStats) {
        let permuted = self.index.ordering().permutation.new_index(query);
        self.search_permuted(&[(permuted, 1.0)], k, mode, Some(permuted))
    }

    /// `MogulIndex::search_weighted` of a weighted query (original node ids).
    pub fn search_weighted(
        &self,
        weights: &[(usize, f64)],
        k: usize,
        mode: SearchMode,
    ) -> (TopKResult, SearchStats) {
        let permutation = &self.index.ordering().permutation;
        let permuted: Vec<(usize, f64)> = weights
            .iter()
            .map(|&(node, w)| (permutation.new_index(node), w))
            .collect();
        self.search_permuted(&permuted, k, mode, None)
    }

    /// `MogulIndex::all_scores`: restricted forward pass, then a backward
    /// pass over the border and every cluster (original node order).
    pub fn all_scores(&self, query: usize) -> Vec<f64> {
        let ordering = self.index.ordering();
        let permuted = ordering.permutation.new_index(query);
        let (q, clusters) = self.prepare(&[(permuted, 1.0)]);
        let border = ordering.border_cluster();
        let mut ranges: Vec<ClusterRange> =
            clusters.iter().map(|&c| ordering.clusters[c]).collect();
        ranges.push(ordering.clusters[border]);
        let y = self.forward(&q, &ranges);
        let mut x = vec![0.0; self.index.num_nodes()];
        self.back(ordering.clusters[border], &y, &mut x);
        for (c, &range) in ordering.clusters.iter().enumerate() {
            if c != border {
                self.back(range, &y, &mut x);
            }
        }
        (0..x.len())
            .map(|old| x[ordering.permutation.new_index(old)])
            .collect()
    }

    /// `MogulIndex::solve_ranking_system`: the full `L D Lᵀ` solve in
    /// permuted space, unpermuted (no `(1 − α)` scaling).
    pub fn solve(&self, rhs: &[f64]) -> Vec<f64> {
        let ordering = self.index.ordering();
        let n = rhs.len();
        let mut q = vec![0.0; n];
        for (old, &v) in rhs.iter().enumerate() {
            q[ordering.permutation.new_index(old)] = v;
        }
        let (l, d) = (self.index.factor_l(), self.index.factor_d());
        let mut y = vec![0.0; n];
        for i in 0..n {
            let (cols, vals) = l.row(i);
            let mut sum = q[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j < i {
                    sum -= v * y[j];
                }
            }
            y[i] = sum;
        }
        for (yi, di) in y.iter_mut().zip(d) {
            *yi /= di;
        }
        let mut x = vec![0.0; n];
        self.back(ClusterRange { start: 0, len: n }, &y, &mut x);
        (0..n)
            .map(|old| x[ordering.permutation.new_index(old)])
            .collect()
    }

    /// `(1 − α)`-scaled dense query vector and the sorted, deduplicated
    /// interior clusters it touches.
    fn prepare(&self, permuted: &[(usize, f64)]) -> (Vec<f64>, Vec<usize>) {
        let ordering = self.index.ordering();
        let scale = self.index.params().query_scale();
        let mut q = vec![0.0; self.index.num_nodes()];
        let mut clusters = Vec::new();
        for &(idx, w) in permuted {
            q[idx] += w * scale;
            let c = ordering.cluster_of_permuted(idx);
            if c != ordering.border_cluster() {
                clusters.push(c);
            }
        }
        clusters.sort_unstable();
        clusters.dedup();
        (q, clusters)
    }

    /// `L' y = q'` restricted to `ranges` (ascending); `y` is zero elsewhere.
    fn forward(&self, q: &[f64], ranges: &[ClusterRange]) -> Vec<f64> {
        let (l, d) = (self.index.factor_l(), self.index.factor_d());
        let mut y = vec![0.0; q.len()];
        for range in ranges {
            for i in range.indices() {
                let (cols, vals) = l.row(i);
                let mut sum = q[i];
                for (&j, &v) in cols.iter().zip(vals) {
                    if j < i {
                        sum -= v * d[j] * y[j];
                    }
                }
                y[i] = sum / d[i];
            }
        }
        y
    }

    /// `U x' = y` over one range, reading the already-scored later ranges.
    fn back(&self, range: ClusterRange, y: &[f64], x: &mut [f64]) {
        for i in range.indices().rev() {
            let (cols, vals) = self.u.row(i);
            let mut sum = y[i];
            for (&j, &v) in cols.iter().zip(vals) {
                if j > i {
                    sum -= v * x[j];
                }
            }
            x[i] = sum;
        }
    }

    fn search_permuted(
        &self,
        permuted: &[(usize, f64)],
        k: usize,
        mode: SearchMode,
        exclude: Option<usize>,
    ) -> (TopKResult, SearchStats) {
        let ordering = self.index.ordering();
        let n = self.index.num_nodes();
        let mut stats = SearchStats::default();
        let mut answers = AnswerSet::new(k);
        if n == 0 {
            return (answers.finish(), stats);
        }
        let (q, query_clusters) = self.prepare(permuted);
        let offer = |answers: &mut AnswerSet, range: ClusterRange, x: &[f64]| {
            for i in range.indices() {
                if Some(i) != exclude {
                    answers.offer(ordering.permutation.old_index(i), x[i]);
                }
            }
        };
        let mut x = vec![0.0; n];

        if mode == SearchMode::FullSubstitution {
            let all = ClusterRange { start: 0, len: n };
            let y = self.forward(&q, &[all]);
            self.back(all, &y, &mut x);
            stats.nodes_scored = n;
            offer(&mut answers, all, &x);
            return (answers.finish(), stats);
        }

        let border = ordering.border_cluster();
        let border_range = ordering.clusters[border];
        let mut ranges: Vec<ClusterRange> = query_clusters
            .iter()
            .map(|&c| ordering.clusters[c])
            .collect();
        ranges.push(border_range);
        let y = self.forward(&q, &ranges);

        self.back(border_range, &y, &mut x);
        stats.nodes_scored += border_range.len;
        for &c in &query_clusters {
            self.back(ordering.clusters[c], &y, &mut x);
            stats.nodes_scored += ordering.clusters[c].len;
        }
        offer(&mut answers, border_range, &x);
        for &c in &query_clusters {
            offer(&mut answers, ordering.clusters[c], &x);
        }

        for (c, &range) in ordering.clusters.iter().enumerate() {
            if c == border || query_clusters.contains(&c) || range.is_empty() {
                continue;
            }
            stats.clusters_considered += 1;
            if mode == SearchMode::Pruned {
                stats.bound_evaluations += 1;
                let estimate = self.bounds.cluster_estimate(c, range.len, |j| x[j]);
                if estimate < answers.threshold {
                    stats.clusters_pruned += 1;
                    continue;
                }
            }
            self.back(range, &y, &mut x);
            stats.nodes_scored += range.len;
            offer(&mut answers, range, &x);
        }
        (answers.finish(), stats)
    }
}
