//! The Algorithm-2 engine: multi-RHS (panel) execution of the search.
//!
//! This is the only implementation of Algorithm 2. It packs up to
//! [`PANEL_WIDTH`] query vectors into an `n × B` panel stored with the `B`
//! lane values of each node adjacent (`panel[node * width + lane]`), so one
//! traversal of the CSR structure applies every nonzero to all lanes through
//! a short, contiguous, auto-vectorizable inner loop — the same blocking the
//! `mogul-sparse` `*_multi_into` kernels use for unrestricted solves. A
//! single query ([`MogulIndex::search`] and friends) is a one-lane panel;
//! at width 1 the sweeps run the plain scalar recurrence
//! (`forward_lane` / `back_lane`), because one lane has nothing to
//! vectorize.
//!
//! Algorithm 2's semantics are preserved **per column**:
//!
//! * the restricted forward substitution covers the union of the lanes'
//!   query clusters plus the border: clusters shared by many lanes (and the
//!   border, which every lane shares) are swept once at full width, while
//!   clusters owned by one or two lanes run as tight per-lane recurrences —
//!   either way each lane performs exactly the arithmetic of a one-lane
//!   panel;
//! * every lane keeps its own top-k collector and threshold `θ`, and the
//!   upper-bounding estimation is evaluated per lane
//!   ([`ClusterBounds::cluster_estimates_panel`](crate::mogul::ClusterBounds::cluster_estimates_panel));
//! * a column whose bound falls below its own threshold **prunes out** of
//!   the panel for that cluster: the back substitution runs over the masked
//!   set of still-active lanes, shrinking the effective width as the search
//!   proceeds. A fully pruned cluster is skipped outright.
//!
//! Because every lane performs the same floating-point operations in the
//! same order whatever the panel width, results (scores, ranking, pruning
//! decisions and work counters) do not depend on how queries are batched.
//! `crates/core/tests/batch_equivalence.rs` pins this with exact `==`
//! comparisons of every batch size, 1 included, against an independent
//! scalar reference implementation of Algorithm 2 kept in the test code.
//! See `docs/PERFORMANCE.md` for the layout diagram and tuning notes.

use crate::mogul::index::MogulIndex;
use crate::mogul::search::{HeapEntry, SearchMode, SearchStats, TopKCollector};
use crate::ranking::{check_k, check_query, TopKResult};
use crate::Result;
use mogul_graph::ordering::ClusterRange;
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use mogul_sparse::kernel::Avx2Kernel;
use mogul_sparse::kernel::{LaneKernel, ScalarKernel};
use mogul_sparse::{CsrMatrix, MultiSolveWorkspace};

/// Panel width the batched engine blocks queries into.
///
/// Eight lanes make a panel row exactly one cache line (8 × 8 bytes), so a
/// row stays resident while the factor structure streams past and the lane
/// loop vectorizes to one or two AVX/NEON operations. Width 16 was measured
/// on the serving scenarios and lost (more over-compute on masked sweeps,
/// two lines per row, no extra vector throughput) — see
/// `docs/PERFORMANCE.md` for the numbers. Batches larger than this are
/// processed as consecutive panels; a final ragged panel uses whatever
/// width remains.
pub const PANEL_WIDTH: usize = 8;

/// Above this many active lanes a masked substitution runs the full-width
/// vectorized kernel (over-computing the inactive lanes, which is provably
/// harmless — see the masked kernels); at or below it, per-lane strided
/// scalar recurrences win.
const MASKED_LANE_CUTOFF: usize = 2;

/// Reusable scratch of the Algorithm-2 engine: the one workspace behind
/// single queries ([`SearchWorkspace`](crate::SearchWorkspace)), panels,
/// out-of-sample queries ([`OosWorkspace`](crate::OosWorkspace)) and the
/// unrestricted multi-RHS solves.
///
/// It holds three `n × B` panels (query, forward result, scores), the staged
/// lane descriptors, one top-k collector buffer per lane, the phase-1 scratch
/// of out-of-sample queries and the full-solve scratch. Like every workspace
/// in this crate it is an inert buffer bag — it carries no index state, any
/// workspace works with any index, and results are bit-identical to fresh
/// allocation.
///
/// # Panel zeroing invariant
///
/// The three panels are kept **all-zero between searches**: a panel search
/// re-zeroes exactly the rows it visited (the query scatter, the forwarded
/// cluster ranges and the scored cluster ranges) instead of clearing the
/// whole `n × B` buffers up front. On heavily pruned workloads a query
/// touches a few dozen rows of a many-thousand-row index, so this turns the
/// dominant per-panel cost — three `O(n · B)` memsets — into `O(visited)`.
#[derive(Debug, Clone, Default)]
pub struct BatchWorkspace {
    /// Densified query panel `Q'` (node-major, stride = staged width).
    pub(crate) q_panel: Vec<f64>,
    /// Forward-substitution panel `Y` of `L' Y = Q'`.
    pub(crate) y_panel: Vec<f64>,
    /// Score panel `X'` of `U X' = Y`.
    pub(crate) x_panel: Vec<f64>,
    /// Cluster ranges whose panel rows were written by the current search
    /// (re-zeroed afterwards to restore the all-zero invariant).
    pub(crate) dirty_ranges: Vec<ClusterRange>,
    /// Flattened per-lane scaled, permuted query entries.
    pub(crate) lane_entries: Vec<(usize, f64)>,
    /// Lane boundaries in `lane_entries` (`lanes + 1` offsets).
    pub(crate) lane_offsets: Vec<usize>,
    /// Flattened per-lane interior query clusters (sorted, deduplicated).
    pub(crate) lane_clusters: Vec<usize>,
    /// Lane boundaries in `lane_clusters`.
    pub(crate) lane_cluster_offsets: Vec<usize>,
    /// Per-lane excluded permuted node (the in-database query itself).
    pub(crate) excludes: Vec<Option<usize>>,
    /// Union of the staged lanes' query clusters (sorted, deduplicated).
    pub(crate) union_clusters: Vec<usize>,
    /// Recycled per-lane top-k heap buffers.
    pub(crate) heap_bufs: Vec<Vec<HeapEntry>>,
    /// Active-lane mask of the cluster currently being scored.
    pub(crate) active: Vec<usize>,
    /// Phase-1 scratch of out-of-sample queries.
    pub(crate) neighbors: crate::out_of_sample::NeighborScratch,
    /// Panel scratch of the unrestricted multi-RHS `L D Lᵀ` solve
    /// ([`MogulIndex::solve_ranking_system_batch_in`]).
    pub(crate) multi: MultiSolveWorkspace,
}

impl BatchWorkspace {
    /// An empty workspace; buffers grow to the index size on first use.
    pub fn new() -> Self {
        BatchWorkspace::default()
    }

    /// A workspace whose panels are pre-sized for an index over `n` nodes at
    /// the tuned [`PANEL_WIDTH`].
    pub fn with_capacity(n: usize) -> Self {
        BatchWorkspace {
            q_panel: Vec::with_capacity(n * PANEL_WIDTH),
            y_panel: Vec::with_capacity(n * PANEL_WIDTH),
            x_panel: Vec::with_capacity(n * PANEL_WIDTH),
            multi: MultiSolveWorkspace::with_capacity(n, PANEL_WIDTH),
            ..BatchWorkspace::default()
        }
    }

    /// Number of currently staged lanes.
    fn staged(&self) -> usize {
        self.lane_offsets.len().saturating_sub(1)
    }

    /// Grow a panel to at least `len` entries (new entries zero; existing
    /// entries are zero by the workspace invariant).
    fn ensure_panel(panel: &mut Vec<f64>, len: usize) {
        if panel.len() < len {
            panel.resize(len, 0.0);
        }
    }

    /// Re-zero everything the current panel search wrote (the staged query
    /// scatter plus the dirty cluster ranges), restoring the all-zero
    /// invariant in `O(visited)` instead of `O(n · B)`.
    fn cleanup_panels(&mut self, width: usize) {
        for lane in 0..width {
            for idx in self.lane_offsets[lane]..self.lane_offsets[lane + 1] {
                let (node, _) = self.lane_entries[idx];
                self.q_panel[node * width + lane] = 0.0;
            }
        }
        for range in &self.dirty_ranges {
            let rows = range.start * width..(range.start + range.len) * width;
            self.y_panel[rows.clone()].fill(0.0);
            self.x_panel[rows].fill(0.0);
        }
        self.dirty_ranges.clear();
    }

    /// Sorted interior query clusters of one staged lane.
    fn lane_clusters(&self, lane: usize) -> &[usize] {
        &self.lane_clusters[self.lane_cluster_offsets[lane]..self.lane_cluster_offsets[lane + 1]]
    }
}

impl MogulIndex {
    /// Batched [`MogulIndex::search_with_stats`] over many in-database query
    /// nodes: results (including work counters) are bit-identical to
    /// answering each query alone, but the factor structure is traversed
    /// once per [`PANEL_WIDTH`]-wide panel instead of once per query.
    ///
    /// Allocates fresh scratch per call; serving loops should reuse a
    /// [`BatchWorkspace`] via [`MogulIndex::search_batch_in`].
    pub fn search_batch(
        &self,
        queries: &[usize],
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<(TopKResult, SearchStats)>> {
        self.search_batch_in(&mut BatchWorkspace::new(), queries, k, mode)
    }

    /// [`MogulIndex::search_batch`] with caller-owned scratch: zero heap
    /// allocation on the substitution/pruning path once the workspace is
    /// warm.
    pub fn search_batch_in(
        &self,
        ws: &mut BatchWorkspace,
        queries: &[usize],
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<(TopKResult, SearchStats)>> {
        check_k(k)?;
        for &query in queries {
            check_query(query, self.num_nodes())?;
        }
        let mut out = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(PANEL_WIDTH) {
            self.batch_begin(ws);
            for &query in chunk {
                let permuted = self.ordering.permutation.new_index(query);
                self.batch_push_lane(ws, &[(query, 1.0)], Some(permuted))?;
            }
            self.search_panel_staged(ws, k, mode, &mut out)?;
        }
        Ok(out)
    }

    /// Batched [`MogulIndex::search_weighted`] over many weighted query
    /// vectors (original node ids) — the panel entry point of batched
    /// out-of-sample queries.
    pub fn search_weighted_batch_in(
        &self,
        ws: &mut BatchWorkspace,
        lanes: &[&[(usize, f64)]],
        k: usize,
        mode: SearchMode,
    ) -> Result<Vec<(TopKResult, SearchStats)>> {
        check_k(k)?;
        let mut out = Vec::with_capacity(lanes.len());
        for chunk in lanes.chunks(PANEL_WIDTH) {
            self.batch_begin(ws);
            for &weights in chunk {
                self.batch_push_lane(ws, weights, None)?;
            }
            self.search_panel_staged(ws, k, mode, &mut out)?;
        }
        Ok(out)
    }

    /// Batched [`MogulIndex::all_scores`]: the full approximate score vector
    /// of every query (original node order), computed panel-wise without
    /// pruning. Each returned vector is bit-identical to
    /// [`MogulIndex::all_scores_in`] of the same query.
    pub fn all_scores_batch(&self, queries: &[usize]) -> Result<Vec<Vec<f64>>> {
        self.all_scores_batch_in(&mut BatchWorkspace::new(), queries)
    }

    /// [`MogulIndex::all_scores_batch`] with caller-owned scratch.
    pub fn all_scores_batch_in(
        &self,
        ws: &mut BatchWorkspace,
        queries: &[usize],
    ) -> Result<Vec<Vec<f64>>> {
        for &query in queries {
            check_query(query, self.num_nodes())?;
        }
        let n = self.num_nodes();
        let mut out = Vec::with_capacity(queries.len());
        for chunk in queries.chunks(PANEL_WIDTH) {
            self.batch_begin(ws);
            for &query in chunk {
                self.batch_push_lane(ws, &[(query, 1.0)], None)?;
            }
            let width = ws.staged();
            if n == 0 {
                out.extend((0..width).map(|_| Vec::new()));
                continue;
            }
            self.forward_staged(ws, width, false);
            // Unrestricted backward pass: border first, then every cluster
            // (the whole panel becomes dirty).
            ws.dirty_ranges.push(ClusterRange { start: 0, len: n });
            let border_idx = self.ordering.border_cluster();
            self.back_panel_full(self.ordering.clusters[border_idx], ws, width);
            for (ci, &range) in self.ordering.clusters.iter().enumerate() {
                if ci == border_idx {
                    continue;
                }
                self.back_panel_full(range, ws, width);
            }
            for lane in 0..width {
                let mut scores = vec![0.0; n];
                for new in 0..n {
                    scores[self.ordering.permutation.old_index(new)] =
                        ws.x_panel[new * width + lane];
                }
                out.push(scores);
            }
            ws.cleanup_panels(width);
        }
        Ok(out)
    }

    /// Multi-RHS [`MogulIndex::solve_ranking_system_in`]: solve the
    /// factorized ranking system for a panel of dense right-hand sides
    /// (`rhs[i * width + lane]`, original node order) through the blocked
    /// `mogul-sparse` kernels. Lane `l` of the output panel is bit-identical
    /// to the one-lane solve of lane `l`'s right-hand side.
    pub fn solve_ranking_system_batch_in(
        &self,
        ws: &mut BatchWorkspace,
        rhs: &[f64],
        width: usize,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        let n = self.num_nodes();
        if width == 0 || rhs.len() != n * width {
            // The payload carries the *requested* shape: `width` verbatim
            // (even when 0) on the left, and the supplied panel re-expressed
            // against that width on the right — as a raw single column when
            // the length does not divide evenly, never rounded.
            let right = if width > 0 && rhs.len().is_multiple_of(width) {
                (rhs.len() / width, width)
            } else {
                (rhs.len(), 1)
            };
            return Err(crate::CoreError::DimensionMismatch {
                op: "ranking system batch solve",
                left: (n, width),
                right,
            });
        }
        // Permute the right-hand sides: Q'[P(i)] = rhs[i], lane-wise.
        ws.q_panel.clear();
        ws.q_panel.resize(n * width, 0.0);
        for old in 0..n {
            let new = self.ordering.permutation.new_index(old);
            ws.q_panel[new * width..(new + 1) * width]
                .copy_from_slice(&rhs[old * width..(old + 1) * width]);
        }
        let solved = mogul_sparse::triangular::ldl_solve_multi_into(
            &self.factors.l,
            &self.factors.u,
            &self.factors.d,
            &ws.q_panel,
            width,
            &mut ws.multi,
            &mut ws.x_panel,
        );
        if let Err(err) = solved {
            // Restore the all-zero invariant before surfacing the error —
            // the workspace may be recycled into a panel search, which
            // relies on it.
            ws.q_panel.fill(0.0);
            ws.x_panel.fill(0.0);
            return Err(err);
        }
        // Unpermute: out[i] = X'[P(i)], lane-wise.
        out.clear();
        out.resize(n * width, 0.0);
        for new in 0..n {
            let old = self.ordering.permutation.old_index(new);
            out[old * width..(old + 1) * width]
                .copy_from_slice(&ws.x_panel[new * width..(new + 1) * width]);
        }
        // This path writes the panels densely; restore the all-zero
        // invariant the restricted searches rely on.
        ws.q_panel.fill(0.0);
        ws.x_panel.fill(0.0);
        Ok(())
    }

    // ----------------------------------------------------------------------
    // Panel internals
    // ----------------------------------------------------------------------

    /// Reset the staged-lane state for a fresh panel.
    pub(crate) fn batch_begin(&self, ws: &mut BatchWorkspace) {
        ws.lane_entries.clear();
        ws.lane_offsets.clear();
        ws.lane_offsets.push(0);
        ws.lane_clusters.clear();
        ws.lane_cluster_offsets.clear();
        ws.lane_cluster_offsets.push(0);
        ws.excludes.clear();
    }

    /// Stage one lane: validate, `(1 − α)`-scale and permute its weighted
    /// query vector (original node ids) and record its interior query
    /// clusters. `exclude` is the permuted node to drop from the lane's
    /// result (the in-database query itself).
    pub(crate) fn batch_push_lane(
        &self,
        ws: &mut BatchWorkspace,
        weights: &[(usize, f64)],
        exclude: Option<usize>,
    ) -> Result<()> {
        debug_assert!(ws.staged() < PANEL_WIDTH, "panel overflow");
        for &(node, weight) in weights {
            check_query(node, self.num_nodes())?;
            if !weight.is_finite() {
                return Err(crate::CoreError::InvalidInput(format!(
                    "query weight for node {node} is not finite"
                )));
            }
        }
        let scale = self.params.query_scale();
        let entry_start = ws.lane_entries.len();
        for &(node, weight) in weights {
            ws.lane_entries
                .push((self.ordering.permutation.new_index(node), weight * scale));
        }
        // Interior clusters touched by this lane (sorted, deduplicated),
        // excluding the border.
        let border_idx = self.ordering.border_cluster();
        let cluster_start = ws.lane_clusters.len();
        for idx in entry_start..ws.lane_entries.len() {
            let cluster = self.ordering.cluster_of_permuted(ws.lane_entries[idx].0);
            if cluster != border_idx {
                ws.lane_clusters.push(cluster);
            }
        }
        ws.lane_clusters[cluster_start..].sort_unstable();
        ws.lane_clusters.dedup_in_suffix(cluster_start);
        ws.excludes.push(exclude);
        ws.lane_offsets.push(ws.lane_entries.len());
        ws.lane_cluster_offsets.push(ws.lane_clusters.len());
        Ok(())
    }

    /// Restricted forward substitution `L' Y = Q'` over the staged panel.
    ///
    /// Interior query clusters are swept at **masked width** — only the
    /// lanes whose query actually touches a cluster pay for its rows, so a
    /// panel performs exactly the per-lane work of one-lane panels — and
    /// the border cluster (the work every lane shares) is swept once at full
    /// width, which is where the batching wins: one structure traversal, one
    /// `B`-wide independent-accumulator inner loop instead of `B` serial
    /// dependency chains. With `full` set the whole index is swept at full
    /// width instead (the `FullSubstitution` mode).
    fn forward_staged(&self, ws: &mut BatchWorkspace, width: usize, full: bool) {
        let n = self.num_nodes();
        ws.union_clusters.clear();
        if !full {
            for lane in 0..width {
                let start = ws.lane_cluster_offsets[lane];
                let end = ws.lane_cluster_offsets[lane + 1];
                for idx in start..end {
                    ws.union_clusters.push(ws.lane_clusters[idx]);
                }
            }
            ws.union_clusters.sort_unstable();
            ws.union_clusters.dedup();
        }

        BatchWorkspace::ensure_panel(&mut ws.q_panel, n * width);
        BatchWorkspace::ensure_panel(&mut ws.y_panel, n * width);
        BatchWorkspace::ensure_panel(&mut ws.x_panel, n * width);
        for lane in 0..width {
            let start = ws.lane_offsets[lane];
            let end = ws.lane_offsets[lane + 1];
            for idx in start..end {
                let (node, value) = ws.lane_entries[idx];
                ws.q_panel[node * width + lane] += value;
            }
        }

        if full {
            let all = ClusterRange { start: 0, len: n };
            ws.dirty_ranges.push(all);
            self.forward_rows_full(all, ws, width);
            return;
        }
        let union = std::mem::take(&mut ws.union_clusters);
        for &c in &union {
            let range = self.ordering.clusters[c];
            ws.dirty_ranges.push(range);
            mask_lanes_with_cluster(ws, width, c, true);
            let active = std::mem::take(&mut ws.active);
            if active.len() == width {
                self.forward_rows_full(range, ws, width);
            } else {
                self.forward_rows_masked(range, ws, width, &active);
            }
            ws.active = active;
        }
        ws.union_clusters = union;
        let border = self.ordering.clusters[self.ordering.border_cluster()];
        ws.dirty_ranges.push(border);
        self.forward_rows_full(border, ws, width);
    }

    /// One cluster range of the forward recurrence at full panel width,
    /// dispatched to the active lane kernel (scalar, or AVX2 under the
    /// `simd` feature when the CPU supports it — bit-identical either way,
    /// see `mogul_sparse::kernel`).
    ///
    /// A one-lane panel (every single query) runs the plain scalar
    /// recurrence instead: at width 1 there is nothing to vectorize, and the
    /// lane-kernel accumulator copy only costs time.
    fn forward_rows_full(&self, range: ClusterRange, ws: &mut BatchWorkspace, width: usize) {
        if width == 1 {
            forward_lane(&self.factors.l, &self.factors.d, range, ws, 1, 0);
            return;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(kernel) = avx2_if_active() {
            // SAFETY: `try_new` inside `avx2_if_active` proved AVX2 is
            // available on this CPU.
            unsafe {
                avx2_shells::forward(
                    kernel,
                    &self.factors.l,
                    &self.factors.d,
                    range,
                    &ws.q_panel,
                    &mut ws.y_panel,
                    width,
                )
            };
            return;
        }
        forward_range_sweep(
            ScalarKernel,
            &self.factors.l,
            &self.factors.d,
            range,
            &ws.q_panel,
            &mut ws.y_panel,
            width,
        );
    }

    /// One cluster range of the forward recurrence for a masked subset of
    /// lanes; the other lanes' entries stay zero, exactly as in a one-lane
    /// restricted substitution.
    ///
    /// When most lanes are active this simply runs the full-width vectorized
    /// sweep: an inactive lane's query panel is zero on the cluster, so the
    /// recurrence computes exact zeros for it — the same zeros a one-lane
    /// restricted substitution leaves untouched — and the shared structure
    /// traversal beats per-lane passes. With only a few active lanes the
    /// over-compute stops paying, and each active lane gets one tight
    /// strided scalar recurrence instead.
    fn forward_rows_masked(
        &self,
        range: ClusterRange,
        ws: &mut BatchWorkspace,
        width: usize,
        active: &[usize],
    ) {
        if width == 1 || active.len() > MASKED_LANE_CUTOFF {
            self.forward_rows_full(range, ws, width);
            return;
        }
        for &b in active {
            forward_lane(&self.factors.l, &self.factors.d, range, ws, width, b);
        }
    }

    /// Back substitution `U X' = Y` restricted to one cluster range, for
    /// every lane of the panel, dispatched to the active lane kernel (a
    /// one-lane panel runs the scalar recurrence, as in the forward sweep).
    fn back_panel_full(&self, range: ClusterRange, ws: &mut BatchWorkspace, width: usize) {
        if width == 1 {
            back_lane(&self.factors.u, range, ws, 1, 0);
            return;
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(kernel) = avx2_if_active() {
            // SAFETY: `try_new` inside `avx2_if_active` proved AVX2 is
            // available on this CPU.
            unsafe {
                avx2_shells::back(
                    kernel,
                    &self.factors.u,
                    range,
                    &ws.y_panel,
                    &mut ws.x_panel,
                    width,
                )
            };
            return;
        }
        back_range_sweep(
            ScalarKernel,
            &self.factors.u,
            range,
            &ws.y_panel,
            &mut ws.x_panel,
            width,
        );
    }

    /// Back substitution restricted to one cluster range for a masked subset
    /// of lanes — the shrinking-width path taken once columns prune out.
    ///
    /// Like the forward sweep, a mostly-active panel runs the full-width
    /// vectorized kernel: recomputing an already-scored lane reproduces the
    /// identical values (the recurrence is deterministic over unchanged
    /// inputs), and a pruned-out lane's rows are never read and are
    /// re-zeroed by the cleanup pass — so over-compute is harmless and the
    /// offers stay masked. Sparse masks run one tight strided scalar
    /// recurrence per active lane instead.
    fn back_panel_masked(
        &self,
        range: ClusterRange,
        ws: &mut BatchWorkspace,
        width: usize,
        active: &[usize],
    ) {
        if width == 1 || active.len() > MASKED_LANE_CUTOFF {
            self.back_panel_full(range, ws, width);
            return;
        }
        for &b in active {
            back_lane(&self.factors.u, range, ws, width, b);
        }
    }

    /// Run Algorithm 2 over the staged panel, appending one
    /// `(result, stats)` pair per lane to `out`. Per-lane semantics
    /// (thresholds, pruning decisions, tie-breaks, work counters) do not
    /// depend on the panel width.
    pub(crate) fn search_panel_staged(
        &self,
        ws: &mut BatchWorkspace,
        k: usize,
        mode: SearchMode,
        out: &mut Vec<(TopKResult, SearchStats)>,
    ) -> Result<()> {
        let width = ws.staged();
        if width == 0 {
            return Ok(());
        }
        let n = self.num_nodes();
        if n == 0 {
            out.extend((0..width).map(|_| (TopKResult::default(), SearchStats::default())));
            return Ok(());
        }

        let mut stats = [SearchStats::default(); PANEL_WIDTH];
        let mut collectors: Vec<TopKCollector> = (0..width)
            .map(|_| TopKCollector::with_buffer(k, ws.heap_bufs.pop().unwrap_or_default()))
            .collect();

        let full_substitution = mode == SearchMode::FullSubstitution;
        self.forward_staged(ws, width, full_substitution);

        if full_substitution {
            let full = ClusterRange { start: 0, len: n };
            self.back_panel_full(full, ws, width);
            for s in stats.iter_mut().take(width) {
                s.nodes_scored = n;
            }
            self.offer_range_all(full, ws, width, &mut collectors);
            return self.finish_panel(ws, collectors, &stats, out);
        }

        let border_idx = self.ordering.border_cluster();
        let border_range = self.ordering.clusters[border_idx];

        // Back substitution for C_N first (its scores feed every other
        // cluster via Lemma 5), then for each lane's query clusters.
        self.back_panel_full(border_range, ws, width);
        for s in stats.iter_mut().take(width) {
            s.nodes_scored += border_range.len;
        }
        let union = std::mem::take(&mut ws.union_clusters);
        for &c in &union {
            let range = self.ordering.clusters[c];
            mask_lanes_with_cluster(ws, width, c, true);
            if ws.active.is_empty() {
                continue;
            }
            let active = std::mem::take(&mut ws.active);
            self.back_panel_masked(range, ws, width, &active);
            for &b in &active {
                stats[b].nodes_scored += range.len;
            }
            ws.active = active;
        }
        self.offer_range_all(border_range, ws, width, &mut collectors);
        for &c in &union {
            let range = self.ordering.clusters[c];
            mask_lanes_with_cluster(ws, width, c, true);
            let active = std::mem::take(&mut ws.active);
            self.offer_range_masked(range, ws, width, &active, &mut collectors);
            ws.active = active;
        }
        ws.union_clusters = union;

        // Remaining interior clusters: per-lane prune-or-score with a
        // shrinking active-lane mask. Each lane walks its (sorted) query
        // clusters with a cursor, so membership is O(1) per cluster instead
        // of a per-cluster binary search; the mask lives in a stack array.
        let mut estimates = [0.0f64; PANEL_WIDTH];
        let mut active = [0usize; PANEL_WIDTH];
        let mut cursors = [0usize; PANEL_WIDTH];
        for (ci, &range) in self.ordering.clusters.iter().enumerate() {
            let mut active_len = 0usize;
            for b in 0..width {
                let clusters = ws.lane_clusters(b);
                if cursors[b] < clusters.len() && clusters[cursors[b]] == ci {
                    cursors[b] += 1;
                } else {
                    active[active_len] = b;
                    active_len += 1;
                }
            }
            if ci == border_idx || range.is_empty() || active_len == 0 {
                continue;
            }
            for &b in &active[..active_len] {
                stats[b].clusters_considered += 1;
            }
            if mode == SearchMode::Pruned {
                // A cluster with no stored border columns has `X_i = 0`
                // exactly, for every lane — skip the panel evaluation and
                // compare 0 against each lane's threshold directly (the
                // panel evaluation computes the same empty sum).
                let no_border_columns = self.bounds.border_columns(ci).is_empty();
                if !no_border_columns {
                    self.bounds.cluster_estimates_panel(
                        ci,
                        range.len,
                        &ws.x_panel,
                        width,
                        &mut estimates[..width],
                    );
                }
                let mut keep = 0usize;
                for idx in 0..active_len {
                    let b = active[idx];
                    stats[b].bound_evaluations += 1;
                    let estimate = if no_border_columns { 0.0 } else { estimates[b] };
                    if estimate < collectors[b].threshold() {
                        stats[b].clusters_pruned += 1;
                    } else {
                        active[keep] = b;
                        keep += 1;
                    }
                }
                active_len = keep;
            }
            if active_len == 0 {
                continue;
            }
            ws.dirty_ranges.push(range);
            self.back_panel_masked(range, ws, width, &active[..active_len]);
            for &b in &active[..active_len] {
                stats[b].nodes_scored += range.len;
            }
            self.offer_range_masked(range, ws, width, &active[..active_len], &mut collectors);
        }

        self.finish_panel(ws, collectors, &stats, out)
    }

    /// Offer one cluster range's scores to every lane's collector.
    fn offer_range_all(
        &self,
        range: ClusterRange,
        ws: &BatchWorkspace,
        width: usize,
        collectors: &mut [TopKCollector],
    ) {
        for (b, collector) in collectors.iter_mut().enumerate() {
            self.offer_range_lane(range, ws, width, b, collector);
        }
    }

    /// Offer one cluster range's scores to the active lanes' collectors.
    fn offer_range_masked(
        &self,
        range: ClusterRange,
        ws: &BatchWorkspace,
        width: usize,
        active: &[usize],
        collectors: &mut [TopKCollector],
    ) {
        for &b in active {
            self.offer_range_lane(range, ws, width, b, &mut collectors[b]);
        }
    }

    /// Offer one cluster range's scores to a single lane's collector. The
    /// offer order within a range is ascending permuted index, and offers
    /// are lane-local, so the per-lane results are independent of the lane
    /// iteration order above.
    fn offer_range_lane(
        &self,
        range: ClusterRange,
        ws: &BatchWorkspace,
        width: usize,
        lane: usize,
        collector: &mut TopKCollector,
    ) {
        let exclude = ws.excludes[lane];
        for i in range.indices() {
            if Some(i) == exclude {
                continue;
            }
            // Pre-filter against the cached threshold so the common rejected
            // offer never loads the permutation entry; `offer` re-applies
            // the same check, so semantics are unchanged.
            let score = ws.x_panel[i * width + lane];
            if !score.is_finite() || score < collector.threshold() {
                continue;
            }
            collector.offer(self.ordering.permutation.old_index(i), score);
        }
    }

    /// Extract every lane's result, recycle the heap buffers and restore the
    /// panel zeroing invariant.
    fn finish_panel(
        &self,
        ws: &mut BatchWorkspace,
        collectors: Vec<TopKCollector>,
        stats: &[SearchStats; PANEL_WIDTH],
        out: &mut Vec<(TopKResult, SearchStats)>,
    ) -> Result<()> {
        let width = ws.staged();
        for (b, collector) in collectors.into_iter().enumerate() {
            let (result, buf) = collector.finish();
            ws.heap_bufs.push(buf);
            out.push((result, stats[b]));
        }
        ws.cleanup_panels(width);
        Ok(())
    }
}

/// The forward recurrence `L' y = q'` of one lane over one cluster range,
/// reading and writing the lane's strided column of the panels. This is the
/// only scalar form of the recurrence: one-lane panels and sparse masks both
/// run it. The `v * d[j] * y[j]` product order is the one the lane kernels
/// reproduce (`vd = v * d[j]`, then `acc -= vd * y[j]`).
///
/// `#[inline(always)]` so the width-1 call sites fold `width` and `lane`
/// into the indexing.
#[inline(always)]
fn forward_lane(
    l: &CsrMatrix,
    d: &[f64],
    range: ClusterRange,
    ws: &mut BatchWorkspace,
    width: usize,
    lane: usize,
) {
    for i in range.indices() {
        let mut acc = ws.q_panel[i * width + lane];
        let (cols, vals) = l.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                acc -= v * d[j] * ws.y_panel[j * width + lane];
            }
        }
        ws.y_panel[i * width + lane] = acc / d[i];
    }
}

/// The back recurrence `U x' = y` of one lane over one cluster range (see
/// [`forward_lane`]).
#[inline(always)]
fn back_lane(
    u: &CsrMatrix,
    range: ClusterRange,
    ws: &mut BatchWorkspace,
    width: usize,
    lane: usize,
) {
    for i in range.indices().rev() {
        let mut acc = ws.y_panel[i * width + lane];
        let (cols, vals) = u.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                acc -= v * ws.x_panel[j * width + lane];
            }
        }
        ws.x_panel[i * width + lane] = acc;
    }
}

/// The forward-recurrence sweep body, generic over the lane kernel. The
/// masked adaptive sweeps route through this too: a mostly-active mask
/// delegates to the full-width sweep (over-computing inactive lanes is
/// provably harmless, see [`MogulIndex`'s masked kernels]), while sparse
/// masks and one-lane panels run [`forward_lane`] instead, where SIMD has
/// nothing to vectorize.
///
/// `#[inline(always)]` so that instantiating this inside a
/// `#[target_feature(enable = "avx2")]` shell inlines the kernel's
/// intrinsics into the whole CSR traversal — one dispatch per cluster range,
/// not one per node row.
#[inline(always)]
fn forward_range_sweep<K: LaneKernel>(
    kernel: K,
    l: &CsrMatrix,
    d: &[f64],
    range: ClusterRange,
    q_panel: &[f64],
    y_panel: &mut [f64],
    width: usize,
) {
    let mut acc = [0.0f64; PANEL_WIDTH];
    let acc = &mut acc[..width];
    for i in range.indices() {
        acc.copy_from_slice(&q_panel[i * width..(i + 1) * width]);
        let (cols, vals) = l.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                let vd = v * d[j];
                kernel.axpy_neg(acc, &y_panel[j * width..(j + 1) * width], vd);
            }
        }
        kernel.div_store(&mut y_panel[i * width..(i + 1) * width], acc, d[i]);
    }
}

/// The back-substitution sweep body, generic over the lane kernel (see
/// [`forward_range_sweep`] for the dispatch and inlining notes).
#[inline(always)]
fn back_range_sweep<K: LaneKernel>(
    kernel: K,
    u: &CsrMatrix,
    range: ClusterRange,
    y_panel: &[f64],
    x_panel: &mut [f64],
    width: usize,
) {
    let mut acc = [0.0f64; PANEL_WIDTH];
    let acc = &mut acc[..width];
    for i in range.indices().rev() {
        acc.copy_from_slice(&y_panel[i * width..(i + 1) * width]);
        let (cols, vals) = u.row(i);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                kernel.axpy_neg(acc, &x_panel[j * width..(j + 1) * width], v);
            }
        }
        x_panel[i * width..(i + 1) * width].copy_from_slice(acc);
    }
}

/// The AVX2 kernel iff the dispatcher currently selects the SIMD path.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
fn avx2_if_active() -> Option<Avx2Kernel> {
    match mogul_sparse::kernel::active_kernel() {
        mogul_sparse::kernel::KernelKind::Simd => Avx2Kernel::try_new(),
        mogul_sparse::kernel::KernelKind::Scalar => None,
    }
}

/// `#[target_feature(enable = "avx2")]` instantiations of the generic sweep
/// bodies: the attribute lets the compiler emit AVX2 throughout the inlined
/// traversal instead of fencing each kernel call behind a feature check.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2_shells {
    use super::*;

    /// # Safety
    /// The caller must have verified AVX2 support (holding an [`Avx2Kernel`]
    /// is that proof).
    #[target_feature(enable = "avx2")]
    pub unsafe fn forward(
        kernel: Avx2Kernel,
        l: &CsrMatrix,
        d: &[f64],
        range: ClusterRange,
        q_panel: &[f64],
        y_panel: &mut [f64],
        width: usize,
    ) {
        forward_range_sweep(kernel, l, d, range, q_panel, y_panel, width)
    }

    /// # Safety
    /// As in [`forward`].
    #[target_feature(enable = "avx2")]
    pub unsafe fn back(
        kernel: Avx2Kernel,
        u: &CsrMatrix,
        range: ClusterRange,
        y_panel: &[f64],
        x_panel: &mut [f64],
        width: usize,
    ) {
        back_range_sweep(kernel, u, range, y_panel, x_panel, width)
    }
}

/// Fill `ws.active` with the lanes whose query-cluster list does (`member ==
/// true`) or does not (`member == false`) contain `cluster`.
fn mask_lanes_with_cluster(ws: &mut BatchWorkspace, width: usize, cluster: usize, member: bool) {
    let mut active = std::mem::take(&mut ws.active);
    active.clear();
    for b in 0..width {
        if ws.lane_clusters(b).binary_search(&cluster).is_ok() == member {
            active.push(b);
        }
    }
    ws.active = active;
}

/// `Vec::dedup` restricted to the suffix starting at `from` — used to
/// deduplicate one lane's cluster list in place inside the shared flattened
/// buffer.
trait DedupSuffix {
    fn dedup_in_suffix(&mut self, from: usize);
}

impl DedupSuffix for Vec<usize> {
    fn dedup_in_suffix(&mut self, from: usize) {
        let mut write = from;
        for read in from..self.len() {
            if write == from || self[write - 1] != self[read] {
                self[write] = self[read];
                write += 1;
            }
        }
        self.truncate(write);
    }
}
