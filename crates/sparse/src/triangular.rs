//! Forward and back substitution for sparse triangular systems.
//!
//! Mogul obtains the approximate ranking scores by forward substitution on
//! `L' y = q'` (Equation (4)) followed by back substitution on `U x' = y`
//! (Equation (5)); both factors come from the `L D Lᵀ` factorization of `W`
//! and are stored row-wise (CSR), which is exactly the access pattern the two
//! substitutions need.
//!
//! Every solve here takes a **panel** of right-hand sides (`width ≥ 1`
//! columns, see [`MultiSolveWorkspace`] for the layout); a single right-hand
//! side is a panel of width 1. Each lane performs the textbook scalar
//! recurrence — `x[i] = (b[i] − Σ_{j<i} L_ij x[j]) / L_ii`, accumulated in
//! stored-column order — operation for operation, so a lane's result does
//! not depend on the panel width or on the lane kernel.

use crate::csr::CsrMatrix;
use crate::error::{Result, SparseError};
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
use crate::kernel::Avx2Kernel;
use crate::kernel::{self, KernelKind, LaneKernel, ScalarKernel};

/// Smallest pivot magnitude accepted before a solve is declared singular.
const PIVOT_TOL: f64 = 1e-300;

/// The width a one-lane panel (a single right-hand side) is swept at. The
/// sweep bodies are `#[inline(always)]`, so passing this constant instead
/// of a runtime width lets the compiler reduce them to the plain scalar
/// recurrence — one lane has nothing to vectorize, and the per-row lane
/// slicing of the general body would only cost time. Per lane, the
/// arithmetic is the same either way.
const ONE_LANE: usize = 1;

/// Reset `out` to `n` zeros, reusing its existing capacity.
fn reset(out: &mut Vec<f64>, n: usize) {
    out.clear();
    out.resize(n, 0.0);
}

// ---------------------------------------------------------------------------
// Blocked multi-RHS (panel) solves
// ---------------------------------------------------------------------------

/// Widest panel the blocked solves are tuned for. Callers may pass any
/// `width >= 1`; widths up to this constant keep the per-row lane loop inside
/// one or two cache lines, which is what makes it auto-vectorize well.
pub const MAX_PANEL_WIDTH: usize = 16;

/// Reusable scratch for the composite [`ldl_solve_multi_into`] operation.
///
/// It holds the intermediate `n × B` panel of the two-phase solve so a warm
/// loop of solves performs no heap allocation. Panels are stored with the `B` lane values of
/// each node adjacent (`panel[node * width + lane]`), i.e. a `B × n` matrix
/// in column-major order: one traversal of the factor's CSR structure applies
/// every nonzero to all `B` right-hand sides through a short contiguous
/// inner loop.
#[derive(Debug, Clone, Default)]
pub struct MultiSolveWorkspace {
    /// Intermediate panel of `L Y = B` before the diagonal scaling.
    intermediate: Vec<f64>,
}

impl MultiSolveWorkspace {
    /// An empty workspace; the panel grows on first use.
    pub fn new() -> Self {
        MultiSolveWorkspace::default()
    }

    /// A workspace pre-sized for systems of dimension `n` at panel width `w`.
    pub fn with_capacity(n: usize, w: usize) -> Self {
        MultiSolveWorkspace {
            intermediate: Vec::with_capacity(n * w),
        }
    }
}

/// The actual shape of a flat panel for error payloads: `rows × width` when
/// the length divides evenly, otherwise the raw length as a single column so
/// ragged inputs are reported verbatim instead of silently rounded.
fn panel_shape(panel_len: usize, width: usize) -> (usize, usize) {
    if width > 0 && panel_len.is_multiple_of(width) {
        (panel_len / width, width)
    } else {
        (panel_len, 1)
    }
}

fn check_square_and_panel(
    m: &CsrMatrix,
    panel_len: usize,
    width: usize,
    op: &'static str,
) -> Result<()> {
    if m.nrows() != m.ncols() {
        return Err(SparseError::NotSquare {
            nrows: m.nrows(),
            ncols: m.ncols(),
        });
    }
    if width == 0 || panel_len != m.nrows() * width {
        // The payload carries the *requested* shape: `width` verbatim (even
        // when 0) on the left, and the supplied panel re-expressed against
        // that width on the right.
        return Err(SparseError::DimensionMismatch {
            op,
            left: (m.nrows(), width),
            right: panel_shape(panel_len, width),
        });
    }
    Ok(())
}

/// Run `solve_block` over the panel in lane blocks of at most
/// [`MAX_PANEL_WIDTH`].
///
/// This is the cache-blocking of the CSR substitution traversals: a sweep
/// over a factor row reads one `width`-lane panel row per non-zero, so for
/// wide panels each block is gathered into a contiguous `n × bw` scratch
/// (`bw ≤ MAX_PANEL_WIDTH`, at most two cache lines per node) before the
/// substitution runs and scattered back after. Gather/scatter only copies
/// values — each lane's arithmetic is untouched, so bit-identity per lane is
/// preserved. Narrow panels (`width ≤ MAX_PANEL_WIDTH`) run in place.
fn run_lane_blocked(
    b: &[f64],
    width: usize,
    x: &mut [f64],
    mut solve_block: impl FnMut(&[f64], usize, &mut [f64]) -> Result<()>,
) -> Result<()> {
    if width <= MAX_PANEL_WIDTH {
        return solve_block(b, width, x);
    }
    let n = b.len() / width;
    let mut b_block = Vec::new();
    let mut x_block = Vec::new();
    let mut start = 0usize;
    while start < width {
        let bw = MAX_PANEL_WIDTH.min(width - start);
        b_block.clear();
        b_block.resize(n * bw, 0.0);
        x_block.clear();
        x_block.resize(n * bw, 0.0);
        for i in 0..n {
            let src = &b[i * width + start..i * width + start + bw];
            b_block[i * bw..(i + 1) * bw].copy_from_slice(src);
        }
        solve_block(&b_block, bw, &mut x_block)?;
        for i in 0..n {
            let dst = &mut x[i * width + start..i * width + start + bw];
            dst.copy_from_slice(&x_block[i * bw..(i + 1) * bw]);
        }
        start += bw;
    }
    Ok(())
}

// --- Kernel-generic sweep bodies -------------------------------------------
//
// Each sweep is written once, generic over the [`LaneKernel`] that executes
// its per-node lane loops, and instantiated twice: with [`ScalarKernel`]
// directly, and with [`Avx2Kernel`] inside an `#[target_feature(enable =
// "avx2")]` shell so the whole sweep (not just the primitives) is compiled
// for AVX2 and the intrinsics inline into the traversal. The shells are the
// only `unsafe` entry points; the runtime CPU check in `Avx2Kernel::try_new`
// is what discharges their safety obligation.

#[inline(always)]
fn lower_sweep<K: LaneKernel>(
    kern: K,
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut [f64],
) -> Result<()> {
    let n = l.nrows();
    let mut spill = [0.0f64; MAX_PANEL_WIDTH];
    let acc = &mut spill[..width];
    for i in 0..n {
        let (cols, vals) = l.row(i);
        acc.copy_from_slice(&b[i * width..(i + 1) * width]);
        let mut diag = 0.0;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                kern.axpy_neg(acc, &x[j * width..(j + 1) * width], v);
            } else if j == i {
                diag = v;
            }
        }
        if diag.abs() < PIVOT_TOL {
            return Err(SparseError::SingularMatrix { pivot: i });
        }
        kern.div_store(&mut x[i * width..(i + 1) * width], acc, diag);
    }
    Ok(())
}

#[inline(always)]
fn unit_lower_sweep<K: LaneKernel>(
    kern: K,
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut [f64],
) -> Result<()> {
    let n = l.nrows();
    for i in 0..n {
        let (cols, vals) = l.row(i);
        let (done, rest) = x.split_at_mut(i * width);
        let xi = &mut rest[..width];
        xi.copy_from_slice(&b[i * width..(i + 1) * width]);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j < i {
                kern.axpy_neg(xi, &done[j * width..(j + 1) * width], v);
            }
        }
    }
    Ok(())
}

#[inline(always)]
fn upper_sweep<K: LaneKernel>(
    kern: K,
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut [f64],
) -> Result<()> {
    let n = u.nrows();
    let mut spill = [0.0f64; MAX_PANEL_WIDTH];
    let acc = &mut spill[..width];
    for i in (0..n).rev() {
        let (cols, vals) = u.row(i);
        acc.copy_from_slice(&b[i * width..(i + 1) * width]);
        let mut diag = 0.0;
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                kern.axpy_neg(acc, &x[j * width..(j + 1) * width], v);
            } else if j == i {
                diag = v;
            }
        }
        if diag.abs() < PIVOT_TOL {
            return Err(SparseError::SingularMatrix { pivot: i });
        }
        kern.div_store(&mut x[i * width..(i + 1) * width], acc, diag);
    }
    Ok(())
}

#[inline(always)]
fn unit_upper_sweep<K: LaneKernel>(
    kern: K,
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut [f64],
) -> Result<()> {
    let n = u.nrows();
    for i in (0..n).rev() {
        let (cols, vals) = u.row(i);
        let (head, tail) = x.split_at_mut((i + 1) * width);
        let xi = &mut head[i * width..];
        xi.copy_from_slice(&b[i * width..(i + 1) * width]);
        for (&j, &v) in cols.iter().zip(vals.iter()) {
            if j > i {
                kern.axpy_neg(xi, &tail[(j - i - 1) * width..(j - i) * width], v);
            }
        }
    }
    Ok(())
}

#[inline(always)]
fn scale_diag_sweep<K: LaneKernel>(
    kern: K,
    d: &[f64],
    width: usize,
    panel: &mut [f64],
) -> Result<()> {
    for (i, (&di, row)) in d.iter().zip(panel.chunks_exact_mut(width)).enumerate() {
        if di.abs() < PIVOT_TOL {
            return Err(SparseError::SingularMatrix { pivot: i });
        }
        kern.div_assign(row, di);
    }
    Ok(())
}

// --- AVX2 shells -----------------------------------------------------------

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
mod avx2_shells {
    use super::*;

    // SAFETY (each shell): callable only with an `Avx2Kernel`, whose
    // construction performed the runtime AVX2 check; the attribute merely
    // lets LLVM compile the monomorphized sweep body with AVX2 enabled.
    #[target_feature(enable = "avx2")]
    pub unsafe fn lower(
        k: Avx2Kernel,
        l: &CsrMatrix,
        b: &[f64],
        w: usize,
        x: &mut [f64],
    ) -> Result<()> {
        lower_sweep(k, l, b, w, x)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn unit_lower(
        k: Avx2Kernel,
        l: &CsrMatrix,
        b: &[f64],
        w: usize,
        x: &mut [f64],
    ) -> Result<()> {
        unit_lower_sweep(k, l, b, w, x)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn upper(
        k: Avx2Kernel,
        u: &CsrMatrix,
        b: &[f64],
        w: usize,
        x: &mut [f64],
    ) -> Result<()> {
        upper_sweep(k, u, b, w, x)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn unit_upper(
        k: Avx2Kernel,
        u: &CsrMatrix,
        b: &[f64],
        w: usize,
        x: &mut [f64],
    ) -> Result<()> {
        unit_upper_sweep(k, u, b, w, x)
    }

    #[target_feature(enable = "avx2")]
    pub unsafe fn scale_diag(k: Avx2Kernel, d: &[f64], w: usize, panel: &mut [f64]) -> Result<()> {
        scale_diag_sweep(k, d, w, panel)
    }
}

/// Try to resolve `kind` to a runnable AVX2 kernel.
#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[inline]
fn avx2_for(kind: KernelKind) -> Option<Avx2Kernel> {
    match kind {
        KernelKind::Simd => Avx2Kernel::try_new(),
        KernelKind::Scalar => None,
    }
}

/// Solve `L X = B` for `width` right-hand sides at once, where `L` is lower
/// triangular with a non-zero stored diagonal.
///
/// `b` and `x` are panels in the [`MultiSolveWorkspace`] layout
/// (`panel[i * width + lane]`, length `n · width`). Each lane's arithmetic
/// is the scalar recurrence operation for operation — under **either**
/// kernel (see [`crate::kernel`]) — so lane `l` of the panel result is
/// **bit-identical** to a width-1 solve of lane `l`'s right-hand side; the
/// panel only amortizes the traversal of `L`'s row pointers and indices
/// across lanes. Dispatches on [`kernel::active_kernel`]; use
/// [`solve_lower_multi_into_with`] to pin a kernel explicitly.
pub fn solve_lower_multi_into(
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    solve_lower_multi_into_with(kernel::active_kernel(), l, b, width, x)
}

/// [`solve_lower_multi_into`] with an explicit kernel choice (an unavailable
/// SIMD request falls back to scalar, preserving results bit for bit).
pub fn solve_lower_multi_into_with(
    kind: KernelKind,
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(l, b.len(), width, "solve_lower_multi")?;
    reset(x, l.nrows() * width);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = kind;
    run_lane_blocked(b, width, x, |bb, bw, xb| {
        if bw == 1 {
            // See `ONE_LANE`.
            return lower_sweep(ScalarKernel, l, bb, ONE_LANE, xb);
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(k) = avx2_for(kind) {
            // SAFETY: `avx2_for` returned a kernel, so AVX2 is available.
            return unsafe { avx2_shells::lower(k, l, bb, bw, xb) };
        }
        lower_sweep(ScalarKernel, l, bb, bw, xb)
    })
}

/// Solve `L X = B` for `width` right-hand sides where `L` is *unit* lower
/// triangular. Panel layout and bit-identity guarantees as in
/// [`solve_lower_multi_into`].
pub fn solve_unit_lower_multi_into(
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    solve_unit_lower_multi_into_with(kernel::active_kernel(), l, b, width, x)
}

/// [`solve_unit_lower_multi_into`] with an explicit kernel choice.
pub fn solve_unit_lower_multi_into_with(
    kind: KernelKind,
    l: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(l, b.len(), width, "solve_unit_lower_multi")?;
    reset(x, l.nrows() * width);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = kind;
    run_lane_blocked(b, width, x, |bb, bw, xb| {
        if bw == 1 {
            // See `ONE_LANE`.
            return unit_lower_sweep(ScalarKernel, l, bb, ONE_LANE, xb);
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(k) = avx2_for(kind) {
            // SAFETY: `avx2_for` returned a kernel, so AVX2 is available.
            return unsafe { avx2_shells::unit_lower(k, l, bb, bw, xb) };
        }
        unit_lower_sweep(ScalarKernel, l, bb, bw, xb)
    })
}

/// Solve `U X = B` for `width` right-hand sides at once, where `U` is upper
/// triangular with a non-zero stored diagonal. Panel layout and bit-identity
/// guarantees as in [`solve_lower_multi_into`].
pub fn solve_upper_multi_into(
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    solve_upper_multi_into_with(kernel::active_kernel(), u, b, width, x)
}

/// [`solve_upper_multi_into`] with an explicit kernel choice.
pub fn solve_upper_multi_into_with(
    kind: KernelKind,
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(u, b.len(), width, "solve_upper_multi")?;
    reset(x, u.nrows() * width);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = kind;
    run_lane_blocked(b, width, x, |bb, bw, xb| {
        if bw == 1 {
            // See `ONE_LANE`.
            return upper_sweep(ScalarKernel, u, bb, ONE_LANE, xb);
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(k) = avx2_for(kind) {
            // SAFETY: `avx2_for` returned a kernel, so AVX2 is available.
            return unsafe { avx2_shells::upper(k, u, bb, bw, xb) };
        }
        upper_sweep(ScalarKernel, u, bb, bw, xb)
    })
}

/// Solve `U X = B` for `width` right-hand sides where `U` is *unit* upper
/// triangular. Panel layout and bit-identity guarantees as in
/// [`solve_lower_multi_into`].
pub fn solve_unit_upper_multi_into(
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    solve_unit_upper_multi_into_with(kernel::active_kernel(), u, b, width, x)
}

/// [`solve_unit_upper_multi_into`] with an explicit kernel choice.
pub fn solve_unit_upper_multi_into_with(
    kind: KernelKind,
    u: &CsrMatrix,
    b: &[f64],
    width: usize,
    x: &mut Vec<f64>,
) -> Result<()> {
    check_square_and_panel(u, b.len(), width, "solve_unit_upper_multi")?;
    reset(x, u.nrows() * width);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = kind;
    run_lane_blocked(b, width, x, |bb, bw, xb| {
        if bw == 1 {
            // See `ONE_LANE`.
            return unit_upper_sweep(ScalarKernel, u, bb, ONE_LANE, xb);
        }
        #[cfg(all(feature = "simd", target_arch = "x86_64"))]
        if let Some(k) = avx2_for(kind) {
            // SAFETY: `avx2_for` returned a kernel, so AVX2 is available.
            return unsafe { avx2_shells::unit_upper(k, u, bb, bw, xb) };
        }
        unit_upper_sweep(ScalarKernel, u, bb, bw, xb)
    })
}

/// Scale every row of an `n × width` panel by the inverse diagonal, in place:
/// `panel[i, lane] /= d[i]` for every lane, bit-identically under either
/// kernel.
pub fn scale_diag_multi_into(d: &[f64], width: usize, panel: &mut [f64]) -> Result<()> {
    scale_diag_multi_into_with(kernel::active_kernel(), d, width, panel)
}

/// [`scale_diag_multi_into`] with an explicit kernel choice.
pub fn scale_diag_multi_into_with(
    kind: KernelKind,
    d: &[f64],
    width: usize,
    panel: &mut [f64],
) -> Result<()> {
    if width == 0 || panel.len() != d.len() * width {
        // As in `check_square_and_panel`: report the requested shape
        // verbatim, never a `.max(1)`-garbled rounding of it.
        return Err(SparseError::DimensionMismatch {
            op: "scale_diag_multi",
            left: (d.len(), width),
            right: panel_shape(panel.len(), width),
        });
    }
    if width == 1 {
        // See `ONE_LANE`.
        return scale_diag_sweep(ScalarKernel, d, ONE_LANE, panel);
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if let Some(k) = avx2_for(kind) {
        // SAFETY: `avx2_for` returned a kernel, so AVX2 is available.
        return unsafe { avx2_shells::scale_diag(k, d, width, panel) };
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = kind;
    scale_diag_sweep(ScalarKernel, d, width, panel)
}

/// Solve `L D Lᵀ X = B` for `width` right-hand sides at once, given the
/// unit-lower factor `L` (rows, CSR), its transpose `U = Lᵀ` (rows, CSR) and
/// the diagonal `D`: one unit-lower sweep, one diagonal scaling and one
/// unit-upper sweep, each traversing the factor structure once for the whole
/// panel. Lane `l` of the result is bit-identical to a width-1 solve of lane
/// `l`'s right-hand side.
///
/// This is the composite operation Mogul performs when it computes the
/// approximate scores of *all* nodes (the "Incomplete Cholesky" baseline of
/// Figure 5); the selective per-cluster variant lives in `mogul-core`.
pub fn ldl_solve_multi_into(
    l: &CsrMatrix,
    u: &CsrMatrix,
    d: &[f64],
    b: &[f64],
    width: usize,
    ws: &mut MultiSolveWorkspace,
    x: &mut Vec<f64>,
) -> Result<()> {
    ldl_solve_multi_into_with(kernel::active_kernel(), l, u, d, b, width, ws, x)
}

/// [`ldl_solve_multi_into`] with an explicit kernel choice.
#[allow(clippy::too_many_arguments)] // composite of three kernel-dispatched phases
pub fn ldl_solve_multi_into_with(
    kind: KernelKind,
    l: &CsrMatrix,
    u: &CsrMatrix,
    d: &[f64],
    b: &[f64],
    width: usize,
    ws: &mut MultiSolveWorkspace,
    x: &mut Vec<f64>,
) -> Result<()> {
    if d.len() != l.nrows() {
        return Err(SparseError::DimensionMismatch {
            op: "ldl_solve_multi diagonal",
            left: (l.nrows(), l.ncols()),
            right: (d.len(), 1),
        });
    }
    solve_unit_lower_multi_into_with(kind, l, b, width, &mut ws.intermediate)?;
    scale_diag_multi_into_with(kind, d, width, &mut ws.intermediate)?;
    solve_unit_upper_multi_into_with(kind, u, &ws.intermediate, width, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::DenseMatrix;
    use crate::vector::max_abs_diff;

    /// Test-local reference: the textbook single-RHS substitution (rows
    /// ascending for `lower`, descending otherwise; the stored diagonal
    /// divides unless `unit`), accumulated in stored-column order.
    fn reference_solve(m: &CsrMatrix, b: &[f64], lower: bool, unit: bool) -> Vec<f64> {
        let n = m.nrows();
        let mut x = vec![0.0; n];
        let rows: Vec<usize> = if lower {
            (0..n).collect()
        } else {
            (0..n).rev().collect()
        };
        for i in rows {
            let (cols, vals) = m.row(i);
            let mut sum = b[i];
            let mut diag = 0.0;
            for (&j, &v) in cols.iter().zip(vals.iter()) {
                if (lower && j < i) || (!lower && j > i) {
                    sum -= v * x[j];
                } else if j == i {
                    diag = v;
                }
            }
            x[i] = if unit { sum } else { sum / diag };
        }
        x
    }

    /// One-column solve through a panel entry point.
    fn solve1(
        solve: fn(&CsrMatrix, &[f64], usize, &mut Vec<f64>) -> Result<()>,
        m: &CsrMatrix,
        b: &[f64],
    ) -> Result<Vec<f64>> {
        let mut x = Vec::new();
        solve(m, b, 1, &mut x)?;
        Ok(x)
    }

    fn lower_example() -> CsrMatrix {
        // [ 2 0 0 ]
        // [ 1 3 0 ]
        // [ 0 2 4 ]
        CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 2.0),
                (1, 0, 1.0),
                (1, 1, 3.0),
                (2, 1, 2.0),
                (2, 2, 4.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn lower_solve_matches_dense() {
        let l = lower_example();
        let b = vec![2.0, 7.0, 14.0];
        let x = solve1(solve_lower_multi_into, &l, &b).unwrap();
        let lx = l.matvec(&x).unwrap();
        assert!(max_abs_diff(&lx, &b).unwrap() < 1e-12);
    }

    #[test]
    fn upper_solve_matches_dense() {
        let u = lower_example().transpose();
        let b = vec![5.0, 4.0, 8.0];
        let x = solve1(solve_upper_multi_into, &u, &b).unwrap();
        let ux = u.matvec(&x).unwrap();
        assert!(max_abs_diff(&ux, &b).unwrap() < 1e-12);
    }

    #[test]
    fn unit_solves_ignore_missing_diagonal() {
        // Strictly lower part only; diagonal treated as 1.
        let l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let b = vec![1.0, 1.0, 1.0];
        let x = solve1(solve_unit_lower_multi_into, &l, &b).unwrap();
        assert_eq!(x, vec![1.0, 0.5, 0.875]);

        let u = l.transpose();
        let xu = solve1(solve_unit_upper_multi_into, &u, &b).unwrap();
        assert_eq!(xu, vec![0.625, 0.75, 1.0]);
    }

    #[test]
    fn singular_diagonals_are_reported() {
        let l = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            solve1(solve_lower_multi_into, &l, &[1.0, 1.0]),
            Err(SparseError::SingularMatrix { pivot: 1 })
        ));
        let u = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (1, 1, 1.0)]).unwrap();
        assert!(matches!(
            solve1(solve_upper_multi_into, &u, &[1.0, 1.0]),
            Err(SparseError::SingularMatrix { pivot: 0 })
        ));
    }

    #[test]
    fn shape_validation() {
        let l = lower_example();
        assert!(solve1(solve_lower_multi_into, &l, &[1.0]).is_err());
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(solve1(solve_unit_lower_multi_into, &rect, &[1.0, 1.0]).is_err());
        assert!(solve1(solve_unit_upper_multi_into, &rect, &[1.0, 1.0]).is_err());
        assert!(solve1(solve_upper_multi_into, &rect, &[1.0, 1.0]).is_err());
    }

    #[test]
    fn reused_buffers_give_fresh_results() {
        let l = lower_example();
        let u = l.transpose();
        let unit_l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let unit_u = unit_l.transpose();
        let d = vec![2.0, 3.0, 4.0];

        // One shared output buffer and workspace reused across every solve
        // kind and several right-hand sides: results must equal solves into
        // fresh buffers bit for bit.
        let mut out = Vec::new();
        let mut ws = MultiSolveWorkspace::with_capacity(3, 1);
        for b in [vec![2.0, 7.0, 14.0], vec![-1.0, 0.5, 3.25], vec![0.0; 3]] {
            solve_lower_multi_into(&l, &b, 1, &mut out).unwrap();
            assert_eq!(out, solve1(solve_lower_multi_into, &l, &b).unwrap());
            solve_upper_multi_into(&u, &b, 1, &mut out).unwrap();
            assert_eq!(out, solve1(solve_upper_multi_into, &u, &b).unwrap());
            solve_unit_lower_multi_into(&unit_l, &b, 1, &mut out).unwrap();
            assert_eq!(
                out,
                solve1(solve_unit_lower_multi_into, &unit_l, &b).unwrap()
            );
            solve_unit_upper_multi_into(&unit_u, &b, 1, &mut out).unwrap();
            assert_eq!(
                out,
                solve1(solve_unit_upper_multi_into, &unit_u, &b).unwrap()
            );
            ldl_solve_multi_into(&unit_l, &unit_u, &d, &b, 1, &mut ws, &mut out).unwrap();
            let mut fresh = Vec::new();
            let mut fresh_ws = MultiSolveWorkspace::new();
            ldl_solve_multi_into(&unit_l, &unit_u, &d, &b, 1, &mut fresh_ws, &mut fresh).unwrap();
            assert_eq!(out, fresh);
        }

        // Shape errors are reported through a warm buffer as well.
        assert!(solve_lower_multi_into(&l, &[1.0], 1, &mut out).is_err());
        assert!(
            ldl_solve_multi_into(&unit_l, &unit_u, &[1.0], &[1.0; 3], 1, &mut ws, &mut out)
                .is_err()
        );
    }

    #[test]
    fn multi_solves_are_bit_identical_to_scalar_lanes() {
        // Every panel width (1, ragged widths and widths past the tuned
        // maximum) must reproduce the test-local scalar substitution lane
        // for lane, bit for bit.
        let l = lower_example();
        let u = l.transpose();
        let unit_l = CsrMatrix::from_triplets(3, 3, &[(1, 0, 0.5), (2, 1, 0.25)]).unwrap();
        let unit_u = unit_l.transpose();
        let d = vec![2.0, 3.0, 4.0];
        let n = 3usize;

        for width in [1usize, 2, 3, 5, 8, MAX_PANEL_WIDTH + 1] {
            // Deterministic, lane-distinct right-hand sides.
            let lanes: Vec<Vec<f64>> = (0..width)
                .map(|lane| {
                    (0..n)
                        .map(|i| ((i + 1) as f64) * 0.7 - (lane as f64) * 1.3)
                        .collect()
                })
                .collect();
            let mut panel = vec![0.0; n * width];
            for (lane, b) in lanes.iter().enumerate() {
                for i in 0..n {
                    panel[i * width + lane] = b[i];
                }
            }

            let mut out = Vec::new();
            let mut ws = MultiSolveWorkspace::with_capacity(n, width);
            let assert_lanes = |out: &[f64], reference: &dyn Fn(&[f64]) -> Vec<f64>, what| {
                for (lane, b) in lanes.iter().enumerate() {
                    let scalar = reference(b);
                    for i in 0..n {
                        assert_eq!(
                            out[i * width + lane],
                            scalar[i],
                            "{what} w={width} l={lane}"
                        );
                    }
                }
            };

            solve_lower_multi_into(&l, &panel, width, &mut out).unwrap();
            assert_lanes(&out, &|b| reference_solve(&l, b, true, false), "lower");
            solve_upper_multi_into(&u, &panel, width, &mut out).unwrap();
            assert_lanes(&out, &|b| reference_solve(&u, b, false, false), "upper");
            solve_unit_lower_multi_into(&unit_l, &panel, width, &mut out).unwrap();
            assert_lanes(&out, &|b| reference_solve(&unit_l, b, true, true), "ul");
            solve_unit_upper_multi_into(&unit_u, &panel, width, &mut out).unwrap();
            assert_lanes(&out, &|b| reference_solve(&unit_u, b, false, true), "uu");
            ldl_solve_multi_into(&unit_l, &unit_u, &d, &panel, width, &mut ws, &mut out).unwrap();
            let ldl_reference = |b: &[f64]| {
                let y = reference_solve(&unit_l, b, true, true);
                let y: Vec<f64> = y.iter().zip(&d).map(|(y, d)| y / d).collect();
                reference_solve(&unit_u, &y, false, true)
            };
            assert_lanes(&out, &ldl_reference, "ldl");

            // The in-place diagonal scaling matches the scalar phase too.
            let mut scaled = panel.clone();
            scale_diag_multi_into(&d, width, &mut scaled).unwrap();
            for (lane, b) in lanes.iter().enumerate() {
                for i in 0..n {
                    assert_eq!(scaled[i * width + lane], b[i] / d[i]);
                }
            }
        }
    }

    #[test]
    fn multi_solve_validation() {
        let l = lower_example();
        let mut out = Vec::new();
        // Panel length must be n * width; width must be positive.
        assert!(solve_lower_multi_into(&l, &[1.0; 5], 2, &mut out).is_err());
        assert!(solve_lower_multi_into(&l, &[], 0, &mut out).is_err());
        assert!(solve_unit_lower_multi_into(&l, &[1.0; 4], 2, &mut out).is_err());
        assert!(solve_upper_multi_into(&l, &[1.0; 4], 3, &mut out).is_err());
        assert!(solve_unit_upper_multi_into(&l, &[1.0; 7], 2, &mut out).is_err());
        let rect = CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0)]).unwrap();
        assert!(solve_lower_multi_into(&rect, &[1.0; 4], 2, &mut out).is_err());
        // Singular pivots are still reported per row.
        let sing = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, 1.0)]).unwrap();
        assert!(matches!(
            solve_lower_multi_into(&sing, &[1.0; 4], 2, &mut out),
            Err(SparseError::SingularMatrix { pivot: 1 })
        ));
        assert!(scale_diag_multi_into(&[1.0, 0.0], 2, &mut [1.0; 4]).is_err());
        assert!(scale_diag_multi_into(&[1.0], 2, &mut [1.0; 3]).is_err());
        let mut ws = MultiSolveWorkspace::new();
        assert!(ldl_solve_multi_into(&l, &l, &[1.0], &[1.0; 6], 2, &mut ws, &mut out).is_err());
    }

    #[test]
    fn multi_solve_mismatch_payload_carries_requested_shape() {
        let l = lower_example(); // 3 × 3
        let mut out = Vec::new();
        // width == 0: the left side reports the requested width verbatim, the
        // right side reports the supplied panel as a single column — not the
        // shape divided by `width.max(1)` the payload used to fabricate.
        assert!(matches!(
            solve_lower_multi_into(&l, &[1.0; 4], 0, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 0),
                right: (4, 1),
                ..
            })
        ));
        // Ragged panel (length not a multiple of width): reported verbatim as
        // a column, never rounded down to a fake row count.
        assert!(matches!(
            solve_unit_upper_multi_into(&l, &[1.0; 7], 2, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (7, 1),
                ..
            })
        ));
        // Evenly divisible but wrong row count: re-expressed against the
        // requested width.
        assert!(matches!(
            solve_upper_multi_into(&l, &[1.0; 8], 2, &mut out),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (4, 2),
                ..
            })
        ));
        // The diagonal scaling entry point shares the same payload contract.
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 2.0, 3.0], 0, &mut [1.0; 4]),
            Err(SparseError::DimensionMismatch {
                left: (3, 0),
                right: (4, 1),
                ..
            })
        ));
        assert!(matches!(
            scale_diag_multi_into(&[1.0, 2.0, 3.0], 2, &mut [1.0; 7]),
            Err(SparseError::DimensionMismatch {
                left: (3, 2),
                right: (7, 1),
                ..
            })
        ));
    }

    #[test]
    fn ldl_solve_reconstructs_spd_solution() {
        // Build an SPD matrix A = L D L^T and verify the solve on its factors
        // inverts it.
        let l = CsrMatrix::from_triplets(
            3,
            3,
            &[
                (0, 0, 1.0),
                (1, 0, 0.5),
                (1, 1, 1.0),
                (2, 1, -0.25),
                (2, 2, 1.0),
            ],
        )
        .unwrap();
        let d = vec![4.0, 2.0, 1.0];
        let u = l.transpose();

        // Dense A = L * D * L^T for reference.
        let ld = l
            .to_dense()
            .matmul(&DenseMatrix::from_diagonal(&d))
            .unwrap();
        let a = ld.matmul(&l.to_dense().transpose()).unwrap();

        let b = vec![1.0, -2.0, 3.0];
        let mut ws = MultiSolveWorkspace::new();
        let mut x = Vec::new();
        ldl_solve_multi_into(&l, &u, &d, &b, 1, &mut ws, &mut x).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!(max_abs_diff(&ax, &b).unwrap() < 1e-12);

        assert!(ldl_solve_multi_into(&l, &u, &[1.0], &b, 1, &mut ws, &mut x).is_err());
        assert!(ldl_solve_multi_into(&l, &u, &[1.0, 0.0, 1.0], &b, 1, &mut ws, &mut x).is_err());
    }
}
