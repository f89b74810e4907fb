//! SIMD-vs-scalar bit-identity, plus the factorizations these kernels run on.
//!
//! The kernel engine's exactness contract (`mogul_sparse::kernel`) promises
//! that the AVX2 path performs per lane exactly the IEEE-754 operations of
//! the scalar path, in the same order — so every comparison here is exact
//! `==` on `f64`, never a tolerance. Without `--features simd` (or on a CPU
//! without AVX2) the `KernelKind::Simd` request falls back to the scalar
//! kernel and the assertions hold trivially; under the feature matrix the
//! same battery pins the real AVX2 instructions.
//!
//! The second half checks the serial `L D Lᵀ` row sweeps on a matrix of the
//! shape the index factorizes (many small clusters, a few chords) against
//! independent oracles: the complete factors solve the system, the
//! incomplete factors reproduce `W` on its own pattern, and an exactly
//! singular block reports its breakdown at the right row.

use mogul_sparse::kernel::KernelKind;
use mogul_sparse::triangular::{
    ldl_solve_multi_into_with, scale_diag_multi_into_with, solve_lower_multi_into_with,
    solve_unit_lower_multi_into_with, solve_unit_upper_multi_into_with,
    solve_upper_multi_into_with,
};
use mogul_sparse::{
    complete_ldl, incomplete_ldl, CooMatrix, CsrMatrix, MultiSolveWorkspace, SparseError,
};
use proptest::prelude::*;

/// A random symmetric diagonally-dominant (hence SPD) matrix built from an
/// edge list, mimicking the `I − α S` matrices Mogul factorizes.
fn spd_matrix(n: usize, edges: &[(usize, usize)], weight: f64) -> CsrMatrix {
    let mut coo = CooMatrix::new(n, n);
    let mut degree = vec![0.0; n];
    for &(a, b) in edges {
        let (a, b) = (a % n, b % n);
        if a == b {
            continue;
        }
        coo.push_symmetric(a, b, -weight).unwrap();
        degree[a] += weight;
        degree[b] += weight;
    }
    for (i, &d) in degree.iter().enumerate() {
        coo.push(i, i, d + 1.0).unwrap();
    }
    coo.to_csr()
}

fn edge_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (4usize..max_n).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n, 0..n), 1..(3 * n));
        (Just(n), edges)
    })
}

/// A deterministic "ragged" panel whose values round at every operation.
fn panel(n: usize, width: usize, salt: u64) -> Vec<f64> {
    (0..n * width)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(salt);
            (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every multi-RHS entry point produces bit-identical panels under the
    /// scalar and SIMD kernels, across narrow, full, misaligned and blocked
    /// (wider than `MAX_PANEL_WIDTH`) widths, for both factorization
    /// flavors' factors.
    #[test]
    fn simd_solves_are_bit_identical_to_scalar((n, edges) in edge_strategy(20), w in 0.05f64..0.45) {
        let matrix = spd_matrix(n, &edges, w);
        let complete = complete_ldl(&matrix).unwrap().factors;
        let incomplete = incomplete_ldl(&matrix).unwrap();
        let mut ws = MultiSolveWorkspace::new();
        for factors in [&complete, &incomplete] {
            let (l, u, d) = (&factors.l, &factors.u, &factors.d);
            // Widths 1..=8 cover every lane remainder of the 4-wide AVX2
            // chunking; 17 exercises the cache-blocked gather/scatter path.
            for width in [1usize, 2, 3, 4, 5, 6, 7, 8, 17] {
                let b = panel(n, width, width as u64);
                let (mut x_s, mut x_v) = (Vec::new(), Vec::new());
                for (kind, x) in [(KernelKind::Scalar, &mut x_s), (KernelKind::Simd, &mut x_v)] {
                    solve_unit_lower_multi_into_with(kind, l, &b, width, x).unwrap();
                }
                prop_assert_eq!(&x_s, &x_v, "unit_lower width {}", width);
                for (kind, x) in [(KernelKind::Scalar, &mut x_s), (KernelKind::Simd, &mut x_v)] {
                    solve_unit_upper_multi_into_with(kind, u, &b, width, x).unwrap();
                }
                prop_assert_eq!(&x_s, &x_v, "unit_upper width {}", width);
                for (kind, x) in [(KernelKind::Scalar, &mut x_s), (KernelKind::Simd, &mut x_v)] {
                    ldl_solve_multi_into_with(kind, l, u, d, &b, width, &mut ws, x).unwrap();
                }
                prop_assert_eq!(&x_s, &x_v, "ldl width {}", width);
                let (mut p_s, mut p_v) = (b.clone(), b);
                scale_diag_multi_into_with(KernelKind::Scalar, d, width, &mut p_s).unwrap();
                scale_diag_multi_into_with(KernelKind::Simd, d, width, &mut p_v).unwrap();
                prop_assert_eq!(&p_s, &p_v, "scale_diag width {}", width);
            }
        }
        // The non-unit solves over the lower factor with explicit diagonal
        // (the substitutions of the unrestricted baselines).
        let mut with_diag = CooMatrix::new(n, n);
        for (i, j, v) in complete.l.iter() {
            if i != j {
                with_diag.push(i, j, v).unwrap();
            }
        }
        for (i, &di) in complete.d.iter().enumerate() {
            with_diag.push(i, i, di + 1.5).unwrap();
        }
        let lower = with_diag.to_csr();
        let upper = lower.transpose();
        for width in [3usize, 8, 17] {
            let b = panel(n, width, 99);
            let (mut x_s, mut x_v) = (Vec::new(), Vec::new());
            for (kind, x) in [(KernelKind::Scalar, &mut x_s), (KernelKind::Simd, &mut x_v)] {
                solve_lower_multi_into_with(kind, &lower, &b, width, x).unwrap();
            }
            prop_assert_eq!(&x_s, &x_v, "lower width {}", width);
            for (kind, x) in [(KernelKind::Scalar, &mut x_s), (KernelKind::Simd, &mut x_v)] {
                solve_upper_multi_into_with(kind, &upper, &b, width, x).unwrap();
            }
            prop_assert_eq!(&x_s, &x_v, "upper width {}", width);
        }
    }
}

/// Many small rings (shallow elimination trees, so complete factorization
/// fills in only inside each ring) sprinkled with a few cross-ring edges:
/// the block structure of the `I − α S` matrices the index factorizes.
fn ring_matrix(rings: usize, ring_len: usize, weight: f64) -> CsrMatrix {
    spd_matrix(rings * ring_len, &ring_edges(rings, ring_len), weight)
}

fn ring_edges(rings: usize, ring_len: usize) -> Vec<(usize, usize)> {
    let mut edges = Vec::new();
    for r in 0..rings {
        let base = r * ring_len;
        for i in 0..ring_len {
            edges.push((base + i, base + (i + 1) % ring_len));
        }
        if r + 1 < rings && r % 7 == 0 {
            edges.push((base, base + ring_len));
        }
    }
    edges
}

#[test]
fn ring_matrix_factorizations_match_their_oracles() {
    let matrix = ring_matrix(256, 5, 0.2);
    let n = matrix.nrows();

    // Complete factors solve the system: the residual of `W x = b` is at
    // rounding level.
    let complete = complete_ldl(&matrix).unwrap();
    assert!(complete.fill_in() > 0, "rings must fill in");
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
    let x = complete.solve(&b).unwrap();
    let wx = matrix.matvec(&x).unwrap();
    let residual = wx
        .iter()
        .zip(&b)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    assert!(residual < 1e-12, "complete residual {residual}");

    // Incomplete factors keep the pattern of W's lower triangle and, as
    // IC(0) must, reproduce W exactly (up to rounding) on that pattern. A
    // chord across every ring adds triangles, so the off-diagonal updates
    // `Σ_k L_ik L_jk D_k` are not all empty.
    let mut edges = ring_edges(256, 5);
    edges.extend((0..256).map(|r| (5 * r, 5 * r + 2)));
    let chorded = spd_matrix(n, &edges, 0.2);
    for matrix in [&matrix, &chorded] {
        incomplete_matches_w_on_its_pattern(matrix);
    }
}

fn incomplete_matches_w_on_its_pattern(matrix: &CsrMatrix) {
    let incomplete = incomplete_ldl(matrix).unwrap();
    assert_eq!(incomplete.boosted_pivots, 0);
    let (l, d) = (&incomplete.l, &incomplete.d);
    assert_eq!(l.nnz(), matrix.lower_triangle(true).nnz());
    for (i, j, w_ij) in matrix.lower_triangle(true).iter() {
        // (L D Lᵀ)_ij = Σ_k L_ik D_k L_jk over the shared pattern of rows i, j.
        let (ri_cols, ri_vals) = l.row(i);
        let (rj_cols, rj_vals) = l.row(j);
        let (mut a, mut c, mut product) = (0usize, 0usize, 0.0f64);
        while a < ri_cols.len() && c < rj_cols.len() {
            match ri_cols[a].cmp(&rj_cols[c]) {
                std::cmp::Ordering::Equal => {
                    product += ri_vals[a] * d[ri_cols[a]] * rj_vals[c];
                    a += 1;
                    c += 1;
                }
                std::cmp::Ordering::Less => a += 1,
                std::cmp::Ordering::Greater => c += 1,
            }
        }
        assert!(
            (product - w_ij).abs() < 1e-12,
            "(L D Lᵀ)[{i}][{j}] = {product}, W = {w_ij}"
        );
    }
}

#[test]
fn complete_breakdown_reports_the_singular_row() {
    // The ring matrix plus one exactly singular 2×2 block `[[1, -1], [-1, 1]]`
    // as its own component: eliminating the second block node produces
    // pivot `1 - 1 = 0` exactly, and the error names that row.
    let base = ring_matrix(256, 5, 0.2);
    let n = base.nrows() + 2;
    let (a, b) = (n - 2, n - 1);
    let mut coo = CooMatrix::new(n, n);
    for (i, j, v) in base.iter() {
        coo.push(i, j, v).unwrap();
    }
    coo.push(a, a, 1.0).unwrap();
    coo.push(b, b, 1.0).unwrap();
    coo.push_symmetric(a, b, -1.0).unwrap();
    let matrix = coo.to_csr();
    let error = complete_ldl(&matrix).unwrap_err();
    let SparseError::Breakdown { index, value } = error else {
        panic!("expected Breakdown, got {error:?}");
    };
    assert_eq!(index, b);
    assert_eq!(value, 0.0);
}
