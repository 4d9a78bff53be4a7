//! The sparse elimination schedule against the dense reference:
//! [`SparseSymbolic::factor_solve`] replays the loops of dense
//! partial-pivoting elimination, so on diagonally dominant systems the
//! two must agree to the last bit.

use rcs_numeric::SparseSymbolic;
use rcs_testkit::Matrix;

/// Assembles the same system densely and sparsely and checks both
/// solvers agree bitwise (the schedule replays the dense loops).
fn cross_check(n: usize, edges: &[(usize, usize)], fill: impl Fn(usize, usize) -> f64) {
    let sym = SparseSymbolic::analyze(n, edges);
    let mut dense = Matrix::zeros(n, n);
    let mut values = vec![0.0; sym.nnz()];
    for r in 0..n {
        for c in 0..n {
            let v = fill(r, c);
            if v != 0.0 {
                dense[(r, c)] = v;
                values[sym
                    .index_of(r, c)
                    .expect("assembled entry must be structural")] = v;
            }
        }
    }
    let rhs_src: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.25).collect();
    let want = dense.solve(&rhs_src).unwrap();
    let mut rhs = rhs_src.clone();
    sym.factor_solve(&mut values, &mut rhs).unwrap();
    for (i, (got, want)) in rhs.iter().zip(&want).enumerate() {
        assert_eq!(got, want, "component {i}: sparse {got} vs dense {want}");
    }
}

#[test]
fn path_graph_laplacian_matches_dense_bitwise() {
    let edges: Vec<(usize, usize)> = (0..7).map(|i| (i, i + 1)).collect();
    cross_check(8, &edges, |r, c| {
        if r == c {
            2.5 + r as f64 * 0.125
        } else if r.abs_diff(c) == 1 {
            -1.0
        } else {
            0.0
        }
    });
}

#[test]
fn star_graph_produces_fill_and_matches_dense() {
    // Hub node 0 connected to every leaf: eliminating the hub first
    // links all leaves pairwise — maximal fill-in, worst case for
    // the natural ordering. Correctness must not depend on fill.
    let n = 6;
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (0, i)).collect();
    let sym = SparseSymbolic::analyze(n, &edges);
    // hub elimination fills the leaf block densely
    assert_eq!(sym.nnz(), n * n);
    cross_check(n, &edges, |r, c| {
        if r == c {
            (n as f64) + 0.5
        } else if r == 0 || c == 0 {
            -1.0
        } else {
            0.0
        }
    });
}

#[test]
fn manifold_pattern_matches_dense() {
    // Supply/return manifold with parallel loops — the hydraulic
    // solver's actual shape: two hub nodes, many two-degree loops.
    let loops = 9;
    let n = 2 + loops;
    let mut edges = vec![(0, 1)];
    for i in 0..loops {
        edges.push((0, 2 + i));
        edges.push((2 + i, 1));
    }
    cross_check(n, &edges, |r, c| {
        if r == c {
            12.0 + r as f64
        } else if edges.contains(&(r, c)) || edges.contains(&(c, r)) {
            -1.5 - (r + c) as f64 * 0.0625
        } else {
            0.0
        }
    });
}
