//! Convergence diagnostics, generic over the stencil operator.
//!
//! The solvers themselves never look at values (they run a fixed sweep
//! count, like the paper's benchmarks); applications iterating to
//! convergence need a residual. The natural operator-agnostic one is the
//! *defect* `r(c) = Op(c) − c`: its magnitude at a cell is exactly the
//! change the next sweep would apply there, so `max_residual_op → 0`
//! certifies a fixed point of the iteration regardless of the operator.

use tb_grid::{Grid3, Real, Region3};

use crate::op::{Rows9, StencilOp};

/// Apply `op` row-wise over the interior and fold `f` over
/// `(next_value, current_value)` pairs.
fn fold_defect<T: Real, Op: StencilOp<T>>(g: &Grid3<T>, op: &Op, mut f: impl FnMut(f64, f64)) {
    let dims = g.dims();
    let interior = Region3::interior_of(dims);
    if interior.is_empty() {
        return;
    }
    let (x0, x1) = (interior.lo[0], interior.hi[0]);
    let mut next = vec![T::ZERO; x1 - x0];
    for z in interior.lo[2]..interior.hi[2] {
        for y in interior.lo[1]..interior.hi[1] {
            let rows = Rows9::from_grid(g, x0, x1, y, z);
            op.apply_row_simd(&mut next, &rows, x0, y, z);
            let cur = &g.row(y, z)[x0..x1];
            for (n, c) in next.iter().zip(cur) {
                f(n.to_f64(), c.to_f64());
            }
        }
    }
}

/// Maximum |defect| over the interior (∞-norm of the next update step).
pub fn max_residual_op<T: Real, Op: StencilOp<T>>(g: &Grid3<T>, op: &Op) -> f64 {
    let mut worst = 0.0f64;
    fold_defect(g, op, |n, c| {
        let d = (n - c).abs();
        if d > worst {
            worst = d;
        }
    });
    worst
}

/// L2 norm of the defect over the interior.
pub fn l2_residual_op<T: Real, Op: StencilOp<T>>(g: &Grid3<T>, op: &Op) -> f64 {
    let mut acc = 0.0f64;
    fold_defect(g, op, |n, c| {
        let d = n - c;
        acc += d * d;
    });
    acc.sqrt()
}

/// Iterate `step` (a closure advancing the grid by `chunk` sweeps of the
/// same operator) until the max-residual drops below `tol` or
/// `max_sweeps` is reached. Returns (sweeps executed, final residual,
/// residual history).
pub fn iterate_to_tolerance_op<T: Real, Op: StencilOp<T>>(
    grid: &mut Grid3<T>,
    op: &Op,
    chunk: usize,
    tol: f64,
    max_sweeps: usize,
    mut step: impl FnMut(Grid3<T>, usize) -> Grid3<T>,
) -> (usize, f64, Vec<f64>) {
    assert!(chunk >= 1);
    let mut done = 0usize;
    let mut history = Vec::new();
    let mut res = max_residual_op(grid, op);
    history.push(res);
    while res > tol && done < max_sweeps {
        let n = chunk.min(max_sweeps - done);
        let g = std::mem::replace(grid, Grid3::zeroed(grid.dims()));
        *grid = step(g, n);
        done += n;
        res = max_residual_op(grid, op);
        history.push(res);
    }
    (done, res, history)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline;
    use crate::op::{Avg27, Jacobi6, Jacobi7};
    use tb_grid::{init, Dims3, GridPair};

    #[test]
    fn linear_fields_have_tiny_residual() {
        let g: Grid3<f64> = init::linear(Dims3::cube(12), 1.0, -2.0, 0.5, 4.0);
        assert!(max_residual_op(&g, &Jacobi6) < 1e-12);
        assert!(l2_residual_op(&g, &Jacobi6) < 1e-10);
        // Linear fields are fixed points of the 27-point average too.
        assert!(max_residual_op(&g, &Avg27) < 1e-12);
    }

    #[test]
    fn residual_decreases_under_sweeps() {
        let dims = Dims3::cube(14);
        let mut pair = GridPair::from_initial(init::hot_plate::<f64>(dims, 1.0, 0.0));
        let r0 = max_residual_op(pair.current(0), &Jacobi6);
        baseline::seq_sweeps_op(&Jacobi6, &mut pair, 30);
        let r30 = max_residual_op(pair.current(30), &Jacobi6);
        assert!(r30 < r0, "{r30} !< {r0}");
        assert!(r30 < 0.5 * r0);
    }

    #[test]
    fn max_residual_equals_next_step_change() {
        // The defect IS the next update, so after one sweep the max
        // change equals the previous residual — for any operator.
        fn check<Op: StencilOp<f64>>(op: &Op) {
            let dims = Dims3::cube(10);
            let initial = init::random::<f64>(dims, 3);
            let r = max_residual_op(&initial, op);
            let mut pair = GridPair::from_initial(initial.clone());
            baseline::seq_sweeps_op(op, &mut pair, 1);
            let change =
                tb_grid::norm::max_abs_diff(&initial, pair.current(1), &Region3::interior_of(dims));
            assert!((r - change).abs() < 1e-12, "{}: {r} vs {change}", op.name());
        }
        check(&Jacobi6);
        check(&Jacobi7::heat(0.12));
        check(&Avg27);
    }

    #[test]
    fn iterate_to_tolerance_stops() {
        let dims = Dims3::cube(10);
        let mut g = init::hot_plate::<f64>(dims, 1.0, 0.0);
        let (sweeps, res, history) =
            iterate_to_tolerance_op(&mut g, &Jacobi6, 5, 1e-4, 500, |g, n| {
                let mut pair = GridPair::from_initial(g);
                baseline::seq_sweeps_op(&Jacobi6, &mut pair, n);
                pair.into_current(n)
            });
        assert!(res <= 1e-4, "residual {res}");
        assert!(sweeps <= 500);
        assert!(history.len() >= 2);
        assert!(history.windows(2).filter(|w| w[1] <= w[0]).count() >= history.len() / 2);
    }

    #[test]
    fn l2_dominates_max_over_cells() {
        let g = init::random::<f64>(Dims3::cube(10), 8);
        assert!(l2_residual_op(&g, &Jacobi6) >= max_residual_op(&g, &Jacobi6));
    }
}
