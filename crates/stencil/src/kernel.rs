//! Region-update drivers: apply a [`StencilOp`] to grid regions in all
//! the storage schemes the solvers need.
//!
//! The canonical Jacobi operand order — `(west + east + south + north +
//! bottom + top) * (1/6)` — is fixed in [`jacobi_row`]; every other
//! operator fixes its order in its `StencilOp::apply_row` impl. All
//! solvers funnel through the drivers here, which is what makes
//! cross-solver bitwise verification possible.
//!
//! Three drivers exist, one per storage scheme:
//!
//! * [`update_region_op`] — safe two-grid reference path,
//! * [`update_region_shared_op`] — [`SharedGrid`] path for the
//!   multi-threaded executors, with optional streaming stores,
//! * [`update_region_compressed_op`] — the single-allocation
//!   diagonally-shifted path of the compressed-grid scheme (§1.3).

use tb_grid::{Dims3, Grid3, Real, Region3, SharedGrid};

use crate::op::{Rows9, StencilOp};

/// Update one row segment of `n = dst.len()` cells with the classic
/// 6-point Jacobi average.
///
/// * `dst` — destination cells `x0..x1` of row `(y, z)`,
/// * `c` — source center row covering `x0-1 ..= x1` (length `n + 2`),
/// * `ym`/`yp` — source rows `(y∓1, z)` covering `x0..x1`,
/// * `zm`/`zp` — source rows `(y, z∓1)` covering `x0..x1`.
///
/// This is the **scalar oracle** form of Eq. 1. The paper's SIMD
/// requirement is met elsewhere: the region drivers below route row
/// updates through [`StencilOp::apply_row_simd`], whose operator impls
/// are built on the explicit fixed-width lane module
/// (`tb_grid::lanes`) — aligned lane-wide body plus scalar head/tail,
/// bitwise identical to this kernel. Wrapping an operator in
/// [`crate::op::ScalarPath`] pins execution back to this scalar path.
#[inline]
pub fn jacobi_row<T: Real>(dst: &mut [T], c: &[T], ym: &[T], yp: &[T], zm: &[T], zp: &[T]) {
    let n = dst.len();
    assert_eq!(c.len(), n + 2, "center row must cover x0-1..=x1");
    assert!(ym.len() == n && yp.len() == n && zm.len() == n && zp.len() == n);
    // Derived once per row; `1/6` of exact constants is the same bit
    // pattern everywhere, preserving cross-solver bitwise equality.
    let sixth = T::ONE / T::from_f64(6.0);
    for i in 0..n {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * sixth;
    }
}

/// Non-temporal-store variant of [`jacobi_row`] for `f64` on x86-64.
///
/// The paper's baseline uses streaming stores to avoid the read-for-
/// ownership on the write stream, cutting the code balance from 24 to
/// 16 B/LUP. `_mm_stream_pd` requires 16-byte alignment, so a scalar head
/// runs until `dst` is aligned and a scalar tail mops up. On other
/// architectures this falls back to the plain kernel.
#[inline]
pub fn jacobi_row_nt_f64(
    dst: &mut [f64],
    c: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: slice lengths are checked inside; SSE2 is part of the
        // x86-64 baseline.
        unsafe { jacobi_row_nt_f64_sse2(dst, c, ym, yp, zm, zp) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        jacobi_row(dst, c, ym, yp, zm, zp);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn jacobi_row_nt_f64_sse2(
    dst: &mut [f64],
    c: &[f64],
    ym: &[f64],
    yp: &[f64],
    zm: &[f64],
    zp: &[f64],
) {
    use std::arch::x86_64::*;
    let n = dst.len();
    assert_eq!(c.len(), n + 2);
    assert!(ym.len() == n && yp.len() == n && zm.len() == n && zp.len() == n);

    let mut i = 0usize;
    // Scalar head until dst is 16-byte aligned.
    while i < n && !(dst.as_ptr().add(i) as usize).is_multiple_of(16) {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * (1.0 / 6.0);
        i += 1;
    }
    let sixth = _mm_set1_pd(1.0 / 6.0);
    while i + 2 <= n {
        let w = _mm_loadu_pd(c.as_ptr().add(i));
        let e = _mm_loadu_pd(c.as_ptr().add(i + 2));
        let s = _mm_loadu_pd(ym.as_ptr().add(i));
        let nn = _mm_loadu_pd(yp.as_ptr().add(i));
        let b = _mm_loadu_pd(zm.as_ptr().add(i));
        let t = _mm_loadu_pd(zp.as_ptr().add(i));
        // Fixed association: ((((w+e)+s)+n)+b)+t — identical to the scalar
        // kernel's left-to-right sum, so results stay bitwise equal.
        let sum = _mm_add_pd(
            _mm_add_pd(_mm_add_pd(_mm_add_pd(_mm_add_pd(w, e), s), nn), b),
            t,
        );
        _mm_stream_pd(dst.as_mut_ptr().add(i), _mm_mul_pd(sum, sixth));
        i += 2;
    }
    while i < n {
        dst[i] = (c[i] + c[i + 2] + ym[i] + yp[i] + zm[i] + zp[i]) * (1.0 / 6.0);
        i += 1;
    }
    _mm_sfence();
}

/// Storage behaviour for the write stream of baseline sweeps.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum StoreMode {
    /// Plain stores (cache-allocating; incurs read-for-ownership).
    #[default]
    Normal,
    /// Non-temporal stores where the operator provides them (classic
    /// Jacobi on x86-64 `f64`; elsewhere falls back to plain stores).
    Streaming,
}

/// Apply one sweep of `op` to `region`, reading `src` and writing `dst`.
///
/// `region` must lie within the interior of the grids (every cell needs
/// its full radius-1 neighborhood). This is the safe reference
/// implementation that all concurrent executors are verified against.
pub fn update_region_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: &Grid3<T>,
    dst: &mut Grid3<T>,
    region: &Region3,
) {
    let dims = src.dims();
    assert_eq!(dims, dst.dims());
    assert!(
        Region3::interior_of(dims).contains_region(region),
        "region {region} not interior to {dims}"
    );
    if region.is_empty() {
        return;
    }
    let (x0, x1) = (region.lo[0], region.hi[0]);
    for z in region.lo[2]..region.hi[2] {
        for y in region.lo[1]..region.hi[1] {
            let rows = Rows9::from_grid(src, x0, x1, y, z);
            let d = &mut dst.row_mut(y, z)[x0..x1];
            op.apply_row_simd(d, &rows, x0, y, z);
        }
    }
}

/// Lazy row table for updating physical cells `[x0, x1)` of row `(y, z)`
/// through a shared view.
///
/// # Safety
/// Caller guarantees that every row the operator materializes (all nine
/// for corner-reading operators, the cross otherwise — see
/// [`StencilOp::READS_CORNERS`]) is in bounds, initialized, and neither
/// concurrently written nor overlapping the destination slice for the
/// lifetime of the returned table.
unsafe fn rows9_shared<T: Real>(
    g: &SharedGrid<T>,
    x0: usize,
    x1: usize,
    y: usize,
    z: usize,
) -> Rows9<'_, T> {
    let len = x1 - x0 + 2;
    let p =
        |dy: i64, dz: i64| g.row_ptr(x0 - 1, (y as i64 + dy) as usize, (z as i64 + dz) as usize);
    Rows9::from_raw(
        [
            [p(-1, -1), p(0, -1), p(1, -1)],
            [p(-1, 0), p(0, 0), p(1, 0)],
            [p(-1, 1), p(0, 1), p(1, 1)],
        ],
        len,
    )
}

/// Concurrent-executor version of [`update_region_op`] over shared views.
///
/// # Safety
/// Caller must guarantee that, for the duration of the call, no other
/// thread writes any cell of `region.expand(1)` in `src` nor reads/writes
/// any cell of `region` in `dst` (the pipeline plan's disjointness
/// invariant).
pub unsafe fn update_region_shared_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    src: &SharedGrid<T>,
    dst: &SharedGrid<T>,
    region: &Region3,
    store: StoreMode,
) {
    let dims = src.dims();
    debug_assert_eq!(dims, dst.dims());
    debug_assert!(Region3::interior_of(dims).contains_region(region));
    if region.is_empty() {
        return;
    }
    let (x0, x1) = (region.lo[0], region.hi[0]);
    for z in region.lo[2]..region.hi[2] {
        for y in region.lo[1]..region.hi[1] {
            let rows = rows9_shared(src, x0, x1, y, z);
            let d = dst.row_mut(x0, x1, y, z);
            match store {
                StoreMode::Normal => op.apply_row_simd(d, &rows, x0, y, z),
                StoreMode::Streaming => op.apply_row_streaming(d, &rows, x0, y, z),
            }
        }
    }
}

/// Compressed-grid stage kernel: stencil-update the interior cells of
/// `region` and *copy* its boundary cells, reading the frame displaced by
/// `src_off` and writing the frame displaced by `dst_off` of one shared
/// allocation.
///
/// * `op` — the stencil operator,
/// * `view` — the compressed grid's physical allocation,
/// * `logical` — extents of the logical domain (incl. Dirichlet layer),
/// * `region` — logical cells to produce, possibly including boundary
///   cells (the "shell" the executor assigns to this stage),
/// * `src_off`/`dst_off` — physical frame offsets (`physical = logical +
///   off`; the caller folds margin + displacement into them),
/// * `descending` — row iteration order. In-place safety requires
///   ascending rows when the frame moves down (`dst_off = src_off - 1`)
///   and descending rows when it moves up (`dst_off = src_off + 1`).
///
/// For cross-shaped operators the x order within a row never matters
/// because the diagonal shift moves writes onto different `(y, z)` lines.
/// Corner-reading operators ([`StencilOp::READS_CORNERS`]) *do* have one
/// source row coinciding with the write row — for those, the nine source
/// rows are staged through a scratch buffer before any write, which keeps
/// the result exact and the borrows disjoint.
///
/// # Safety
/// The physical source cells `region.expand(1) + src_off` must not be
/// concurrently written, and the physical destination cells `region +
/// dst_off` must not be concurrently accessed at all. The compressed
/// pipeline plan guarantees both (see `pipeline::plan`).
#[allow(clippy::too_many_arguments)]
pub unsafe fn update_region_compressed_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    view: &SharedGrid<T>,
    logical: Dims3,
    region: &Region3,
    src_off: usize,
    dst_off: usize,
    descending: bool,
) {
    if region.is_empty() {
        return;
    }
    debug_assert!(
        (dst_off + 1 == src_off && !descending) || (dst_off == src_off + 1 && descending),
        "iteration order must match shift direction"
    );
    let (x0, x1) = (region.lo[0], region.hi[0]);
    let interior = Region3::interior_of(logical);
    // Scratch for the corner-reading path: nine rows of the widest
    // possible segment, staged before the (aliasing) write.
    let mut scratch: Vec<T> = if Op::READS_CORNERS {
        vec![T::ZERO; 9 * (region.extent(0) + 2)]
    } else {
        Vec::new()
    };
    let zs: Vec<usize> = if descending {
        (region.lo[2]..region.hi[2]).rev().collect()
    } else {
        (region.lo[2]..region.hi[2]).collect()
    };
    let ys: Vec<usize> = if descending {
        (region.lo[1]..region.hi[1]).rev().collect()
    } else {
        (region.lo[1]..region.hi[1]).collect()
    };
    for &z in &zs {
        for &y in &ys {
            let row_is_boundary = y == 0 || z == 0 || y + 1 == logical.ny || z + 1 == logical.nz;
            if row_is_boundary {
                // Pure copy of the whole segment.
                copy_row(view, x0, x1, y, z, src_off, dst_off);
                continue;
            }
            // Boundary cells at the x ends are copied, the rest is the
            // stencil segment xs..xe.
            let lead = x0 == 0;
            let trail = x1 == logical.nx;
            let xs = if lead { 1 } else { x0 };
            let xe = if trail { logical.nx - 1 } else { x1 };
            let has_stencil = xs < xe;
            // Corner-reading operators: stage all nine source rows
            // *before any write to this row's destination line* — one
            // corner source row shares that physical line, and even the
            // x-end boundary copies below land inside its x-range.
            let len = xe.saturating_sub(xs) + 2;
            if has_stencil && Op::READS_CORNERS {
                for dz in 0..3usize {
                    for dy in 0..3usize {
                        let s = view.row(
                            xs - 1 + src_off,
                            xe + 1 + src_off,
                            y + dy - 1 + src_off,
                            z + dz - 1 + src_off,
                        );
                        let k = dz * 3 + dy;
                        scratch[k * len..(k + 1) * len].copy_from_slice(s);
                    }
                }
            }
            if lead {
                copy_row(view, 0, 1, y, z, src_off, dst_off);
            }
            if trail {
                copy_row(view, logical.nx - 1, logical.nx, y, z, src_off, dst_off);
            }
            if !has_stencil {
                continue;
            }
            debug_assert!(interior.contains(xs, y, z) && interior.contains(xe - 1, y, z));
            if Op::READS_CORNERS {
                let segs: [&[T]; 9] = std::array::from_fn(|k| &scratch[k * len..(k + 1) * len]);
                let rows = Rows9::from_slices([
                    [segs[0], segs[1], segs[2]],
                    [segs[3], segs[4], segs[5]],
                    [segs[6], segs[7], segs[8]],
                ]);
                let d = view.row_mut(xs + dst_off, xe + dst_off, y + dst_off, z + dst_off);
                op.apply_row_simd(d, &rows, xs, y, z);
            } else {
                let rows = rows9_shared(view, xs + src_off, xe + src_off, y + src_off, z + src_off);
                let d = view.row_mut(xs + dst_off, xe + dst_off, y + dst_off, z + dst_off);
                op.apply_row_simd(d, &rows, xs, y, z);
            }
        }
    }
}

/// Copy logical cells `[x0, x1) x {y} x {z}` from frame `src_off` to frame
/// `dst_off`.
///
/// # Safety
/// Same aliasing requirements as [`update_region_compressed_op`]. Source
/// and destination rows never overlap because the frames differ by exactly
/// one in every coordinate (diagonal displacement), which moves the row to
/// a different `(y, z)` line.
unsafe fn copy_row<T: Real>(
    view: &SharedGrid<T>,
    x0: usize,
    x1: usize,
    y: usize,
    z: usize,
    src_off: usize,
    dst_off: usize,
) {
    debug_assert_ne!(src_off, dst_off);
    let s = view.row(x0 + src_off, x1 + src_off, y + src_off, z + src_off);
    let d = view.row_mut(x0 + dst_off, x1 + dst_off, y + dst_off, z + dst_off);
    d.copy_from_slice(s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{Avg27, Jacobi6, VarCoeff7};
    use tb_grid::init;

    fn reference_cell(src: &Grid3<f64>, x: usize, y: usize, z: usize) -> f64 {
        (src.get(x - 1, y, z)
            + src.get(x + 1, y, z)
            + src.get(x, y - 1, z)
            + src.get(x, y + 1, z)
            + src.get(x, y, z - 1)
            + src.get(x, y, z + 1))
            * (1.0 / 6.0)
    }

    #[test]
    fn row_kernel_matches_pointwise_formula() {
        let dims = Dims3::new(8, 5, 5);
        let src: Grid3<f64> = init::random(dims, 11);
        let mut dst: Grid3<f64> = Grid3::zeroed(dims);
        let region = Region3::interior_of(dims);
        update_region_op(&Jacobi6, &src, &mut dst, &region);
        for (x, y, z) in region.iter() {
            assert_eq!(
                dst.get(x, y, z),
                reference_cell(&src, x, y, z),
                "at ({x},{y},{z})"
            );
        }
    }

    #[test]
    fn update_region_leaves_outside_untouched() {
        let dims = Dims3::cube(6);
        let src: Grid3<f64> = init::random(dims, 3);
        let mut dst: Grid3<f64> = Grid3::filled(dims, -1.0);
        let region = Region3::new([2, 2, 2], [4, 4, 4]);
        update_region_op(&Jacobi6, &src, &mut dst, &region);
        assert_eq!(dst.get(1, 1, 1), -1.0);
        assert_eq!(dst.get(4, 4, 4), -1.0);
        assert_ne!(dst.get(2, 2, 2), -1.0);
    }

    #[test]
    fn linear_field_is_fixed_point_to_rounding() {
        // Multiplying by 1/6 (inexact) instead of dividing by 6 leaves
        // ~1 ulp of slack, hence a tolerance here (bitwise determinism is
        // across solvers, not against the algebraic formula).
        let dims = Dims3::cube(7);
        let src: Grid3<f64> = init::linear(dims, 1.0, 2.0, -0.5, 3.0);
        let mut dst = src.clone();
        update_region_op(&Jacobi6, &src, &mut dst, &Region3::interior_of(dims));
        let d = tb_grid::norm::max_abs_diff(&src, &dst, &Region3::interior_of(dims));
        assert!(d < 1e-12, "linear field drifted by {d}");
    }

    #[test]
    fn shared_version_is_bitwise_equal_to_safe_version() {
        let dims = Dims3::new(16, 9, 7);
        let src: Grid3<f64> = init::random(dims, 5);
        let mut dst_a: Grid3<f64> = Grid3::zeroed(dims);
        let region = Region3::interior_of(dims);
        update_region_op(&Jacobi6, &src, &mut dst_a, &region);

        let mut src_b = src.clone();
        let mut dst_b: Grid3<f64> = Grid3::zeroed(dims);
        let sv = SharedGrid::from_raw(src_b.as_mut_ptr(), dims);
        let dv = SharedGrid::from_raw(dst_b.as_mut_ptr(), dims);
        unsafe { update_region_shared_op(&Jacobi6, &sv, &dv, &region, StoreMode::Normal) };
        tb_grid::norm::assert_grids_identical(&dst_a, &dst_b, &region, "shared kernel");
    }

    #[test]
    fn shared_version_matches_safe_version_for_every_op() {
        let dims = Dims3::new(14, 9, 8);
        let src: Grid3<f64> = init::random(dims, 21);
        let region = Region3::interior_of(dims);

        fn check<Op: StencilOp<f64>>(op: &Op, src: &Grid3<f64>, region: &Region3) {
            let mut want: Grid3<f64> = Grid3::zeroed(src.dims());
            update_region_op(op, src, &mut want, region);

            let mut src_b = src.clone();
            let mut got: Grid3<f64> = Grid3::zeroed(src.dims());
            let sv = SharedGrid::from_raw(src_b.as_mut_ptr(), src.dims());
            let dv = SharedGrid::from_raw(got.as_mut_ptr(), src.dims());
            for store in [StoreMode::Normal, StoreMode::Streaming] {
                unsafe { update_region_shared_op(op, &sv, &dv, region, store) };
                tb_grid::norm::assert_grids_identical(
                    &want,
                    &got,
                    region,
                    &format!("{} shared {store:?}", op.name()),
                );
            }
        }
        check(&Jacobi6, &src, &region);
        check(&crate::op::Jacobi7::heat(0.05), &src, &region);
        check(&VarCoeff7::banded(dims), &src, &region);
        check(&Avg27, &src, &region);
    }

    #[test]
    fn nt_store_row_is_bitwise_equal_to_plain_row() {
        let n = 37; // odd length to exercise head/tail handling
        let c: Vec<f64> = (0..n + 2).map(|i| (i as f64).sin()).collect();
        let ym: Vec<f64> = (0..n).map(|i| (i as f64).cos()).collect();
        let yp: Vec<f64> = (0..n).map(|i| (i as f64 * 0.5).sin()).collect();
        let zm: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).cos()).collect();
        let zp: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut d1 = vec![0.0; n];
        let mut d2 = vec![0.0; n];
        jacobi_row(&mut d1, &c, &ym, &yp, &zm, &zp);
        jacobi_row_nt_f64(&mut d2, &c, &ym, &yp, &zm, &zp);
        assert_eq!(d1, d2);
    }

    #[test]
    fn compressed_kernel_matches_two_grid_kernel() {
        // One full sweep through the compressed path (shift -1) must equal
        // the plain sweep.
        let dims = Dims3::cube(8);
        let initial: Grid3<f64> = init::random(dims, 9);
        // Plain reference.
        let mut ref_dst = initial.clone();
        update_region_op(
            &Jacobi6,
            &initial,
            &mut ref_dst,
            &Region3::interior_of(dims),
        );

        // Compressed: margin 1, one stage. src frame disp 0 => offset
        // margin + 0 = 1; dst frame disp -1 => offset 0.
        let mut cg = tb_grid::CompressedGrid::from_grid(&initial, 1);
        let view = cg.shared();
        let whole = Region3::whole(dims);
        unsafe { update_region_compressed_op(&Jacobi6, &view, dims, &whole, 1, 0, false) };
        cg.set_displacement(-1);
        let got = cg.to_grid();
        tb_grid::norm::assert_grids_identical(
            &ref_dst,
            &got,
            &Region3::whole(dims),
            "compressed sweep",
        );
    }

    #[test]
    fn compressed_down_then_up_matches_two_plain_sweeps_per_op() {
        fn check<Op: StencilOp<f64>>(op: &Op, dims: Dims3) {
            let initial: Grid3<f64> = init::random(dims, 21);
            // Reference: two out-of-place sweeps.
            let a = initial.clone();
            let mut b = initial.clone();
            update_region_op(op, &a, &mut b, &Region3::interior_of(dims));
            let mut c = b.clone();
            update_region_op(op, &b, &mut c, &Region3::interior_of(dims));

            let mut cg = tb_grid::CompressedGrid::from_grid(&initial, 1);
            let view = cg.shared();
            let whole = Region3::whole(dims);
            // Down sweep: frame 0 -> frame -1 (offsets 1 -> 0), ascending.
            unsafe { update_region_compressed_op(op, &view, dims, &whole, 1, 0, false) };
            // Up sweep: frame -1 -> frame 0 (offsets 0 -> 1), descending.
            unsafe { update_region_compressed_op(op, &view, dims, &whole, 0, 1, true) };
            cg.set_displacement(0);
            let got = cg.to_grid();
            tb_grid::norm::assert_grids_identical(
                &c,
                &got,
                &Region3::whole(dims),
                &format!("{} down+up", op.name()),
            );
        }
        let dims = Dims3::cube(7);
        check(&Jacobi6, dims);
        check(&crate::op::Jacobi7::heat(0.08), dims);
        check(&VarCoeff7::banded(dims), dims);
        check(&Avg27, dims); // exercises the corner scratch path
    }

    #[test]
    #[should_panic(expected = "not interior")]
    fn update_region_rejects_boundary_region() {
        let dims = Dims3::cube(5);
        let src: Grid3<f64> = Grid3::zeroed(dims);
        let mut dst: Grid3<f64> = Grid3::zeroed(dims);
        update_region_op(&Jacobi6, &src, &mut dst, &Region3::whole(dims));
    }
}
