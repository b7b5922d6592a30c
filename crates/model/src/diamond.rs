//! In-cache working-set and memory-traffic estimate for wavefront-
//! diamond temporal blocking, alongside the paper's Eq. 4 pipeline
//! model.
//!
//! A diamond of width `w` (stencil radius `R`) updates `w²/(4R²)·2R =
//! w²/(2R)` z-planes worth of cells while spanning `w` distinct planes
//! of `z`, so each memory traversal of the grid performs
//!
//! ```text
//! u(w) = w / (2R)
//! ```
//!
//! sweeps — the diamond analogue of the pipeline's `t·T` updates per
//! traversal, but achieved without wind-up/wind-down waste and
//! controlled by the single width parameter. The Eq. 4 cost structure
//! carries over: the first update of a tile streams its planes from
//! memory at the operator's streaming code balance, every further
//! update moves one load + one store (plus the operator's extra read
//! streams) through the shared cache. That structure holds while the
//! tile's planes stay cached, i.e. while the **working set**
//!
//! ```text
//! W(w) = (2 + EXTRA_READ_STREAMS) · (w + 2R) · nx · ny · bytes
//! ```
//!
//! (both grid buffers over the widest slab plus its read halo, and the
//! coefficient grid if the operator reads one) fits the shared cache.
//! [`max_cached_width`] inverts that bound — the width autotuning and
//! the `diamond_sweep` bench use it as the starting point.

use tb_grid::Real;
use tb_stencil::kernel::StoreMode;
use tb_stencil::StencilOp;

use crate::machine::MachineParams;

/// Sweeps one memory traversal performs at diamond width `w`:
/// `u = w / (2R)`. The diamond analogue of the pipeline's `t·T`.
pub fn diamond_reuse(width: usize, radius: usize) -> f64 {
    assert!(radius >= 1 && width >= 2 * radius);
    width as f64 / (2.0 * radius as f64)
}

/// In-cache working set of one active diamond tile, in bytes: both
/// grid buffers over the widest slab plus its `R`-deep read halo
/// (`w + 2R` planes of `nx·ny` cells), plus the operator's extra read
/// streams (e.g. a coefficient grid) over the same planes. Each worker
/// of a team holds one such tile live.
pub fn diamond_working_set_bytes<T: Real, Op: StencilOp<T>>(
    op: &Op,
    nx: usize,
    ny: usize,
    width: usize,
) -> usize {
    let radius = Op::RADIUS;
    assert!(radius >= 1 && width >= 2 * radius);
    let planes = width + 2 * radius;
    (op.bytes_per_lup(StoreMode::Streaming) * (planes * nx * ny) as f64) as usize
}

/// Largest diamond width whose per-tile working set (times the team
/// size, one live tile per worker) fits the machine's shared cache;
/// never below the legal minimum `2R`.
pub fn max_cached_width<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    nx: usize,
    ny: usize,
    team: usize,
) -> usize {
    let radius = Op::RADIUS;
    let plane = (op.bytes_per_lup(StoreMode::Streaming) * (nx * ny) as f64) as usize;
    let team = team.max(1);
    if plane == 0 {
        return 2 * radius;
    }
    let planes = machine.cache_bytes / (plane * team);
    planes.saturating_sub(2 * radius).max(2 * radius)
}

/// Number of tiles a team holds live at once under MWD: with
/// `threads_per_tile` lanes cooperating on each tile, only
/// `⌈team / threads_per_tile⌉` tile working sets compete for the shared
/// cache. This is the whole point of Malas et al.'s multi-dimensional
/// intra-tile parallelization — the per-tile working set
/// ([`diamond_working_set_bytes`]) is **unchanged** (lanes partition
/// the same planes, they do not add any), the *count* of concurrent
/// working sets shrinks.
pub fn concurrent_tiles(team: usize, threads_per_tile: usize) -> usize {
    let team = team.max(1);
    let tpt = threads_per_tile.max(1).min(team);
    team.div_ceil(tpt)
}

/// [`max_cached_width`] under MWD: the shared cache is split between
/// [`concurrent_tiles`] live tiles instead of one per worker, so larger
/// sub-teams afford wider (higher-reuse) diamonds at equal cache
/// pressure. `threads_per_tile = 1` reduces to [`max_cached_width`].
///
/// Note what the lane count of the SIMD row kernels does *not* do here:
/// vectorization raises the in-cache compute ceiling but moves no extra
/// bytes, so it enters neither the working set nor the code balance —
/// see the module docs of `tb-model`.
pub fn max_cached_width_mwd<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    nx: usize,
    ny: usize,
    team: usize,
    threads_per_tile: usize,
) -> usize {
    max_cached_width::<T, Op>(
        machine,
        op,
        nx,
        ny,
        concurrent_tiles(team, threads_per_tile),
    )
}

/// Eq. 4 transplanted to diamond tiles: wall time (seconds per lattice
/// site × `u`) for the `u = w/(2R)` updates a tile performs per memory
/// traversal. First update streams from memory, the rest hit the
/// shared cache — valid while [`diamond_working_set_bytes`] fits.
pub fn diamond_block_time_op<T: Real, Op: StencilOp<T>>(
    machine: &MachineParams,
    op: &Op,
    width: usize,
) -> f64 {
    let u = diamond_reuse(width, Op::RADIUS);
    // Memory and cache both move the streaming code balance per update.
    let bytes = op.bytes_per_lup(StoreMode::Streaming);
    bytes / machine.ms1 + (u - 1.0) * bytes / machine.mc
}

/// Expected speedup of diamond blocking over the standard solver — the
/// Eq. 5 form with `t·T` replaced by the diamond reuse `w/(2R)`:
///
/// `T_0/T_d = (M_{s,1}/M_s) · u / (1 + (u−1)·M_{s,1}/M_c)`
pub fn diamond_speedup(machine: &MachineParams, width: usize, radius: usize) -> f64 {
    let u = diamond_reuse(width, radius);
    let r = machine.ms1 / machine.mc;
    (machine.ms1 / machine.ms) * u / (1.0 + (u - 1.0) * r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::pipeline_speedup;
    use tb_stencil::{Jacobi6, VarCoeff7};

    #[test]
    fn reuse_counts_sweeps_per_traversal() {
        assert_eq!(diamond_reuse(2, 1), 1.0); // minimal width: no reuse
        assert_eq!(diamond_reuse(8, 1), 4.0);
        assert_eq!(diamond_reuse(8, 2), 2.0);
    }

    #[test]
    fn speedup_matches_pipeline_model_at_equal_reuse() {
        // Same cost structure ⟹ same predicted speedup when the
        // diamond reuse u equals the pipeline depth t·T.
        let m = MachineParams::nehalem_ep();
        for (t, upd) in [(1usize, 1usize), (4, 1), (4, 2), (2, 8)] {
            let width = 2 * t * upd; // u = w/2 = t·T at radius 1
            let d = diamond_speedup(&m, width, 1);
            let p = pipeline_speedup(&m, t, upd);
            assert!((d - p).abs() < 1e-12, "w={width}: {d} vs {p}");
        }
    }

    #[test]
    fn minimal_width_gains_nothing() {
        let m = MachineParams::nehalem_ep();
        let s = diamond_speedup(&m, 2, 1);
        assert!((s - m.ms1 / m.ms).abs() < 1e-12, "u = 1 is a plain sweep");
    }

    #[test]
    fn limit_is_mc_over_ms() {
        let m = MachineParams::nehalem_ep();
        let s = diamond_speedup(&m, 1 << 20, 1);
        assert!((s - m.max_speedup()).abs() / m.max_speedup() < 1e-3);
    }

    #[test]
    fn block_time_monotone_in_width() {
        let m = MachineParams::nehalem_ep();
        let t4: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 4);
        let t8: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 8);
        assert!(t8 > t4, "more in-cache updates per traversal cost time");
        // Width 2 (u = 1) is exactly the streaming memory fetch.
        let base: f64 = diamond_block_time_op::<f64, _>(&m, &Jacobi6, 2);
        assert!((base - 16.0 / m.ms1).abs() < 1e-18);
    }

    #[test]
    fn working_set_scales_with_width_and_streams() {
        let j = Jacobi6;
        let w8 = diamond_working_set_bytes::<f64, _>(&j, 100, 100, 8);
        assert_eq!(w8, 2 * (8 + 2) * 100 * 100 * 8);
        let w16 = diamond_working_set_bytes::<f64, _>(&j, 100, 100, 16);
        assert!(w16 > w8);
        // The coefficient grid adds one stream over the same planes.
        let v: VarCoeff7<f64> = VarCoeff7::banded(tb_grid::Dims3::cube(8));
        let wv = diamond_working_set_bytes::<f64, _>(&v, 100, 100, 8);
        assert_eq!(wv, 3 * (8 + 2) * 100 * 100 * 8);
    }

    #[test]
    fn max_cached_width_inverts_the_working_set() {
        let m = MachineParams::nehalem_ep();
        let w = max_cached_width::<f64, _>(&m, &Jacobi6, 100, 100, 1);
        assert!(w >= 2);
        assert!(diamond_working_set_bytes::<f64, _>(&Jacobi6, 100, 100, w) <= m.cache_bytes);
        // A team splits the cache; huge planes degrade to the minimum.
        let w4 = max_cached_width::<f64, _>(&m, &Jacobi6, 100, 100, 4);
        assert!(w4 <= w);
        let tiny = max_cached_width::<f64, _>(&m, &Jacobi6, 4000, 4000, 4);
        assert_eq!(tiny, 2);
    }

    #[test]
    fn mwd_shrinks_concurrent_tiles_not_the_working_set() {
        assert_eq!(concurrent_tiles(8, 1), 8);
        assert_eq!(concurrent_tiles(8, 2), 4);
        assert_eq!(concurrent_tiles(8, 8), 1);
        assert_eq!(concurrent_tiles(6, 4), 2); // non-divisor rounds up
        assert_eq!(concurrent_tiles(0, 0), 1); // degenerate clamps
                                               // Full-team tiles see the whole cache: same width as team = 1.
        let m = MachineParams::nehalem_ep();
        let solo = max_cached_width::<f64, _>(&m, &Jacobi6, 100, 100, 1);
        let mwd = max_cached_width_mwd::<f64, _>(&m, &Jacobi6, 100, 100, 8, 8);
        assert_eq!(mwd, solo);
        // Sub-teams interpolate monotonically between the extremes.
        let w1 = max_cached_width_mwd::<f64, _>(&m, &Jacobi6, 100, 100, 8, 1);
        let w2 = max_cached_width_mwd::<f64, _>(&m, &Jacobi6, 100, 100, 8, 2);
        assert_eq!(w1, max_cached_width::<f64, _>(&m, &Jacobi6, 100, 100, 8));
        assert!(w1 <= w2 && w2 <= mwd);
    }
}
