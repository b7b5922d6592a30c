//! Face pack/unpack between grids and message buffers.
//!
//! The paper's §2.2 profiling found that "copying halo data from
//! boundary cells to and from intermediate message buffers causes about
//! the same overhead as the actual data transfer" — these are those
//! copies. Values travel as native-endian `f64` (exact for `f32`
//! payloads too, since every `f32` is exactly representable).

use bytes::Bytes;
use tb_grid::{Grid3, Real, Region3};

/// Send/receive slab regions (global coordinates) for one stage of the
/// multi-layer ghost-cell-expansion exchange — **the** single place the
/// exchange geometry is defined; the solver derives `depth` from the
/// operator radius (`sweeps_per_cycle × Op::RADIUS`) and both pack and
/// unpack use the regions returned here.
///
/// * `owned` — the rank's disjointly owned box,
/// * `fence` — its stored box (owned + halo, clamped to the grid),
/// * `d`, `dir` — direction of this stage (`dir = ±1` selects the face),
/// * `depth` — ghost layers shipped this cycle.
///
/// Dimensions `< d` were already exchanged, so slabs extend into their
/// (filled) ghost layers; dimensions `> d` are owned-only. This
/// composition forwards previously received layers, which is what
/// delivers edge and corner data without diagonal messages. Adjacent
/// ranks share the perpendicular extents, so `send` of one rank is
/// exactly the `recv` of its neighbor.
pub fn exchange_regions(
    owned: &Region3,
    fence: &Region3,
    d: usize,
    dir: i64,
    depth: usize,
) -> (Region3, Region3) {
    debug_assert!(d < 3 && (dir == 1 || dir == -1) && depth >= 1);
    let mut lo = [0usize; 3];
    let mut hi = [0usize; 3];
    for e in 0..3 {
        if e < d {
            lo[e] = owned.lo[e].saturating_sub(depth).max(fence.lo[e]);
            hi[e] = (owned.hi[e] + depth).min(fence.hi[e]);
        } else {
            lo[e] = owned.lo[e];
            hi[e] = owned.hi[e];
        }
    }
    let mut send = Region3::new(lo, hi);
    let mut recv = send;
    if dir == 1 {
        send.lo[d] = owned.hi[d] - depth;
        send.hi[d] = owned.hi[d];
        recv.lo[d] = owned.hi[d];
        recv.hi[d] = owned.hi[d] + depth;
    } else {
        send.lo[d] = owned.lo[d];
        send.hi[d] = owned.lo[d] + depth;
        recv.lo[d] = owned.lo[d] - depth;
        recv.hi[d] = owned.lo[d];
    }
    (send, recv)
}

/// Copy the cells of `region` (x-fastest order) out of `g` into a
/// message buffer. One copy: cells serialize straight into the byte
/// buffer that becomes the message, which is sized up front and filled
/// row by row through fixed-width chunks (the mirror of
/// [`unpack_region`]), so the inner loop carries no capacity checks.
pub fn pack_region<T: Real>(g: &Grid3<T>, region: &Region3) -> Bytes {
    let r = region.intersect(&Region3::whole(g.dims()));
    if r.is_empty() {
        return Bytes::new();
    }
    let mut out = vec![0u8; r.count() * 8];
    let mut rows = out.chunks_exact_mut(r.extent(0) * 8);
    for z in r.lo[2]..r.hi[2] {
        for y in r.lo[1]..r.hi[1] {
            let dst = rows.next().expect("buffer sized to the region");
            for (cell, v) in dst.chunks_exact_mut(8).zip(&g.row(y, z)[r.lo[0]..r.hi[0]]) {
                cell.copy_from_slice(&v.to_f64().to_ne_bytes());
            }
        }
    }
    Bytes::from(out)
}

/// Inverse of [`pack_region`]: scatter a message buffer into the cells
/// of `region`.
///
/// # Panics
/// Panics if the payload length does not match `region.count()` — a
/// protocol error, not a recoverable condition.
pub fn unpack_region<T: Real>(g: &mut Grid3<T>, region: &Region3, payload: &Bytes) {
    let r = region.intersect(&Region3::whole(g.dims()));
    assert_eq!(payload.len(), r.count() * 8, "payload length mismatch");
    let mut chunks = payload.chunks_exact(8);
    for z in r.lo[2]..r.hi[2] {
        for y in r.lo[1]..r.hi[1] {
            for cell in &mut g.row_mut(y, z)[r.lo[0]..r.hi[0]] {
                let mut buf = [0u8; 8];
                buf.copy_from_slice(chunks.next().expect("length checked above"));
                *cell = T::from_f64(f64::from_ne_bytes(buf));
            }
        }
    }
}

/// Row-wise copy of `src_region` in `src` into `dst_region` in `dst` —
/// the no-serialization path for halos that never leave the process
/// (same-node team coupling, local carve/assemble).
///
/// # Panics
/// Panics if the two regions' extents differ.
pub fn copy_region<T: Real>(
    src: &Grid3<T>,
    src_region: &Region3,
    dst: &mut Grid3<T>,
    dst_region: &Region3,
) {
    let s = src_region;
    let d = dst_region;
    assert!(
        (0..3).all(|i| s.extent(i) == d.extent(i)),
        "region extents differ: {s} vs {d}"
    );
    for (sz, dz) in (s.lo[2]..s.hi[2]).zip(d.lo[2]..) {
        for (sy, dy) in (s.lo[1]..s.hi[1]).zip(d.lo[1]..) {
            let row = &src.row(sy, sz)[s.lo[0]..s.hi[0]];
            dst.row_mut(dy, dz)[d.lo[0]..d.hi[0]].copy_from_slice(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::{init, norm, Dims3};

    #[test]
    fn pack_unpack_roundtrip_bitwise() {
        let dims = Dims3::new(9, 7, 5);
        let src: Grid3<f64> = init::random(dims, 3);
        let mut dst: Grid3<f64> = Grid3::zeroed(dims);
        let r = Region3::new([2, 1, 1], [6, 6, 4]);
        let b = pack_region(&src, &r);
        assert_eq!(b.len(), r.count() * 8);
        unpack_region(&mut dst, &r, &b);
        assert_eq!(norm::count_mismatches(&src, &dst, &r), 0);
        // Cells outside the region stay untouched.
        assert_eq!(dst.get(0, 0, 0), 0.0);
        assert_eq!(dst.get(6, 6, 4), 0.0);
    }

    #[test]
    fn pack_layout_is_x_fastest_native_f64() {
        let dims = Dims3::new(7, 5, 4);
        let g: Grid3<f64> = init::random(dims, 11);
        let r = Region3::new([1, 2, 0], [6, 4, 3]);
        let mut want = Vec::new();
        for z in r.lo[2]..r.hi[2] {
            for y in r.lo[1]..r.hi[1] {
                for x in r.lo[0]..r.hi[0] {
                    want.extend_from_slice(&g.get(x, y, z).to_ne_bytes());
                }
            }
        }
        assert_eq!(&pack_region(&g, &r)[..], &want[..]);
        // Regions clamp to the grid; empty ones pack to nothing.
        let past = Region3::new([5, 3, 2], [9, 9, 9]);
        assert_eq!(pack_region(&g, &past).len(), 2 * 2 * 2 * 8);
        assert!(pack_region(&g, &Region3::new([2, 2, 2], [2, 4, 4])).is_empty());
    }

    #[test]
    fn f32_payloads_roundtrip_exactly() {
        let dims = Dims3::cube(6);
        let src: Grid3<f32> = init::random(dims, 9);
        let mut dst: Grid3<f32> = Grid3::zeroed(dims);
        let r = Region3::interior_of(dims);
        unpack_region(&mut dst, &r, &pack_region(&src, &r));
        assert_eq!(norm::count_mismatches(&src, &dst, &r), 0);
    }

    #[test]
    fn copy_region_translates_frames_bitwise() {
        let src: Grid3<f64> = init::random(Dims3::new(8, 7, 6), 4);
        let mut dst: Grid3<f64> = Grid3::zeroed(Dims3::new(10, 9, 8));
        let s = Region3::new([1, 2, 0], [5, 6, 3]);
        let d = Region3::new([4, 3, 5], [8, 7, 8]);
        copy_region(&src, &s, &mut dst, &d);
        for dz in 0..3 {
            for dy in 0..4 {
                for dx in 0..4 {
                    assert_eq!(dst.get(4 + dx, 3 + dy, 5 + dz), src.get(1 + dx, 2 + dy, dz));
                }
            }
        }
        // Outside the destination region nothing changed.
        assert_eq!(dst.get(0, 0, 0), 0.0);
        assert_eq!(dst.get(9, 8, 7), 0.0);
    }

    #[test]
    #[should_panic(expected = "region extents differ")]
    fn copy_region_rejects_mismatched_extents() {
        let src: Grid3<f64> = Grid3::zeroed(Dims3::cube(6));
        let mut dst: Grid3<f64> = Grid3::zeroed(Dims3::cube(6));
        copy_region(
            &src,
            &Region3::new([0, 0, 0], [2, 2, 2]),
            &mut dst,
            &Region3::new([0, 0, 0], [3, 2, 2]),
        );
    }

    #[test]
    fn exchange_regions_match_between_neighbors_multi_layer() {
        // Two ranks side by side along x on a 20×12×12 grid, radius-1
        // operator exchanging h = 3 layers: what A sends +x must be the
        // exact region B receives -x, and vice versa, for every stage.
        let h = 3;
        let owned_a = Region3::new([0, 0, 0], [10, 12, 12]);
        let owned_b = Region3::new([10, 0, 0], [20, 12, 12]);
        let fence_a = Region3::new([0, 0, 0], [13, 12, 12]);
        let fence_b = Region3::new([7, 0, 0], [20, 12, 12]);
        let (send_a, recv_a) = exchange_regions(&owned_a, &fence_a, 0, 1, h);
        let (send_b, recv_b) = exchange_regions(&owned_b, &fence_b, 0, -1, h);
        assert_eq!(send_a, recv_b, "A→B payload region");
        assert_eq!(send_b, recv_a, "B→A payload region");
        assert_eq!(send_a, Region3::new([7, 0, 0], [10, 12, 12]));
        assert_eq!(recv_a, Region3::new([10, 0, 0], [13, 12, 12]));
        assert_eq!(send_a.count(), 3 * 12 * 12);
    }

    #[test]
    fn exchange_regions_forward_ghosts_of_earlier_dims() {
        // Stage d=2 (z) slabs include the x and y ghost layers already
        // received — the ghost-cell-expansion composition that ships edge
        // and corner data without diagonal messages.
        let h = 2;
        let owned = Region3::new([4, 4, 4], [8, 8, 8]);
        let fence = Region3::new([2, 2, 2], [10, 10, 10]);
        let (send_z, recv_z) = exchange_regions(&owned, &fence, 2, 1, h);
        assert_eq!(send_z, Region3::new([2, 2, 6], [10, 10, 8]));
        assert_eq!(recv_z, Region3::new([2, 2, 8], [10, 10, 10]));
        // Stage d=0 (x) ships owned-only perpendicular extents.
        let (send_x, _) = exchange_regions(&owned, &fence, 0, -1, h);
        assert_eq!(send_x, Region3::new([4, 4, 4], [6, 8, 8]));
        // Ghost expansion clamps at the physical fence.
        let tight = Region3::new([3, 3, 3], [9, 9, 9]);
        let (send_c, _) = exchange_regions(&owned, &tight, 1, 1, h);
        assert_eq!(send_c.lo[0], 3, "x extent clamps to the stored box");
        assert_eq!(send_c.hi[0], 9);
    }

    #[test]
    #[should_panic(expected = "payload length mismatch")]
    fn wrong_payload_size_is_a_protocol_error() {
        let dims = Dims3::cube(5);
        let g: Grid3<f64> = Grid3::zeroed(dims);
        let b = pack_region(&g, &Region3::new([0, 0, 0], [2, 2, 2]));
        let mut dst = g.clone();
        unpack_region(&mut dst, &Region3::new([0, 0, 0], [3, 3, 3]), &b);
    }
}
