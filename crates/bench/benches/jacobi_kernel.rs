//! Microbenchmarks of the Jacobi row kernel (plain vs non-temporal
//! stores) and the region update used by every solver.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tb_grid::{init, Dims3, Grid3, Region3};
use tb_stencil::{kernel, Jacobi6};

fn bench_rows(c: &mut Criterion) {
    let mut g = c.benchmark_group("jacobi_row");
    for n in [128usize, 1024, 8192] {
        let cv: Vec<f64> = (0..n + 2).map(|i| i as f64 * 0.5).collect();
        let ym = vec![1.0f64; n];
        let yp = vec![2.0f64; n];
        let zm = vec![3.0f64; n];
        let zp = vec![4.0f64; n];
        let mut dst = vec![0.0f64; n];
        g.throughput(Throughput::Bytes((n * 8 * 7) as u64));
        g.bench_with_input(BenchmarkId::new("plain", n), &n, |b, _| {
            b.iter(|| kernel::jacobi_row(&mut dst, &cv, &ym, &yp, &zm, &zp));
        });
        g.bench_with_input(BenchmarkId::new("nt_store", n), &n, |b, _| {
            b.iter(|| kernel::jacobi_row_nt_f64(&mut dst, &cv, &ym, &yp, &zm, &zp));
        });
    }
    g.finish();
}

fn bench_region_update(c: &mut Criterion) {
    let dims = Dims3::cube(96);
    let src: Grid3<f64> = init::random(dims, 1);
    let mut dst: Grid3<f64> = Grid3::zeroed(dims);
    let region = Region3::interior_of(dims);
    let mut g = c.benchmark_group("update_region");
    g.throughput(Throughput::Elements(region.count() as u64));
    g.bench_function("full_interior_96", |b| {
        b.iter(|| kernel::update_region_op(&Jacobi6, &src, &mut dst, &region));
    });
    g.finish();
}

criterion_group!(benches, bench_rows, bench_region_update);
criterion_main!(benches);
