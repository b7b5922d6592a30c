//! Halo machinery microbenchmarks: face pack/unpack and a full 2-rank
//! multi-layer exchange cycle.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use tb_dist::halo::{pack_region, unpack_region};
use tb_dist::{Decomposition, DistSolver, LocalExec};
use tb_grid::{init, Dims3, Grid3, Region3};
use tb_net::{CartComm, Universe};
use tb_runtime::Runtime;
use tb_stencil::Jacobi6;

fn bench_pack(c: &mut Criterion) {
    let dims = Dims3::cube(96);
    let g: Grid3<f64> = init::random(dims, 1);
    let mut out: Grid3<f64> = Grid3::zeroed(dims);
    let mut group = c.benchmark_group("halo_pack");
    for h in [1usize, 4, 16] {
        let face = Region3::new([1, 1, 1], [1 + h, 95, 95]);
        group.throughput(Throughput::Bytes((face.count() * 8) as u64));
        group.bench_with_input(BenchmarkId::new("pack_x_face", h), &h, |b, _| {
            b.iter(|| pack_region(&g, &face));
        });
        let payload = pack_region(&g, &face);
        group.bench_with_input(BenchmarkId::new("unpack_x_face", h), &h, |b, _| {
            b.iter(|| unpack_region(&mut out, &face, &payload));
        });
    }
    group.finish();
}

fn bench_exchange_cycle(c: &mut Criterion) {
    let dims = Dims3::cube(64);
    let dec = Decomposition::new(dims, [2, 1, 1], 4);
    let global: Grid3<f64> = init::random(dims, 7);
    c.bench_function("dist_cycle_2ranks_h4_64cube", |b| {
        b.iter_custom(|iters| {
            let global_ref = &global;
            let dec_ref = &dec;
            let times = Universe::run(2, None, move |comm| {
                let mut cart = CartComm::new(comm, [2, 1, 1]);
                let mut s = DistSolver::from_global_op(
                    dec_ref,
                    cart.coords(),
                    global_ref,
                    LocalExec::Seq,
                    Jacobi6,
                )
                .unwrap();
                // Sequential local execution needs no workers.
                let rt = Runtime::with_threads(0);
                let t0 = std::time::Instant::now();
                for _ in 0..iters {
                    s.run_sweeps_on(&rt, &mut cart, 4);
                }
                t0.elapsed()
            });
            times.into_iter().max().unwrap()
        });
    });
}

criterion_group!(benches, bench_pack, bench_exchange_cycle);
criterion_main!(benches);
