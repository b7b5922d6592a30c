//! The four operators behind one enum, and the frozen per-method
//! configurations every solve workload uses.

use std::time::{Duration, Instant};

use crate::sys::grid_hash;

use temporal_blocking::grid::{CompressedGrid, Dims3, Grid3, GridPair, Region3};
use temporal_blocking::stencil::kernel::{self, StoreMode};
use temporal_blocking::stencil::{baseline, diamond, pipeline, wavefront};
use temporal_blocking::{
    solve_with_on, Avg27, DiamondConfig, Jacobi6, Jacobi7, Method, PipelineConfig, RunStats,
    Runtime, StencilOp, SyncMode, VarCoeff7,
};

/// The paper's methods in report order; `sequential` is the oracle.
pub const METHODS: [&str; 6] = [
    "sequential",
    "parallel",
    "pipelined",
    "compressed",
    "wavefront",
    "diamond",
];

/// Updates per thread `T` of the pipelined configurations.
pub const PIPE_UPDATES: usize = 2;
/// Spatial block of the pipelined configurations (paper §1.5 optimum).
pub const PIPE_BLOCK: [usize; 3] = [120, 20, 20];
/// Diamond width of the diamond configuration.
pub const DIAMOND_WIDTH: usize = 8;
/// Diffusion number of the Jacobi7 heat operator.
pub const HEAT_K: f64 = 0.1;

pub fn pipe_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        team_size: threads,
        n_teams: 1,
        updates_per_thread: PIPE_UPDATES,
        block: PIPE_BLOCK,
        sync: SyncMode::relaxed_default(),
        ..PipelineConfig::small()
    }
}

/// The fixed configuration of `name` for a team of `threads`.
pub fn method(name: &str, threads: usize) -> Method {
    match name {
        "sequential" => Method::Sequential,
        "parallel" => Method::Parallel {
            threads,
            streaming_stores: false,
        },
        "pipelined" => Method::Pipelined(pipe_config(threads)),
        "compressed" => Method::PipelinedCompressed(pipe_config(threads)),
        "wavefront" => Method::Wavefront { threads },
        "diamond" => Method::Diamond(DiamondConfig::with_width(threads, DIAMOND_WIDTH)),
        other => panic!("unknown method {other}"),
    }
}

#[derive(Clone)]
pub enum AnyOp {
    Jacobi6(Jacobi6),
    Jacobi7(Jacobi7),
    VarCoeff7(VarCoeff7<f64>),
    Avg27(Avg27),
}

macro_rules! with_op {
    ($any:expr, $op:ident => $body:expr) => {
        match $any {
            AnyOp::Jacobi6($op) => $body,
            AnyOp::Jacobi7($op) => $body,
            AnyOp::VarCoeff7($op) => $body,
            AnyOp::Avg27($op) => $body,
        }
    };
}

impl AnyOp {
    /// All four operators, instantiated for grids of `dims`.
    pub fn all(dims: Dims3) -> Vec<AnyOp> {
        vec![
            AnyOp::Jacobi6(Jacobi6),
            AnyOp::Jacobi7(Jacobi7::heat(HEAT_K)),
            AnyOp::VarCoeff7(VarCoeff7::banded(dims)),
            AnyOp::Avg27(Avg27),
        ]
    }

    pub fn name(&self) -> &'static str {
        with_op!(self, op => StencilOp::<f64>::name(op))
    }

    /// Computed code balance (bytes per update) with plain stores.
    pub fn bytes_per_lup(&self) -> f64 {
        with_op!(self, op => StencilOp::<f64>::bytes_per_lup(op, StoreMode::Normal))
    }

    /// The facade entry point users call.
    pub fn solve(
        &self,
        rt: &Runtime,
        initial: Grid3<f64>,
        sweeps: usize,
        method: Method,
    ) -> Result<(Grid3<f64>, RunStats), String> {
        with_op!(self, op => solve_with_on(rt, op, initial, sweeps, method))
    }

    /// The executor entry point of `method` on a prebuilt `pair` whose
    /// buffers both hold the initial grid. Returns the executor's wall
    /// time and the result's [`grid_hash`] (taken after timing).
    pub fn exec(
        &self,
        rt: &Runtime,
        pair: &mut GridPair<f64>,
        sweeps: usize,
        method: &Method,
    ) -> Result<(Duration, u64), String> {
        with_op!(self, op => exec_op(rt, op, pair, sweeps, method))
    }

    /// One single-thread sweep of `region` through the row kernel.
    pub fn kernel_sweep(&self, src: &Grid3<f64>, dst: &mut Grid3<f64>, region: &Region3) {
        with_op!(self, op => kernel::update_region_op(op, src, dst, region))
    }
}

fn exec_op<Op: StencilOp<f64>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<f64>,
    sweeps: usize,
    method: &Method,
) -> Result<(Duration, u64), String> {
    let t0 = Instant::now();
    match method {
        Method::Sequential => {
            baseline::seq_sweeps_op(op, pair, sweeps);
        }
        Method::Parallel {
            threads,
            streaming_stores,
        } => {
            let store = if *streaming_stores {
                StoreMode::Streaming
            } else {
                StoreMode::Normal
            };
            baseline::par_sweeps_op_on(rt, op, pair, sweeps, *threads, store);
        }
        Method::Pipelined(cfg) => {
            pipeline::run_op_on(rt, op, pair, cfg, sweeps)?;
        }
        Method::PipelinedCompressed(cfg) => {
            // The compressed executor runs on its own storage, built
            // from buffer A before the clock starts.
            let mut cg = CompressedGrid::from_grid(pair.a(), cfg.stages());
            let t0 = Instant::now();
            pipeline::run_compressed_op_on(rt, op, &mut cg, cfg, sweeps)?;
            let elapsed = t0.elapsed();
            return Ok((elapsed, grid_hash(cg.to_grid().as_slice())));
        }
        Method::Wavefront { threads } => {
            wavefront::run_wavefront_op_on(rt, op, pair, *threads, sweeps)?;
        }
        Method::Diamond(cfg) => {
            diamond::run_diamond_op_on(rt, op, pair, cfg, sweeps)?;
        }
        Method::Blocked { .. } => return Err("blocked is not a benchmarked method".into()),
    }
    let elapsed = t0.elapsed();
    Ok((elapsed, grid_hash(pair.current(sweeps).as_slice())))
}
