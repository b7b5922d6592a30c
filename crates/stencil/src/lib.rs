//! # tb-stencil — pipelined temporal blocking of stencil codes
//!
//! This crate is the paper's primary contribution, generalized over a
//! stencil-operator layer. It contains:
//!
//! * [`op`] — the [`StencilOp`] trait (row-update primitive, radius,
//!   flops/LUP and bytes/LUP code balance) and the shipped operators:
//!   classic 6-point Jacobi ([`Jacobi6`], Eq. 1), 7-point with center
//!   weight ([`Jacobi7`], explicit-Euler heat), variable-coefficient
//!   7-point ([`VarCoeff7`]) and the dense 27-point average ([`Avg27`]);
//! * [`kernel`] — region-update drivers for every storage scheme: safe
//!   two-grid, unsafe [`tb_grid::SharedGrid`] for the multi-threaded
//!   executors, and the compressed diagonally-shifted scheme, plus the
//!   x86-64 non-temporal-store Jacobi row;
//! * [`baseline`] — the "standard" solvers: sequential, spatially
//!   blocked, and thread-parallel with streaming stores (§1.1);
//! * [`pipeline`] — **pipelined temporal blocking** (§1.3): the block
//!   schedule ([`pipeline::plan`]), the global-barrier executor, the
//!   relaxed-synchronization executor (Eq. 3), and the compressed-grid
//!   executor;
//! * [`simd`] — runtime-dispatched explicit AVX row kernels behind the
//!   portable lane path of [`op`] (stable `std::arch`, selected via
//!   `is_x86_feature_detected!`, bitwise identical to the scalar rows);
//! * [`wavefront`] — the wavefront method of Wellein et al. (ref. 2),
//!   implemented as a comparator;
//! * [`diamond`] — **wavefront-diamond temporal blocking** (Malas,
//!   Hager et al. 2015): diamond tiles along z × time executed row by
//!   row, removing the pipelined scheme's wind-up/wind-down waste and
//!   its block/delay tuning knobs;
//! * [`residual`] — operator-agnostic convergence diagnostics;
//! * [`stats`] — LUP/s and FLOP/s accounting shared by examples and
//!   benches.
//!
//! # Execution
//!
//! Each executor has exactly one entry point, generic over the operator:
//! `seq_*_op` for the sequential oracle, `*_op_on(&tb_runtime::Runtime,
//! &Op, …)` for every threaded method. The threaded forms run on a
//! persistent, core-pinned worker team that the caller builds once and
//! shares across repeated solves.
//!
//! # Determinism
//!
//! Every operator evaluates its update in one fixed operand order (e.g.
//! `(west + east + south + north + bottom + top) * (1/6)` for
//! [`Jacobi6`]). Consequently all solvers in this crate — sequential,
//! blocked, parallel, pipelined in any configuration, wavefront,
//! compressed — produce **bitwise identical** results after the same
//! number of sweeps of the same operator, and the test-suite holds them
//! to that.

pub mod baseline;
pub mod config;
pub mod diamond;
pub mod kernel;
pub mod op;
pub mod pipeline;
pub mod residual;
pub mod simd;
pub mod stats;
pub mod wavefront;

pub use config::PipelineConfig;
pub use diamond::DiamondConfig;
pub use op::{Avg27, Jacobi6, Jacobi7, Rows9, ScalarPath, StencilOp, VarCoeff7};
pub use stats::RunStats;
pub use tb_sync::SyncMode;

/// One oversized runtime shared by the unit tests of every executor
/// module, so each test drives the `*_op_on` entry point without
/// spawning a team of its own.
#[cfg(test)]
pub(crate) fn test_runtime() -> &'static tb_runtime::Runtime {
    static RT: std::sync::OnceLock<tb_runtime::Runtime> = std::sync::OnceLock::new();
    RT.get_or_init(|| tb_runtime::Runtime::with_threads(8))
}
