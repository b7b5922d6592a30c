//! # tb-dist — distributed/hybrid temporal blocking (the paper's §2)
//!
//! This crate implements the paper's distributed-memory contribution:
//! **overlapping domain decomposition with multi-layer halo exchange**,
//! which amortizes message latency and buffer-copy cost over the
//! temporal-blocking depth. One exchange ships `h` ghost layers; the
//! rank then advances `h` sweeps — sequentially or with the §1.3
//! pipelined executor running inside the rank (the "hybrid" mode) —
//! before it has to communicate again.
//!
//! * [`Decomposition`] — splits the global grid over a `px × py × pz`
//!   rank grid into **overlapping** subdomains: every rank stores its
//!   owned box plus `h` ghost layers on each internal face;
//! * [`halo`] — face pack/unpack between grids and message buffers (the
//!   §2.2 "buffer copy" cost made explicit);
//! * [`DistSolver`] — the per-rank solver, generic over the stencil
//!   operator: exchange `h` layers along successive directions (x, then
//!   y, then z — corner and edge data arrive by composition), run
//!   `h / RADIUS` local sweeps, repeat. Results are **bitwise
//!   identical** to the operator's sequential oracle;
//! * [`ExchangeMode`] — how the exchange is scheduled against the local
//!   compute: blocking ([`ExchangeMode::Sync`], the paper's measured
//!   baseline) or overlapped with the interior update
//!   ([`ExchangeMode::Overlapped`], optionally with a real dedicated
//!   communication thread, [`ExchangeMode::OverlappedCommThread`]) —
//!   the multicore-aware §2.3 proposal. See "Overlap" below;
//! * [`solver::serial_reference_op`] — the verification oracle;
//! * [`sim`] — the Fig. 6 substitution: execute the real protocol on a
//!   small grid under the virtual-time network while predicting the
//!   nominal point with [`tb_model::ScalingConfig`];
//! * [`numa`] — the §3 outlook: one pipeline per cache group coupled by
//!   in-memory multi-layer slab halos (the ccNUMA fix the paper
//!   proposes), instead of one node-wide pipeline.
//!
//! # Correctness argument
//!
//! After an exchange of depth `c ≤ h`, ghost rings `1..=c` around the
//! owned box hold true global values of the current time step. A Jacobi
//! sweep reads only the source buffer, so staleness propagates inward at
//! one cell per sweep: after `j` local sweeps, rings `0..=c-j` are still
//! exact (ring 0 is the owned box). Running exactly `c` sweeps per cycle
//! therefore leaves every owned cell bit-identical to a global
//! sequential sweep — redundant work happens only in the overlap rings,
//! which the next exchange overwrites. The e2e tests hold every
//! configuration to bitwise equality with [`solver::serial_reference_op`].
//!
//! # Overlap
//!
//! The same staleness argument read inward instead of outward powers the
//! overlapped schedule: before any ghost of the current exchange has
//! arrived, sweep `j` may already update the owned box shrunk by
//! `j × RADIUS` toward every face that receives ghosts (the **interior
//! trapezoid**, [`LocalDomain::sweep_core`]) — exactly the cells whose
//! dependency cone stays inside pre-exchange data. Faces on the physical
//! boundary receive nothing and are never written, so the trapezoid
//! keeps its full extent there. The complementary annuli of width
//! `c × RADIUS` (the **boundary shells**,
//! [`LocalDomain::boundary_shells`]), which exist only on faces with a
//! neighbor, are finished after `waitall`. The boundary data a rank
//! *sends* is plain step-`t` state, so the sends start immediately;
//! corner/edge forwarding still runs x → y → z, on the comm side, from
//! a staging grid the compute never writes.
//!
//! **When overlap cannot hide traffic:** hiding is bounded by the
//! interior compute, whose core shrinks by `c × RADIUS` per cycle on
//! each face with a neighbor. A local box of edge `≤ 2·c·RADIUS` between
//! two neighbors has no core at all, and a pipelined interior
//! additionally needs blocks at least `n·t·T` wide inside the core. Deep halos amortize latency but shrink the hideable interior —
//! the `n·t·T ≤ h / RADIUS` pipeline-depth constraint binds from the
//! other side, so `h` trades message count against overlap window. The
//! `overlap_sweep` bench measures the achieved hiding ratio per
//! configuration.

pub mod decomp;
pub mod halo;
pub mod numa;
pub mod sim;
pub mod solver;

pub use decomp::{annulus_slabs, Decomposition, LocalDomain};
pub use solver::{DistSolver, ExchangeMode, LocalExec};
