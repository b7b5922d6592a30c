//! The per-rank distributed solver and its sequential oracle, generic
//! over the stencil operator.
//!
//! [`DistSolver`] drives one rank: it stores the overlapping local box
//! of a [`Decomposition`], exchanges ghost layers with its Cartesian
//! neighbors (x, then y, then z — corners and edges arrive by
//! composition, because each stage forwards the layers received in the
//! previous stages), then advances locally, either sequentially
//! ([`LocalExec::Seq`]) or with the §1.3 pipelined temporal-blocking
//! executor ([`LocalExec::Pipelined`], the paper's "hybrid" mode).
//!
//! The exchange depth derives from the operator: advancing `c` sweeps
//! between exchanges consumes `c × Op::RADIUS` ghost layers, so a halo of
//! width `h` sustains `h / Op::RADIUS` sweeps per cycle. Operators with
//! per-cell data are [`StencilOp::restricted`] to the rank's box, so
//! every rank reads exactly the coefficients the sequential oracle reads.
//!
//! # Exchange scheduling ([`ExchangeMode`])
//!
//! * [`ExchangeMode::Sync`] — blocking exchange, then compute: the
//!   paper's measured baseline ("no explicit or implicit overlapping of
//!   communication and computation", §2.2).
//! * [`ExchangeMode::Overlapped`] — the paper's §2.3 proposal: post
//!   `irecv`s, stage and `isend` the boundary shells immediately,
//!   advance the **interior trapezoid** while the transfers are in
//!   flight, `waitall`, unpack, and finish the shells. Sweep `j` of the
//!   interior phase updates the owned box shrunk by `j × RADIUS` toward
//!   the faces that receive ghosts ([`LocalDomain::sweep_core`]):
//!   staleness from the not-yet-arrived ghosts propagates inward one
//!   radius per sweep, so every cell of that region holds its true
//!   step-`t+j` value using pre-exchange data only. Faces on the
//!   physical boundary receive no ghosts and are never written, so the
//!   core keeps its full extent there and shells exist only on faces
//!   with a neighbor. The post-exchange shell phase then updates the
//!   complementary annuli ([`LocalDomain::sweep_domain`] minus the
//!   core), whose reads are exactly the freshly unpacked ghosts plus
//!   trapezoid cells of the previous sweep. Both phases write the same
//!   (buffer, cell, sweep) triples as the synchronous schedule, so the
//!   owned result stays **bitwise identical**.
//! * [`ExchangeMode::OverlappedCommThread`] — same schedule, with the
//!   waits and the ghost forwarding driven by a real dedicated
//!   communication thread (pinned to [`tb_topology::TeamLayout::comm_core`]
//!   when the pipelined config carries a layout), coupled to the compute
//!   side by a [`Handoff`] instead of a barrier. Virtual-time accounting
//!   is identical to `Overlapped`; the wall-clock overlap becomes real.
//!
//! Overlap can only hide traffic that the interior compute outlasts: the
//! interior core shrinks by `c × RADIUS` per cycle on every face with a
//! neighbor, so small local boxes or deep cycles leave little core
//! (`h / RADIUS` sweeps of a box of edge `≤ 2·c·RADIUS` between two
//! neighbors have none) and the exchange stays exposed. The
//! pipeline-depth constraint is unchanged: `n·t·T ≤ h / RADIUS`.

use std::time::Instant;

use tb_grid::{BlockPartition, Grid3, GridPair, Real, Region3};
use tb_net::{CartComm, Comm, Request};
use tb_runtime::{PooledGrid, Runtime};
use tb_stencil::diamond::{self, DiamondTiling};
use tb_stencil::pipeline::PipelinePlan;
use tb_stencil::{baseline, kernel, pipeline, DiamondConfig, PipelineConfig, RunStats, StencilOp};
use tb_sync::Handoff;

use crate::decomp::{annulus_slabs, Decomposition, LocalDomain};
use crate::halo::{copy_region, exchange_regions, pack_region, unpack_region};

/// How a rank advances its local box between exchanges.
#[derive(Clone, Debug)]
pub enum LocalExec {
    /// Plain sequential sweeps.
    Seq,
    /// Pipelined temporal blocking inside the rank (hybrid MPI+threads
    /// in the paper). The pipeline depth `n·t·T` must not exceed the
    /// sweeps one exchange sustains (`h / Op::RADIUS`), or the pipeline
    /// would need ghost data the exchange did not provide.
    Pipelined(PipelineConfig),
    /// Wavefront-diamond temporal blocking inside the rank
    /// ([`tb_stencil::diamond`]). Diamond tiles clamp to whatever sweep
    /// count a cycle provides, so unlike the pipelined scheme there is
    /// no depth/halo coupling to validate — any halo `h >= Op::RADIUS`
    /// works, and in the overlapped modes the diamonds run directly on
    /// the shrinking interior trapezoid.
    Diamond(DiamondConfig),
}

/// How a rank schedules its halo exchange against its local compute.
/// See the module docs for the schedule details.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ExchangeMode {
    /// Blocking exchange → compute (the paper's measured baseline).
    #[default]
    Sync,
    /// Nonblocking boundary-first schedule, driven from the compute
    /// thread; transfer costs are modeled on the comm-core timeline.
    Overlapped,
    /// [`ExchangeMode::Overlapped`] with a real dedicated communication
    /// thread and a [`Handoff`]-based "halos ready" signal.
    OverlappedCommThread,
}

/// One rank of the distributed stencil solver.
pub struct DistSolver<T: Real, Op: StencilOp<T>> {
    local: LocalDomain,
    pair: GridPair<T>,
    exec: LocalExec,
    mode: ExchangeMode,
    /// The operator, re-anchored to this rank's box.
    op: Op,
    h: usize,
    /// Buffer index (0 = A, 1 = B) holding the current state.
    parity: usize,
    sweeps_done: usize,
    /// Staging grid for the overlapped exchange: boundary-shell snapshot
    /// plus unpacked ghosts, so the comm side never touches cells the
    /// compute side is updating. Acquired from the runtime's
    /// [`tb_runtime::GridPool`] on the first overlapped cycle and held
    /// for the solver's lifetime (returning to the pool on drop, so many
    /// solves sharing a runtime share one staging grid). Sized like the
    /// local box (only the depth-wide annulus and the ghost shells are
    /// ever touched): the full frame keeps the pack/unpack region
    /// arithmetic identical to the working grid's, at +1 grid of
    /// footprint in overlapped modes.
    scratch: Option<PooledGrid<T>>,
    /// Modeled compute rate (LUP/s) charged to the virtual clock; `None`
    /// leaves the clock to communication costs only.
    virtual_lups: Option<f64>,
    /// Payload bytes this rank has sent in halo exchanges.
    pub halo_bytes_sent: u64,
    /// Payload bytes this rank has sent in final-result gathers.
    pub gather_bytes_sent: u64,
}

impl<T: Real, Op: StencilOp<T>> DistSolver<T, Op> {
    /// Build this rank's solver state from the global initial grid and
    /// the *global* operator (it is restricted to the local box here).
    ///
    /// Fails when `global` does not match the decomposition, when the
    /// halo is shallower than the operator radius, or when a pipelined
    /// `exec` is invalid for this rank's local box (too-small blocks,
    /// pipeline deeper than the halo sustains, ...).
    pub fn from_global_op(
        dec: &Decomposition,
        coords: [usize; 3],
        global: &Grid3<T>,
        exec: LocalExec,
        op: Op,
    ) -> Result<Self, String> {
        if global.dims() != dec.dims() {
            return Err(format!(
                "global grid {} does not match decomposition {}",
                global.dims(),
                dec.dims()
            ));
        }
        if dec.h() < Op::RADIUS {
            return Err(format!(
                "halo width h = {} is smaller than the operator radius {}",
                dec.h(),
                Op::RADIUS
            ));
        }
        let local = dec.local(coords);
        let exec = match exec {
            LocalExec::Seq => LocalExec::Seq,
            LocalExec::Pipelined(cfg) => {
                cfg.validate(local.dims)?;
                if cfg.stages() > dec.h() / Op::RADIUS {
                    return Err(format!(
                        "pipeline depth n*t*T = {} exceeds halo width h = {} / radius {}; \
                         the rank would read ghost layers the exchange never filled",
                        cfg.stages(),
                        dec.h(),
                        Op::RADIUS
                    ));
                }
                LocalExec::Pipelined(cfg)
            }
            LocalExec::Diamond(cfg) => {
                cfg.validate(local.dims, Op::RADIUS)?;
                LocalExec::Diamond(cfg)
            }
        };
        // Carve the local box (owned + ghosts) out of the global grid.
        let mut g = Grid3::zeroed(local.dims);
        copy_region(global, &local.region, &mut g, &Region3::whole(local.dims));
        let op = op.restricted(&local.region);
        Ok(Self {
            local,
            pair: GridPair::from_initial(g),
            exec,
            mode: ExchangeMode::Sync,
            op,
            h: dec.h(),
            parity: 0,
            sweeps_done: 0,
            scratch: None,
            virtual_lups: None,
            halo_bytes_sent: 0,
            gather_bytes_sent: 0,
        })
    }

    /// Select the exchange schedule (default [`ExchangeMode::Sync`]).
    pub fn with_exchange_mode(mut self, mode: ExchangeMode) -> Self {
        self.mode = mode;
        self
    }

    /// Charge modeled compute time (`cells / lups` seconds per update
    /// phase) to the virtual clock, so the simulated network can hide
    /// communication behind it.
    pub fn with_virtual_compute(mut self, lups: f64) -> Self {
        assert!(lups > 0.0);
        self.virtual_lups = Some(lups);
        self
    }

    /// This rank's view of the decomposition.
    pub fn local(&self) -> &LocalDomain {
        &self.local
    }

    /// The active exchange schedule.
    pub fn exchange_mode(&self) -> ExchangeMode {
        self.mode
    }

    /// Global sweeps completed so far.
    pub fn sweeps_done(&self) -> usize {
        self.sweeps_done
    }

    /// Total payload bytes sent (halo + gather).
    pub fn bytes_sent(&self) -> u64 {
        self.halo_bytes_sent + self.gather_bytes_sent
    }

    /// The grid holding the current state (local coordinates).
    pub fn current_grid(&self) -> &Grid3<T> {
        if self.parity == 0 {
            self.pair.a()
        } else {
            self.pair.b()
        }
    }

    /// Move the current state into buffer A so the executors (which
    /// number sweeps from zero) read the right buffer.
    fn normalize_parity(&mut self) {
        if self.parity == 1 {
            self.pair.swap();
            self.parity = 0;
        }
    }

    /// Advance `sweeps` global sweeps: repeat (exchange `c·RADIUS ≤ h`
    /// layers, run `c` local sweeps) until done. Collective — every rank
    /// of the communicator must call it with the same `sweeps`.
    ///
    /// Builds a one-shot [`Runtime`] matching this rank's config (pinned
    /// per the pipelined layout, with a communication worker in
    /// [`ExchangeMode::OverlappedCommThread`]) and delegates to
    /// [`DistSolver::run_sweeps_on`]; repeated-solve callers should
    /// build the runtime once themselves.
    ///
    /// The returned stats count *useful* updates (owned ∩ interior
    /// cells × sweeps); redundant overlap-ring updates are excluded so
    /// that per-rank numbers sum to the serial solver's update count.
    pub fn run_sweeps(&mut self, cart: &mut CartComm, sweeps: usize) -> RunStats {
        let rt = self.one_shot_runtime();
        self.run_sweeps_on(&rt, cart, sweeps)
    }

    /// A runtime sized for this rank: one pinned worker per pipeline
    /// thread (none for sequential local execution) plus a dedicated
    /// communication worker when the exchange mode wants one.
    fn one_shot_runtime(&self) -> Runtime {
        let cpus = match &self.exec {
            LocalExec::Pipelined(cfg) => match &cfg.layout {
                Some(layout) if layout.threads() == cfg.threads() => layout.cpus.clone(),
                _ => vec![None; cfg.threads()],
            },
            LocalExec::Diamond(cfg) => vec![None; cfg.threads],
            LocalExec::Seq => Vec::new(),
        };
        let comm = (self.mode == ExchangeMode::OverlappedCommThread).then(|| self.comm_core());
        Runtime::from_cpus(cpus, comm)
    }

    /// CPU reserved for the communication thread by the pipelined
    /// layout, if any.
    fn comm_core(&self) -> Option<usize> {
        match &self.exec {
            LocalExec::Pipelined(cfg) => cfg.layout.as_ref().and_then(|l| l.comm_core),
            LocalExec::Seq | LocalExec::Diamond(_) => None,
        }
    }

    /// [`DistSolver::run_sweeps`] on a caller-provided persistent
    /// runtime: the compute team runs on its workers and, in
    /// [`ExchangeMode::OverlappedCommThread`], the exchange is driven by
    /// its dedicated communication worker, coupled by the "halos ready"
    /// [`Handoff`]. With no communication worker that mode degrades to
    /// the inline [`ExchangeMode::Overlapped`] drive — bitwise and
    /// virtual-clock identical, just without the wall-clock overlap.
    ///
    /// # Panics
    /// Panics if the local execution is pipelined and the runtime has
    /// fewer workers than the pipeline needs.
    pub fn run_sweeps_on(&mut self, rt: &Runtime, cart: &mut CartComm, sweeps: usize) -> RunStats {
        match &self.exec {
            LocalExec::Pipelined(cfg) => assert!(
                rt.threads() >= cfg.threads(),
                "runtime has {} workers but the rank's pipeline needs {}",
                rt.threads(),
                cfg.threads()
            ),
            LocalExec::Diamond(cfg) => assert!(
                rt.threads() >= cfg.threads,
                "runtime has {} workers but the rank's diamond team needs {}",
                rt.threads(),
                cfg.threads
            ),
            LocalExec::Seq => {}
        }
        let t0 = Instant::now();
        let sweeps_per_cycle = self.h / Op::RADIUS;
        let mut remaining = sweeps;
        while remaining > 0 {
            let c = sweeps_per_cycle.min(remaining);
            self.normalize_parity();
            match self.mode {
                ExchangeMode::Sync => {
                    self.exchange(cart, c * Op::RADIUS);
                    match &self.exec {
                        LocalExec::Seq => {
                            baseline::seq_sweeps_op(&self.op, &mut self.pair, c);
                        }
                        LocalExec::Pipelined(cfg) => {
                            pipeline::run_op_on(rt, &self.op, &mut self.pair, cfg, c)
                                .expect("config validated in from_global_op, runtime size above");
                        }
                        LocalExec::Diamond(cfg) => {
                            diamond::run_diamond_op_on(rt, &self.op, &mut self.pair, cfg, c)
                                .expect("config validated in from_global_op, runtime size above");
                        }
                    }
                    if let Some(lups) = self.virtual_lups {
                        let cells = (Region3::interior_of(self.local.dims).count() * c) as f64;
                        cart.comm.advance(cells / lups);
                    }
                }
                ExchangeMode::Overlapped | ExchangeMode::OverlappedCommThread => {
                    self.overlapped_cycle(rt, cart, c);
                }
            }
            self.parity = c % 2;
            self.sweeps_done += c;
            remaining -= c;
        }
        RunStats::new((self.local.interior.count() * sweeps) as u64, t0.elapsed())
    }

    /// One multi-layer halo exchange of depth `depth` along successive
    /// directions. After stage `d`, the current buffer holds valid ghost
    /// layers in every dimension `≤ d`; later stages forward them, which
    /// is what delivers edge and corner data without diagonal messages.
    /// The slab geometry lives in [`exchange_regions`].
    fn exchange(&mut self, cart: &mut CartComm, depth: usize) {
        debug_assert_eq!(self.parity, 0, "exchange runs on a normalized pair");
        let owned = self.local.owned;
        let fence = self.local.region;
        for d in 0..3 {
            // Phase 1: post both sends (buffered, never blocks).
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (s, _) = exchange_regions(&owned, &fence, d, dir, depth);
                let payload = pack_region(self.pair.a(), &self.local.to_local(&s));
                self.halo_bytes_sent += payload.len() as u64;
                cart.comm.send(peer, (d * 2 + idx) as u64, payload);
            }
            // Phase 2: receive both ghost slabs. The peer tagged its
            // message with *its own* direction, the opposite of ours.
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (_, r) = exchange_regions(&owned, &fence, d, dir, depth);
                let tag = (d * 2 + (1 - idx)) as u64;
                let payload = cart.comm.recv(peer, tag);
                unpack_region(self.pair.a_mut(), &self.local.to_local(&r), &payload);
            }
        }
    }

    /// One overlapped cycle of `c` sweeps — the §2.3 schedule:
    ///
    /// 1. post `irecv`s for every ghost slab of the cycle,
    /// 2. snapshot the boundary shells (step-`t` values) into the
    ///    staging grid and `isend` the x-direction slabs immediately,
    /// 3. advance the interior trapezoid while the comm side completes
    ///    each direction, unpacks into the staging grid, and forwards
    ///    the next direction's slabs (edge/corner composition),
    /// 4. "halos ready" handoff; fold the hidden compute time into the
    ///    virtual clock,
    /// 5. copy the ghosts into the working grid and finish the shells.
    fn overlapped_cycle(&mut self, rt: &Runtime, cart: &mut CartComm, c: usize) {
        debug_assert_eq!(self.parity, 0, "exchange runs on a normalized pair");
        let radius = Op::RADIUS;
        let depth = c * radius;
        let owned = self.local.owned;
        let fence = self.local.region;
        let mode = self.mode;
        let lups = self.virtual_lups;

        // Neighbor geometry up front: the comm side runs while `comm`
        // is exclusively borrowed.
        let mut recv_by_dim: [Vec<(Region3, Request)>; 3] = Default::default();
        let mut send_by_dim: [Vec<(usize, u64, Region3)>; 3] = Default::default();
        for d in 0..3 {
            for (idx, dir) in [-1i64, 1].into_iter().enumerate() {
                let Some(peer) = cart.neighbor(d, dir) else {
                    continue;
                };
                let (s, r) = exchange_regions(&owned, &fence, d, dir, depth);
                send_by_dim[d].push((peer, (d * 2 + idx) as u64, self.local.to_local(&s)));
                let tag = (d * 2 + (1 - idx)) as u64;
                recv_by_dim[d].push((self.local.to_local(&r), cart.comm.irecv(peer, tag)));
            }
        }
        let has_neighbor = send_by_dim.iter().any(|v| !v.is_empty());

        let Self {
            pair,
            scratch,
            op,
            exec,
            local,
            ..
        } = self;

        let t0 = cart.comm.time();
        let mut halo_bytes = 0u64;
        let interior_cells;
        if has_neighbor {
            // The staging grid exists only where there is traffic: a
            // neighborless rank runs the same trapezoid+shell schedule
            // without paying the extra footprint. It comes from the
            // runtime's pool (stale contents are fine: every region the
            // comm side reads is written earlier in the same cycle —
            // shells snapshotted, ghosts unpacked) and is held for the
            // solver's lifetime.
            let scratch = &mut **scratch
                .get_or_insert_with(|| rt.grid_pool::<T>().acquire_pooled(local.dims));

            // Stage the boundary shells for the comm side: every owned
            // cell any send region reads lies within `depth` of a face
            // with a neighbor, which is exactly where the shells are.
            for slab in local.boundary_shells(depth) {
                copy_region(pair.a(), &slab, scratch, &slab);
            }
            // x-direction slabs read no ghosts: send them right away.
            for (peer, tag, region) in &send_by_dim[0] {
                let payload = pack_region(scratch, region);
                halo_bytes += payload.len() as u64;
                let _ = cart.comm.isend(*peer, *tag, payload);
            }

            // Interior trapezoid concurrent with the exchange drive.
            let (cells, (fwd_bytes, ghost_regions)) = match mode {
                // The persistent communication worker (pinned to the
                // layout's comm core at runtime construction) drives the
                // exchange while this thread dispatches the compute team.
                // Panics on the comm worker are carried through the
                // handoff — the compute side would otherwise spin in
                // `take()` forever — and the handle join afterwards
                // releases the task borrow.
                ExchangeMode::OverlappedCommThread if rt.has_comm_worker() => {
                    let comm = &mut *cart.comm;
                    type CommOutcome = std::thread::Result<(u64, Vec<Region3>)>;
                    let handoff: Handoff<CommOutcome> = Handoff::new();
                    let handoff_ref = &handoff;
                    let scratch_ref = &mut *scratch;
                    let sends = &send_by_dim;
                    let mut recv_slot = Some(recv_by_dim);
                    let mut comm_task = move || {
                        let recv = recv_slot.take().expect("one exchange per cycle");
                        handoff_ref.signal(std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                            || drive_exchange(&mut *comm, &mut *scratch_ref, recv, sends),
                        )));
                    };
                    let handle = rt.submit_comm(&mut comm_task);
                    let cells = interior_trapezoid(rt, op, pair, exec, local, c);
                    // "Halos ready" — the compute team blocks here only
                    // if it finished the interior before the traffic.
                    let out = match handoff.take() {
                        Ok(out) => out,
                        Err(payload) => std::panic::resume_unwind(payload),
                    };
                    handle.join();
                    (cells, out)
                }
                // Inline drive: compute first, then the exchange, on
                // this thread. Same `Comm` mutation order, so virtual
                // times and results are identical to the comm-worker
                // path; only the wall-clock overlap is forfeited.
                _ => {
                    let cells = interior_trapezoid(rt, op, pair, exec, local, c);
                    (
                        cells,
                        drive_exchange(cart.comm, scratch, recv_by_dim, &send_by_dim),
                    )
                }
            };
            interior_cells = cells;
            halo_bytes += fwd_bytes;

            // Ghosts into the working grid.
            for r in &ghost_regions {
                copy_region(scratch, r, pair.a_mut(), r);
            }
        } else {
            interior_cells = interior_trapezoid(rt, op, pair, exec, local, c);
        }

        // Fold the compute that ran under the exchange into the clock;
        // only the residual stays exposed in `comm_seconds`.
        if let Some(lups) = lups {
            cart.comm.overlap_join(t0, interior_cells as f64 / lups);
        }

        // Finish the shells.
        let mut shell_cells = 0u64;
        for j in 1..=c {
            let u = local.sweep_domain(j, c, radius);
            let a = local.sweep_core(j, radius);
            let (src, dst) = pair.src_dst(j - 1);
            for slab in annulus_slabs(&u, &a) {
                shell_cells += slab.count() as u64;
                kernel::update_region_op(op, src, dst, &slab);
            }
        }
        if let Some(lups) = lups {
            cart.comm.advance(shell_cells as f64 / lups);
        }
        self.halo_bytes_sent += halo_bytes;
    }

    /// Collect every rank's owned cells on rank 0. Returns the
    /// assembled global grid on rank 0 and `None` elsewhere.
    /// Collective — all ranks must call it. `global_initial` supplies
    /// the (never-updated) physical boundary values and the dims.
    pub fn gather_global(
        &mut self,
        cart: &mut CartComm,
        dec: &Decomposition,
        global_initial: &Grid3<T>,
    ) -> Option<Grid3<T>> {
        const TAG: u64 = u64::MAX - 7;
        let local_owned = self.local.to_local(&self.local.owned);
        if cart.comm.rank() != 0 {
            let mine = pack_region(self.current_grid(), &local_owned);
            self.gather_bytes_sent += mine.len() as u64;
            cart.comm.send(0, TAG, mine);
            return None;
        }
        let mut out = global_initial.clone();
        copy_region(
            self.current_grid(),
            &local_owned,
            &mut out,
            &self.local.owned,
        );
        for src in 1..cart.comm.size() {
            let owned = dec.owned(dec.coords_of(src));
            let payload = cart.comm.recv(src, TAG);
            unpack_region(&mut out, &owned, &payload);
        }
        Some(out)
    }
}

/// Comm-side driver of the overlapped exchange: complete each
/// direction's receives, unpack them into the staging grid, and forward
/// the next direction's slabs (which embed the ghost layers just
/// unpacked — the edge/corner composition). Runs on the calling thread
/// in [`ExchangeMode::Overlapped`] and on the dedicated comm thread in
/// [`ExchangeMode::OverlappedCommThread`]; either way every `Comm`
/// mutation happens here, so virtual times are identical and
/// deterministic. Returns the forwarded-send bytes and the ghost
/// regions now valid in `scratch`.
fn drive_exchange<T: Real>(
    comm: &mut Comm,
    scratch: &mut Grid3<T>,
    recv_by_dim: [Vec<(Region3, Request)>; 3],
    send_by_dim: &[Vec<(usize, u64, Region3)>; 3],
) -> (u64, Vec<Region3>) {
    let mut bytes = 0u64;
    let mut ghosts = Vec::new();
    for (d, dim_reqs) in recv_by_dim.into_iter().enumerate() {
        for (region, req) in dim_reqs {
            let payload = comm.wait(req).expect("recv request returns a payload");
            unpack_region(scratch, &region, &payload);
            ghosts.push(region);
        }
        if d + 1 < 3 {
            for (peer, tag, region) in &send_by_dim[d + 1] {
                let payload = pack_region(scratch, region);
                bytes += payload.len() as u64;
                // Send requests are dropped: the pack runs on the
                // comm-core timeline and the buffer is ours to keep.
                let _ = comm.isend(*peer, *tag, payload);
            }
        }
    }
    (bytes, ghosts)
}

/// Advance the interior trapezoid of one overlapped cycle: sweep
/// `j ∈ 1..=c` updates `local.sweep_core(j, RADIUS)`. Uses the
/// pipelined team executor (on the runtime's persistent workers) over a
/// shrinking-domain [`PipelinePlan`] whenever that plan is constructible
/// (radius 1, non-empty cores, blocks at least as long as the stage
/// count), the diamond team executor over the same shrinking domains
/// for [`LocalExec::Diamond`] (diamonds clamp, so no constructibility
/// precondition), and plain region sweeps otherwise. Returns cells
/// updated.
fn interior_trapezoid<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    exec: &LocalExec,
    local: &LocalDomain,
    c: usize,
) -> u64 {
    let radius = Op::RADIUS;
    let cfg = match exec {
        LocalExec::Diamond(dcfg) => return diamond_trapezoid(rt, op, pair, dcfg, local, c),
        LocalExec::Pipelined(cfg) => Some(cfg),
        LocalExec::Seq => None,
    };
    let mut cells = 0u64;
    let mut base = 0usize;
    while base < c {
        let now = match cfg {
            Some(cfg) => cfg.stages().min(c - base),
            None => c - base,
        };
        let domains: Vec<Region3> = (1..=now)
            .map(|s| local.sweep_core(base + s, radius))
            .collect();
        cells += domains.iter().map(|r| r.count() as u64).sum::<u64>();
        let piped = match cfg {
            Some(cfg)
                if radius == 1 && rt.threads() >= cfg.threads() && plan_fits(&domains, cfg) =>
            {
                let views = pair.shared_views();
                let plan = PipelinePlan::with_domains(domains.clone(), cfg.block);
                // SAFETY: the trapezoid satisfies the plan contract —
                // sweep_core(j+1).expand(RADIUS) ⊆ sweep_core(j) ∪ the
                // never-written Dirichlet layer — and
                // the pair is exclusively borrowed for the call (the
                // comm side only touches the staging grid).
                unsafe { pipeline::run_team_sweep_op_on(rt, op, &views, &plan, cfg, base, now) };
                true
            }
            _ => false,
        };
        if !piped {
            for (s, region) in domains.iter().enumerate() {
                if region.is_empty() {
                    continue;
                }
                let (src, dst) = pair.src_dst(base + s);
                kernel::update_region_op(op, src, dst, region);
            }
        }
        base += now;
    }
    cells
}

/// The diamond form of the interior trapezoid: one diamond schedule
/// over the `c` shrinking cores, executed in a single team dispatch.
/// The trapezoid chain `sweep_core(j+1).expand(R) ⊆ sweep_core(j) ∪
/// never-written cells` is exactly the tiling's per-sweep domain
/// contract, and empty cores are tolerated by the geometry, so unlike
/// the pipelined path there is no constructibility precondition and no
/// fallback (`run_sweeps_on` rejects undersized runtimes up front; the
/// executor re-asserts).
fn diamond_trapezoid<T: Real, Op: StencilOp<T>>(
    rt: &Runtime,
    op: &Op,
    pair: &mut GridPair<T>,
    cfg: &DiamondConfig,
    local: &LocalDomain,
    c: usize,
) -> u64 {
    let radius = Op::RADIUS;
    let domains: Vec<Region3> = (1..=c).map(|j| local.sweep_core(j, radius)).collect();
    let cells: u64 = domains.iter().map(|r| r.count() as u64).sum();
    if cells == 0 {
        return 0;
    }
    let views = pair.shared_views();
    let tiling = DiamondTiling::new(domains, cfg.width, radius);
    // SAFETY: the trapezoid chain satisfies the tiling's domain
    // contract, the tiling carries the operator's radius, and the
    // pair is exclusively borrowed for the dispatch (the comm side
    // only touches the staging grid).
    unsafe { diamond::run_diamond_schedule_on(rt, op, &views, &tiling, cfg, 0) };
    cells
}

/// Whether a shrinking-domain plan over `domains` is constructible for
/// `cfg` — the same geometry precondition [`PipelinePlan::with_domains`]
/// asserts, checked up front so small cores fall back to region sweeps.
fn plan_fits(domains: &[Region3], cfg: &PipelineConfig) -> bool {
    let Some(first) = domains.first() else {
        return false;
    };
    if domains.iter().any(Region3::is_empty) {
        return false;
    }
    let partition = BlockPartition::new(*first, cfg.block);
    let eff = partition.block_size();
    (0..3).all(|d| eff[d] >= domains.len() || partition.counts()[d] == 1)
}

/// The verification oracle: `sweeps` plain sequential sweeps of `op` on
/// the whole global grid.
pub fn serial_reference_op<T: Real, Op: StencilOp<T>>(
    op: &Op,
    global: &Grid3<T>,
    sweeps: usize,
) -> Grid3<T> {
    let mut pair = GridPair::from_initial(global.clone());
    baseline::seq_sweeps_op(op, &mut pair, sweeps);
    pair.into_current(sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_grid::{init, norm, Dims3};
    use tb_net::Universe;
    use tb_stencil::{Avg27, Jacobi6, Jacobi7, VarCoeff7};
    use tb_sync::SyncMode;

    fn verify(dims: Dims3, pgrid: [usize; 3], h: usize, sweeps: usize) {
        let global: Grid3<f64> = init::random(dims, 99);
        let want = serial_reference_op(&Jacobi6, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let (g, w) = (&global, &want);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                .unwrap();
            let stats = s.run_sweeps(&mut cart, sweeps);
            assert_eq!(
                stats.cell_updates,
                (s.local().interior.count() * sweeps) as u64
            );
            if let Some(got) = s.gather_global(&mut cart, &dec, g) {
                norm::assert_grids_identical(w, &got, &Region3::interior_of(dims), "unit");
            }
        });
    }

    fn verify_op<Op: StencilOp<f64>>(
        op: Op,
        dims: Dims3,
        pgrid: [usize; 3],
        h: usize,
        sweeps: usize,
    ) {
        let global: Grid3<f64> = init::random(dims, 4242);
        let want = serial_reference_op(&op, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        let (g, w, op_ref) = (&global, &want, &op);
        Universe::run(dec.ranks(), None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, op_ref.clone())
                    .unwrap();
            s.run_sweeps(&mut cart, sweeps);
            if let Some(got) = s.gather_global(&mut cart, &dec, g) {
                norm::assert_grids_identical(
                    w,
                    &got,
                    &Region3::interior_of(dims),
                    &format!("dist {}", op_ref.name()),
                );
            }
        });
    }

    /// Every exchange mode must gather the exact serial-oracle grid.
    fn verify_modes_op<Op: StencilOp<f64>>(
        op: Op,
        dims: Dims3,
        pgrid: [usize; 3],
        h: usize,
        sweeps: usize,
        exec: impl Fn() -> LocalExec + Send + Sync,
    ) {
        let global: Grid3<f64> = init::random(dims, 77);
        let want = serial_reference_op(&op, &global, sweeps);
        let dec = Decomposition::new(dims, pgrid, h);
        for mode in [
            ExchangeMode::Sync,
            ExchangeMode::Overlapped,
            ExchangeMode::OverlappedCommThread,
        ] {
            let (g, w, op_ref, exec_ref, dec) = (&global, &want, &op, &exec, &dec);
            Universe::run(dec.ranks(), None, move |comm| {
                let mut cart = CartComm::new(comm, pgrid);
                let mut s =
                    DistSolver::from_global_op(dec, cart.coords(), g, exec_ref(), op_ref.clone())
                        .unwrap()
                        .with_exchange_mode(mode);
                s.run_sweeps(&mut cart, sweeps);
                if let Some(got) = s.gather_global(&mut cart, dec, g) {
                    norm::assert_grids_identical(
                        w,
                        &got,
                        &Region3::interior_of(dims),
                        &format!("{} {mode:?} {pgrid:?} h={h}", op_ref.name()),
                    );
                }
            });
        }
    }

    #[test]
    fn single_rank_equals_serial() {
        verify(Dims3::cube(12), [1, 1, 1], 3, 7);
    }

    #[test]
    fn two_ranks_each_axis() {
        verify(Dims3::new(16, 12, 10), [2, 1, 1], 2, 5);
        verify(Dims3::new(12, 16, 10), [1, 2, 1], 2, 5);
        verify(Dims3::new(10, 12, 16), [1, 1, 2], 2, 5);
    }

    #[test]
    fn partial_final_cycle_with_odd_depth() {
        // h = 3, 8 sweeps -> cycles 3 + 3 + 2, crossing buffer parity.
        verify(Dims3::cube(14), [2, 2, 1], 3, 8);
    }

    #[test]
    fn sweeps_fewer_than_halo() {
        verify(Dims3::cube(14), [2, 1, 1], 4, 2);
    }

    #[test]
    fn every_operator_matches_its_serial_oracle_across_ranks() {
        let dims = Dims3::new(16, 14, 12);
        verify_op(Jacobi7::heat(0.09), dims, [2, 1, 2], 2, 5);
        verify_op(VarCoeff7::banded(dims), dims, [2, 2, 1], 2, 5);
        // The corner-reading operator exercises the ghost-forwarding
        // composition: diagonal data must arrive by stage ordering alone.
        verify_op(Avg27, dims, [2, 2, 2], 2, 5);
        verify_op(Avg27, dims, [1, 2, 1], 3, 7);
    }

    #[test]
    fn overlapped_modes_match_serial_two_ranks() {
        verify_modes_op(Jacobi6, Dims3::new(18, 12, 12), [2, 1, 1], 2, 5, || {
            LocalExec::Seq
        });
    }

    #[test]
    fn overlapped_modes_match_serial_every_axis_and_partial_cycle() {
        // h = 3, 8 sweeps: cycles 3 + 3 + 2 cross buffer parity.
        verify_modes_op(Jacobi6, Dims3::cube(16), [1, 1, 2], 3, 8, || LocalExec::Seq);
        verify_modes_op(Jacobi6, Dims3::cube(16), [1, 2, 1], 3, 8, || LocalExec::Seq);
    }

    // (Corner-forwarding of the overlapped exchange across eight ranks
    // is covered by the e2e matrix in tests/dist_e2e.rs with Avg27.)

    #[test]
    fn overlapped_hybrid_pipelined_interior() {
        let cfg = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            layout: None,
            audit: false,
        };
        verify_modes_op(Jacobi6, Dims3::cube(24), [2, 1, 1], 4, 9, move || {
            LocalExec::Pipelined(cfg.clone())
        });
    }

    #[test]
    fn diamond_local_exec_matches_serial_in_every_mode() {
        // The diamond scheme drives both the Sync local advance and the
        // overlapped interior trapezoid (shrinking cores), with the
        // race auditor on.
        let cfg = DiamondConfig {
            threads: 2,
            width: 4,
            threads_per_tile: 2, // MWD through the distributed trapezoid
            audit: true,
        };
        let c = cfg.clone();
        verify_modes_op(Jacobi6, Dims3::cube(20), [2, 1, 1], 3, 8, move || {
            LocalExec::Diamond(c.clone())
        });
        let c = cfg.clone();
        verify_modes_op(Avg27, Dims3::new(18, 14, 16), [1, 2, 1], 2, 5, move || {
            LocalExec::Diamond(c.clone())
        });
    }

    #[test]
    fn diamond_local_exec_with_empty_interior_core() {
        // Depth-4 cycles on edge-8 owned boxes: the trapezoid is empty,
        // everything lands in the shell phase, and the diamond schedule
        // must cope with all-empty domains.
        let cfg = DiamondConfig::with_width(2, 4);
        verify_modes_op(Jacobi6, Dims3::cube(16), [2, 2, 2], 4, 8, move || {
            LocalExec::Diamond(cfg.clone())
        });
    }

    #[test]
    fn diamond_wider_than_local_box_is_fine() {
        let cfg = DiamondConfig::with_width(2, 64);
        verify_modes_op(
            Jacobi7::heat(0.08),
            Dims3::cube(18),
            [2, 1, 1],
            2,
            6,
            move || LocalExec::Diamond(cfg.clone()),
        );
    }

    #[test]
    fn invalid_diamond_config_rejected() {
        let dims = Dims3::cube(16);
        let dec = Decomposition::new(dims, [1, 1, 1], 1);
        let global: Grid3<f64> = init::random(dims, 2);
        let cfg = DiamondConfig::with_width(2, 1); // width < 2·radius
        let err = match DistSolver::from_global_op(
            &dec,
            [0, 0, 0],
            &global,
            LocalExec::Diamond(cfg),
            Jacobi6,
        ) {
            Err(e) => e,
            Ok(_) => panic!("too-narrow diamond width must be rejected"),
        };
        assert!(err.contains("2·radius"), "{err}");
    }

    #[test]
    fn overlapped_with_empty_interior_core() {
        // Owned boxes of edge 8 with depth-4 cycles: the interior core
        // is empty, everything lands in the shell phase — overlap hides
        // nothing but the result must stay exact.
        verify_modes_op(Jacobi6, Dims3::cube(16), [2, 2, 2], 4, 8, || LocalExec::Seq);
    }

    #[test]
    #[should_panic(expected = "rank panicked")]
    fn comm_thread_panic_propagates_instead_of_hanging() {
        // A protocol error hit on the comm thread (here: a peer sending
        // a wrong-length halo payload, which fails `unpack_region`) must
        // fail the rank loudly: the panic travels through the handoff
        // and re-raises on the compute side. A hang would block this
        // test forever instead.
        let dims = Dims3::cube(14);
        let pgrid = [2, 1, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 3);
        let (g, dec_ref) = (&global, &dec);
        Universe::run(2, None, move |comm| {
            if comm.rank() == 1 {
                // Bogus 8-byte message under rank 0's -x ghost tag.
                comm.send(0, 0, tb_net::comm::pack_f64s(&[1.0]));
                return 0;
            }
            let mut cart = CartComm::new(comm, pgrid);
            let mut s =
                DistSolver::from_global_op(dec_ref, cart.coords(), g, LocalExec::Seq, Jacobi6)
                    .unwrap()
                    .with_exchange_mode(ExchangeMode::OverlappedCommThread);
            s.run_sweeps(&mut cart, 2);
            0
        });
    }

    #[test]
    fn byte_accounting_splits_halo_and_gather() {
        let dims = Dims3::cube(16);
        let pgrid = [2, 1, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 5);
        let g = &global;
        let bytes = Universe::run(2, None, move |comm| {
            let mut cart = CartComm::new(comm, pgrid);
            let mut s = DistSolver::from_global_op(&dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                .unwrap();
            s.run_sweeps(&mut cart, 4);
            let halo = s.halo_bytes_sent;
            let _ = s.gather_global(&mut cart, &dec, g);
            (halo, s.halo_bytes_sent, s.gather_bytes_sent, s.bytes_sent())
        });
        for (halo_before, halo_after, gather, total) in bytes.clone() {
            assert_eq!(halo_before, halo_after, "gather must not count as halo");
            assert!(halo_after > 0, "two ranks exchange every cycle");
            assert_eq!(total, halo_after + gather);
        }
        // Only the non-root rank ships its box to rank 0.
        assert_eq!(bytes[0].2, 0);
        assert!(bytes[1].2 > 0);
        // Both ranks send one 2-layer slab per cycle (2 cycles of c=2):
        // identical halo traffic.
        assert_eq!(bytes[0].1, bytes[1].1);
    }

    #[test]
    fn overlapped_sends_the_same_halo_bytes_as_sync() {
        let dims = Dims3::new(18, 14, 12);
        let pgrid = [2, 2, 1];
        let dec = Decomposition::new(dims, pgrid, 2);
        let global: Grid3<f64> = init::random(dims, 6);
        let g = &global;
        let mut per_mode = Vec::new();
        for mode in [ExchangeMode::Sync, ExchangeMode::Overlapped] {
            let dec = &dec;
            let halo: Vec<u64> = Universe::run(4, None, move |comm| {
                let mut cart = CartComm::new(comm, pgrid);
                let mut s =
                    DistSolver::from_global_op(dec, cart.coords(), g, LocalExec::Seq, Jacobi6)
                        .unwrap()
                        .with_exchange_mode(mode);
                s.run_sweeps(&mut cart, 6);
                s.halo_bytes_sent
            });
            per_mode.push(halo);
        }
        assert_eq!(per_mode[0], per_mode[1], "same protocol, same traffic");
    }

    #[test]
    fn pipeline_deeper_than_halo_rejected() {
        let dims = Dims3::cube(24);
        let dec = Decomposition::new(dims, [2, 1, 1], 1);
        let global: Grid3<f64> = init::random(dims, 1);
        let cfg = PipelineConfig {
            team_size: 2,
            n_teams: 1,
            updates_per_thread: 1,
            block: [8, 8, 8],
            sync: SyncMode::relaxed_default(),
            layout: None,
            audit: false,
        };
        let g = &global;
        Universe::run(2, None, move |comm| {
            let cart = CartComm::new(comm, [2, 1, 1]);
            let err = match DistSolver::from_global_op(
                &dec,
                cart.coords(),
                g,
                LocalExec::Pipelined(cfg.clone()),
                Jacobi6,
            ) {
                Err(e) => e,
                Ok(_) => panic!("pipeline deeper than halo must be rejected"),
            };
            assert!(err.contains("exceeds halo width"), "{err}");
        });
    }

    #[test]
    fn mismatched_global_grid_rejected() {
        let dec = Decomposition::new(Dims3::cube(12), [1, 1, 1], 1);
        let wrong: Grid3<f64> = Grid3::zeroed(Dims3::cube(10));
        assert!(
            DistSolver::from_global_op(&dec, [0, 0, 0], &wrong, LocalExec::Seq, Jacobi6).is_err()
        );
    }
}
