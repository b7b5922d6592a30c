//! # tb-plan — strategy IR, model-pruned autotuning, persistent winners
//!
//! The paper tunes its temporal-blocking parameters by hand (§2: "the
//! block size was chosen such that…"); Patus-style autotuners make the
//! same choice mechanically by treating the *execution strategy* as
//! data. This crate supplies that layer:
//!
//! * [`ir`] — the strategy IR: a serializable [`Plan`] capturing the
//!   method (baseline / pipelined / compressed / wavefront / diamond)
//!   and every parameter the facade needs to replay it (`t`, `n`, `T`,
//!   block edges, `d_u` sync mode, diamond width, MWD sub-team, SIMD
//!   path, exchange mode);
//! * [`key`] — cache identity: [`MachineFingerprint`] (exact topology
//!   signature + calibrated bandwidths quantized into ±12.5% bands)
//!   plus [`PlanKey`] (operator, dims, sweep class, element type);
//! * [`tuner`] — model-pruned search: enumerate a candidate space,
//!   score every candidate with the `tb-model` predictions, measure
//!   only the top-K plus the incumbent, report predicted-vs-measured
//!   MLUP/s in a ranked [`TuneReport`];
//! * [`cache`] — the persistent JSON store ([`PlanCache`]) of winners
//!   and calibrations: a warm hit replays a plan with *zero*
//!   measurements (membench included), and every cached plan
//!   re-validates against the requesting problem before use;
//! * [`json`] — the minimal JSON tree backing persistence (the vendored
//!   `serde` is a no-op shim).
//!
//! The facade crate ties this to execution: see
//! `temporal_blocking::solve_tuned_with_on`.

pub mod cache;
pub mod ir;
pub mod json;
pub mod key;
pub mod tuner;

pub use cache::{CacheEntry, PlanCache, SharedPlanCache, SCHEMA_VERSION};
pub use ir::{ExchangeIr, MethodFamily, PipeParams, Plan, PlanMethod};
pub use json::Json;
pub use key::{bandwidth_band, element_name, sweeps_class, MachineFingerprint, PlanKey};
pub use tuner::{
    default_plan, enumerate_all, enumerate_family, predicted_mlups, tune, TuneConfig, TuneReport,
    TuneRow,
};
