//! # tb-membench — STREAM-style memory benchmarks and calibration
//!
//! The paper's models are parameterized by three bandwidths measured with
//! STREAM COPY-class kernels (§1.1, §1.4): the saturated socket bandwidth
//! `M_s`, the single-thread bandwidth `M_{s,1}`, and the shared-cache
//! bandwidth `M_c`. This crate reimplements those measurements:
//!
//! * [`kernels`] — COPY/SCALE/ADD/TRIAD loops (with a non-temporal COPY
//!   on x86-64),
//! * [`runner`] — timed single-/multi-threaded bandwidth measurements
//!   on a persistent runtime,
//! * [`calibrate`] — turn host measurements into a
//!   [`tb_model::MachineParams`] for the analytic models.

pub mod calibrate;
pub mod kernels;
pub mod runner;

pub use calibrate::{calibrate_host, calibrate_host_on, CalibrationProfile};
pub use runner::{measure_bandwidth_on, BandwidthSample, StreamKind};
