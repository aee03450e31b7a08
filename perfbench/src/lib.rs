//! Served open-loop benchmark of `simsearchd`.
//!
//! One run starts the real daemon (`simsearch serve`) for one workload,
//! drives it over loopback with a seeded open-loop Poisson generator,
//! checks every reply, and reports end-to-end figures. A traced run
//! additionally replays the same request stream in process through each
//! layer's public functions to split the time by layer. See
//! `perfbench/README.md` for the workloads and the metric map.

pub mod check;
pub mod daemon;
pub mod json;
pub mod loadgen;
pub mod spec;
pub mod trace;
