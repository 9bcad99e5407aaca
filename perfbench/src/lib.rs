//! End-to-end and per-layer benchmark of the EFM suite.
//!
//! Three workloads on the paper's yeast networks (lite scale) exercise
//! Algorithm 1, Algorithm 2 on simulated ranks and Algorithm 3 over a
//! partition. Every solve is checked against reference EFM sets; see
//! `README.md` for the workloads, the metrics and what moves them.

pub mod input;
pub mod layers;
pub mod measure;
pub mod report;
pub mod workload;
