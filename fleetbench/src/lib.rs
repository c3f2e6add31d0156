//! Fleet benchmark for the Jarvis live session.
//!
//! [`session`] drives the public deployment path end to end, [`replay`]
//! holds the single-threaded correctness oracle and the traced layer
//! replay, [`trace`] records spans, and [`workload`] names the three
//! workloads. `src/main.rs` turns them into the benchmark's command line;
//! `README.md` maps every metric to its layer and workload.

pub mod replay;
pub mod session;
pub mod stats;
pub mod trace;
pub mod workload;
