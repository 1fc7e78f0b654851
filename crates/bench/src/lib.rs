//! # sensorlog-bench
//!
//! Experiment harness for the reproduction: one `bench` binary over the
//! cases of [`cases::CASES`] — one per paper figure or table
//! (reconstructed Section VI, see DESIGN.md; in [`experiments`]) and one
//! per measured claim beyond them — each filling a [`report::Report`] of
//! rows and named gates, on the shared run machinery of [`common`]:
//!
//! ```text
//! cargo run --release -p sensorlog-bench --bin bench -- all
//! cargo run --release -p sensorlog-bench --bin bench -- fig4_5 fig8
//! ```

#![forbid(unsafe_code)]

pub mod cases;
pub mod common;
pub mod experiments;
pub mod report;
