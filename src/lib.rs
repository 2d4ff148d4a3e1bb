//! # urcl
//!
//! Facade crate for the `urcl-rs` workspace: a from-scratch Rust
//! reproduction of *"A Unified Replay-based Continuous Learning Framework
//! for Spatio-Temporal Prediction on Streaming Data"* (ICDE 2024).
//!
//! Re-exports every workspace crate under one roof so examples and
//! downstream users need a single dependency:
//!
//! * [`json`] — minimal JSON value model, parser and printer
//! * [`tensor`] — dense tensors + tape autodiff (the training substrate)
//! * [`trace`] — structured tracing: spans, counters, per-period metrics
//! * [`graph`] — sensor networks and diffusion supports
//! * [`stdata`] — synthetic streaming spatio-temporal datasets
//! * [`nn`] — neural layers (GCN, gated TCN, GRU, attention, …)
//! * [`models`] — GraphWaveNet and the paper's baselines
//! * [`core`] — the URCL framework itself (replay, RMIR, STMixup,
//!   augmentations, STSimSiam, continuous trainer)
//! * [`serve`] — batched inference serving with checkpoint hot-swap

/// Compiles every `rust` code block in the repository README as a doc-test
/// (`cargo test --doc`), so the quickstart, crash-recovery and serving
/// snippets can never drift from the real API.
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

pub use urcl_core as core;
pub use urcl_graph as graph;
pub use urcl_json as json;
pub use urcl_models as models;
pub use urcl_nn as nn;
pub use urcl_serve as serve;
pub use urcl_stdata as stdata;
pub use urcl_tensor as tensor;
pub use urcl_trace as trace;
