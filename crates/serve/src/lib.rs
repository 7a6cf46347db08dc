//! The resident prediction service: saved models in, batched predictions out.
//!
//! Everything built through the sweep path — trained registry models, bit-exact
//! [`load_model`](autopower::load_model), the allocation-free scoring loop —
//! runs here as a long-lived process instead of a batch CLI.  The server
//! ([`server::Server`]) cold-starts from saved model files (no retraining),
//! owns one `Box<dyn PowerModel>` per loaded [`ModelKind`](autopower::ModelKind),
//! and answers predict requests over a hand-rolled length-prefixed binary
//! protocol ([`protocol`]) on [`std::net::TcpListener`] — the workspace is
//! offline, so there is no async runtime; the concurrency substrate is a
//! pool of scoring threads, each holding a long-lived
//! [`EngineScratch`](autopower::EngineScratch) (and, inside it, the
//! `FeatureScratch` the predictors reuse), all sharing one server-lifetime
//! simulation cache so a repeated `(configuration, workload)` pair is never
//! simulated twice.
//!
//! # Correctness bar
//!
//! For **any** request batch size, connection count, worker thread count and
//! batching-knob setting, a served prediction is bit-identical to the offline
//! sweep path ([`SweepEngine::run`](autopower::SweepEngine::run)) on the same
//! loaded model file.  Three pinned invariants make that composable:
//!
//! 1. The sweep engine is bit-identical across thread counts, chunk sizes and
//!    simulation-cache settings (pinned since PR 2/6), so *where* a point is
//!    scored — and whether its simulation came from the shared cache —
//!    cannot matter.
//! 2. Batching is bit-identical to per-point scoring (pinned in PR 5), so the
//!    server may merge concurrent requests into one scoring batch.
//! 3. The wire codec round-trips every [`Prediction`](autopower::Prediction)
//!    exactly: group and component values travel as raw IEEE-754 bits and the
//!    totals are re-derived through the same constructors the models use
//!    (pinned by the protocol proptests).
//!
//! The integration tests and the CI smoke step pin the end-to-end composition:
//! `predict-remote` output diffs byte-for-byte against the offline
//! `predict-local` path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod faults;
pub mod protocol;
pub mod server;
