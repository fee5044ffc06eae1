//! # h2attack — malicious clients, a robustness matrix, and a detector
//!
//! Section VI of *"Are HTTP/2 Servers Ready Yet?"* closes by warning
//! that the protocol's new machinery — flow control, CONTINUATION,
//! SETTINGS, HPACK, priorities — is dual-use. This crate extends the
//! paper's Table III methodology from *conformance* quirks to
//! *robustness* quirks, in three parts:
//!
//! 1. [`vectors`]: a seedable malicious-client generator. Seven attack
//!    vectors (rapid reset, CONTINUATION flood, slow read, slow POST,
//!    SETTINGS flood, HPACK table thrash, priority churn) drive the
//!    deterministic simulator against any [`h2scope::Target`], each run
//!    a pure function of `(target, seed)`.
//! 2. [`matrix`]: the per-profile robustness quirk matrix — which
//!    servers bound each abuse vector, and how they react when the
//!    bound is crossed — built on the `h2scope::probes::abuse` suite.
//! 3. [`detect`]: an online event-sequence detector that consumes
//!    `h2obs` frame traces and labels each connection benign or
//!    attacked (with the vector), evaluated by precision/recall on
//!    mixed benign+attack campaigns.
//!
//! Every engagement reports through the unified [`AttackReport`]
//! schema, so `repro abuse` prints every vector in one table. The §VI
//! engines behind slow read, table thrash and priority churn are also
//! public with their size knobs (`examples/dos_vectors.rs` sweeps them).
//!
//! ```
//! use h2attack::{run, AttackVector};
//! use h2scope::Target;
//! use h2server::{ServerProfile, SiteSpec};
//!
//! let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
//! let report = run(AttackVector::SlowRead, &victim, 7);
//! // The RFC reference mounts no defense: the bodies stay pinned.
//! assert!(!report.defended);
//! assert_eq!(report.server_cost, 1_048_572);
//! assert_eq!(report.amplification, 6_204);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod matrix;
pub mod report;
pub mod vectors;

pub use detect::{ConfusionMatrix, Detector};
pub use matrix::{robustness_matrix, RobustnessRow};
pub use report::AttackReport;
pub use vectors::{run, AttackVector};
