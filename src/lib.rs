//! # h2ready — reproduction of *"Are HTTP/2 Servers Ready Yet?"* (ICDCS 2017)
//!
//! This facade crate re-exports the protocol stack, the probing tool and
//! the population so that examples and downstream users can depend on a
//! single crate:
//!
//! * [`wire`] — RFC 7540 binary framing ([`h2wire`]).
//! * [`hpack`] — RFC 7541 header compression ([`h2hpack`]).
//! * [`conn`] — connection/stream state machine, flow control and the
//!   priority dependency tree ([`h2conn`]).
//! * [`netsim`] — deterministic discrete-event network simulator.
//! * [`server`] — the configurable HTTP/2 server engine and the behavior
//!   profiles of the six servers the paper examines ([`h2server`]).
//! * [`scope`] — **H2Scope**, the paper's probing tool ([`h2scope`]).
//! * [`webpop`] — the synthetic top-1M website population.
//!
//! The studies built on top — fault injection (`h2fault`), campaign
//! records (`h2campaign`), the §VI abuse vectors (`h2attack`) and the
//! query daemon (`h2serve`) — are workspace crates of their own;
//! `examples/dos_vectors.rs` uses `h2attack` directly.
//!
//! # Quickstart
//!
//! Probe a simulated Nginx server exactly as the paper probes its testbed:
//!
//! ```
//! use h2ready::server::{ServerProfile, SiteSpec};
//! use h2ready::scope::{H2Scope, testbed::Testbed};
//!
//! let testbed = Testbed::new(ServerProfile::nginx(), SiteSpec::benchmark());
//! let scope = H2Scope::new();
//! let report = scope.characterize(&testbed);
//! assert!(report.negotiation.alpn_h2);
//! assert!(!report.push.supported); // Nginx 1.9.15 did not implement push
//! ```

pub use h2conn as conn;
pub use h2hpack as hpack;
pub use h2scope as scope;
pub use h2server as server;
pub use h2wire as wire;
pub use netsim;
pub use webpop;
