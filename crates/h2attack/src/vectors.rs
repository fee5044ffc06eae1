//! The malicious-client generator: seven abuse vectors, each a pure
//! function of `(target, seed)` running in virtual time, plus the §VI
//! engines behind three of them ([`slow_receiver`] and its
//! [`connection_window_freeze`] variant, [`table_thrash`],
//! [`priority_churn`]) exposed with their size knobs and the
//! mitigation each one measures.
//!
//! The volumes here are *campaign* volumes — large enough that the
//! online detector separates them from benign page loads by an order
//! of magnitude, small enough that a mixed campaign over hundreds of
//! sites stays fast. The `h2scope::probes::abuse` suite uses larger,
//! limit-exceeding volumes for the robustness matrix; both exist so
//! that probing a bound and simulating an attacker stay distinct jobs.

use serde::{Deserialize, Serialize};

use h2hpack::Header;
use h2scope::{ProbeConn, Reaction, Target, TimedFrame};
use h2server::{ServerProfile, SiteSpec};
use h2wire::{
    DataFrame, ErrorCode, Frame, PingFrame, PriorityFrame, PrioritySpec, RstStreamFrame, SettingId,
    Settings, SettingsFrame, StreamId, WindowUpdateFrame,
};
use netsim::time::SimDuration;

use crate::report::AttackReport;

/// Octets of the connection prelude every vector is charged: the client
/// preface (24) plus a SETTINGS frame carrying one setting (9 + 6).
/// Vectors that send an empty SETTINGS frame are charged the same, so
/// every ledger shares one prelude.
const PRELUDE_OCTETS: u64 = 24 + 9 + 6;

/// Request+RST pairs in a rapid-reset engagement.
pub const RAPID_RESET_STREAMS: u32 = 48;
/// CONTINUATION fragments (1 KiB each) in a flood engagement.
pub const CONTINUATION_FLOOD_FRAGMENTS: u32 = 32;
/// Large objects a slow reader pins at a 1-octet window.
pub const SLOW_READ_STREAMS: u32 = 4;
/// How long the slow reader goes silent before its liveness PING.
pub const SLOW_READ_STALL_SECS: u64 = 90;
/// DATA trickles in a slow-POST engagement.
pub const SLOW_POST_TRICKLES: u32 = 6;
/// Quiet gap between slow-POST trickles.
pub const SLOW_POST_GAP_SECS: u64 = 10;
/// SETTINGS frames in a flood engagement.
pub const SETTINGS_FLOOD_FRAMES: u32 = 120;
/// Requests in a table-thrash engagement.
pub const TABLE_THRASH_REQUESTS: u32 = 48;
/// Idle-stream chain depth in a priority-churn engagement.
pub const PRIORITY_CHURN_DEPTH: u32 = 32;
/// Chain reversals in a priority-churn engagement.
pub const PRIORITY_CHURN_ROUNDS: u32 = 8;

/// The seven abuse vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AttackVector {
    /// Open a stream, cancel it immediately, repeat (CVE-2023-44487's
    /// shape): request work is free, canceled work is not.
    RapidReset,
    /// A header block that never ends: HEADERS without END_HEADERS,
    /// then CONTINUATION fragments forever (RFC 7540 §4.3 sets no cap).
    ContinuationFlood,
    /// Advertise a 1-octet window, request large objects, go silent —
    /// the paper's slow-receiver memory pin (see [`slow_receiver`]).
    SlowRead,
    /// Announce a request body and trickle it an octet at a time with
    /// long quiet gaps, holding request state open indefinitely.
    SlowPost,
    /// SETTINGS frames in bulk: each extorts an ack (RFC 7540 §6.5.3).
    SettingsFlood,
    /// Announce a huge header table and thrash insertions into it
    /// (see [`table_thrash`]).
    TableThrash,
    /// Deep idle-stream dependency chains, repeatedly reversed (see
    /// [`priority_churn`]).
    PriorityChurn,
}

impl AttackVector {
    /// All vectors, in the order tables render them.
    pub const ALL: [AttackVector; 7] = [
        AttackVector::RapidReset,
        AttackVector::ContinuationFlood,
        AttackVector::SlowRead,
        AttackVector::SlowPost,
        AttackVector::SettingsFlood,
        AttackVector::TableThrash,
        AttackVector::PriorityChurn,
    ];

    /// Stable machine-friendly name (what `--vectors` parses).
    pub fn name(self) -> &'static str {
        match self {
            AttackVector::RapidReset => "rapid-reset",
            AttackVector::ContinuationFlood => "continuation-flood",
            AttackVector::SlowRead => "slow-read",
            AttackVector::SlowPost => "slow-post",
            AttackVector::SettingsFlood => "settings-flood",
            AttackVector::TableThrash => "table-thrash",
            AttackVector::PriorityChurn => "priority-churn",
        }
    }

    /// Parses a vector name as produced by [`AttackVector::name`].
    pub fn parse(name: &str) -> Option<AttackVector> {
        AttackVector::ALL.into_iter().find(|v| v.name() == name)
    }
}

impl std::fmt::Display for AttackVector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// First defensive frame wins, same taxonomy as the probe suite.
fn classify(frames: &[TimedFrame]) -> Reaction {
    for tf in frames {
        match &tf.frame {
            Frame::RstStream(_) => return Reaction::RstStream,
            Frame::Goaway(g) => {
                return if g.debug_data.is_empty() {
                    Reaction::Goaway
                } else {
                    Reaction::GoawayWithDebug
                };
            }
            _ => {}
        }
    }
    Reaction::Ignored
}

/// Runs one vector against `target`, seeded so the whole engagement —
/// connection randomness included — replays deterministically.
pub fn run(vector: AttackVector, target: &Target, seed: u64) -> AttackReport {
    match vector {
        AttackVector::RapidReset => rapid_reset(target, seed),
        AttackVector::ContinuationFlood => continuation_flood(target, seed),
        AttackVector::SlowRead => slow_read(target, seed),
        AttackVector::SlowPost => slow_post(target, seed),
        AttackVector::SettingsFlood => settings_flood(target, seed),
        AttackVector::TableThrash => table_thrash(target, 1 << 26, TABLE_THRASH_REQUESTS),
        AttackVector::PriorityChurn => {
            priority_churn(target, PRIORITY_CHURN_DEPTH, PRIORITY_CHURN_ROUNDS).report
        }
    }
}

fn rapid_reset(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e5e7);
    conn.exchange();
    let mut frames = 1u64;
    let mut octets = PRELUDE_OCTETS;
    for k in 0..RAPID_RESET_STREAMS {
        let header_len = conn.get(1 + 2 * k, "/", None) as u64;
        conn.send(Frame::RstStream(RstStreamFrame {
            stream_id: StreamId::new(1 + 2 * k),
            code: ErrorCode::Cancel,
        }));
        frames = frames.saturating_add(2);
        octets = octets.saturating_add(9 + header_len).saturating_add(13);
        if conn.is_dead() {
            break;
        }
    }
    conn.exchange();
    let canceled = u64::from(conn.server().rst_frames_seen());
    AttackReport::new(
        AttackVector::RapidReset,
        frames,
        octets,
        canceled,
        "canceled requests",
        classify(&conn.received),
    )
}

fn continuation_flood(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0xc047);
    conn.exchange();
    let fragment = vec![0u8; 1_024];
    conn.send(Frame::Headers(h2wire::HeadersFrame {
        stream_id: StreamId::new(1),
        fragment: bytes::Bytes::copy_from_slice(&fragment),
        end_stream: false,
        end_headers: false,
        priority: None,
        pad_len: None,
    }));
    let mut frames = 2u64;
    let mut octets = PRELUDE_OCTETS.saturating_add(9 + 1_024);
    for _ in 0..CONTINUATION_FLOOD_FRAGMENTS {
        if conn.is_dead() {
            break;
        }
        conn.send(Frame::Continuation(h2wire::ContinuationFrame {
            stream_id: StreamId::new(1),
            fragment: bytes::Bytes::copy_from_slice(&fragment),
            end_headers: false,
        }));
        frames = frames.saturating_add(1);
        octets = octets.saturating_add(9 + 1_024);
    }
    conn.exchange();
    let buffered = conn.server().core().header_block_accumulated() as u64;
    AttackReport::new(
        AttackVector::ContinuationFlood,
        frames,
        octets,
        buffered,
        "buffered octets",
        classify(&conn.received),
    )
}

/// Requests `streams` large objects under a peer initial window of
/// `window` octets and lets the server send what that window allows.
/// Returns the live connection and the octets the attacker sent.
fn request_big_objects(target: &Target, window: u32, streams: u32, seed: u64) -> (ProbeConn, u64) {
    let settings = Settings::new().with(SettingId::InitialWindowSize, window);
    let mut conn = ProbeConn::establish(target, settings, seed);
    conn.exchange();
    let mut octets = PRELUDE_OCTETS;
    for k in 0..streams {
        let path = format!("/big/{}", 1 + (k % 7));
        octets = octets.saturating_add(9 + conn.get(1 + 2 * k, &path, None) as u64);
    }
    conn.exchange();
    (conn, octets)
}

/// The flow-control ledger: the attacker's spend against the response
/// octets the server still holds queued, unable to send.
fn pinned(conn: &ProbeConn, frames: u64, octets: u64) -> AttackReport {
    AttackReport::new(
        AttackVector::SlowRead,
        frames,
        octets,
        conn.server().pending_response_octets(),
        "pinned octets",
        classify(&conn.received),
    )
}

/// DATA payload octets among `frames`.
fn data_octets(frames: &[TimedFrame]) -> u64 {
    frames
        .iter()
        .filter_map(|tf| match &tf.frame {
            Frame::Data(d) => Some(d.data.len() as u64),
            _ => None,
        })
        .sum()
}

fn slow_read(target: &Target, seed: u64) -> AttackReport {
    let (mut conn, octets) = request_big_objects(target, 1, SLOW_READ_STREAMS, seed ^ 0x510_ead);
    // Silence: the attacker holds the connection open without reading.
    conn.advance(SimDuration::from_secs(SLOW_READ_STALL_SECS));
    conn.send(Frame::Ping(PingFrame::request([0x51; 8])));
    conn.exchange();
    // SETTINGS, one HEADERS per stream, the PING.
    let frames = u64::from(SLOW_READ_STREAMS) + 2;
    pinned(&conn, frames, octets.saturating_add(17))
}

/// A flow-control memory pin: the unified report (cost = pinned response
/// octets) plus the DATA octets the server sent before it stalled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowPin {
    /// The engagement in the unified schema.
    pub report: AttackReport,
    /// Response octets the server emitted before stalling.
    pub leaked_octets: u64,
}

/// The slow receiver (§VI; Sherwood et al.'s misbehaving TCP receiver
/// lifted to HTTP/2 flow control): request `streams` large objects at a
/// 1-octet initial window, then go silent. The server has committed the
/// bodies to its send queue, where they stay pinned.
///
/// ```
/// use h2attack::vectors::slow_receiver;
/// use h2scope::Target;
/// use h2server::{ServerProfile, SiteSpec};
///
/// let victim = Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark());
/// let pin = slow_receiver(&victim, 4);
/// // Deterministic: same target, same stream count, same report.
/// assert_eq!(pin.report.attacker_octets, 152);
/// assert_eq!(pin.report.server_cost, 1_048_572); // kilobytes pinned...
/// assert_eq!(pin.report.amplification, 6_898); // ...per attacker octet
/// ```
pub fn slow_receiver(target: &Target, streams: u32) -> FlowPin {
    let (conn, octets) = request_big_objects(target, 1, streams, 0xd051);
    FlowPin {
        report: pinned(&conn, u64::from(streams) + 1, octets),
        leaked_octets: data_octets(&conn.received),
    }
}

/// The slow receiver's connection-level variant: stream windows stay
/// healthy, but the attacker never replenishes the *connection* window
/// (beyond a useless 1-octet keep-alive update). No lower bound on
/// `SETTINGS_INITIAL_WINDOW_SIZE` prevents it — flow control is
/// inherently dual-use.
pub fn connection_window_freeze(target: &Target, streams: u32) -> FlowPin {
    let (mut conn, octets) = request_big_objects(target, 0x7fff_ffff, streams, 0xd053);
    let leaked_octets = data_octets(&conn.received);
    conn.send(Frame::WindowUpdate(WindowUpdateFrame {
        stream_id: StreamId::CONNECTION,
        increment: 1,
    }));
    conn.exchange();
    FlowPin {
        report: pinned(&conn, u64::from(streams) + 2, octets.saturating_add(13)),
        leaked_octets,
    }
}

fn slow_post(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x510_0057);
    conn.exchange();
    let headers = vec![
        Header::new(":method", "POST"),
        Header::new(":scheme", "https"),
        Header::new(":path", "/"),
        Header::new(":authority", target.site.authority.clone()),
        Header::new("content-type", "application/x-www-form-urlencoded"),
    ];
    let header_len = conn.send_header_block(1, &headers, false) as u64;
    let mut frames = 2u64;
    let mut octets = PRELUDE_OCTETS.saturating_add(9 + header_len);
    conn.exchange();
    for k in 0..SLOW_POST_TRICKLES {
        if conn.is_dead() {
            break;
        }
        conn.advance(SimDuration::from_secs(SLOW_POST_GAP_SECS));
        conn.send(Frame::Data(DataFrame {
            stream_id: StreamId::new(1),
            data: bytes::Bytes::copy_from_slice(&[b'a' + (k % 26) as u8]),
            end_stream: false,
            pad_len: None,
        }));
        frames = frames.saturating_add(1);
        octets = octets.saturating_add(10);
        conn.exchange();
    }
    let stalled = conn.server().pending_request_count() as u64;
    AttackReport::new(
        AttackVector::SlowPost,
        frames,
        octets,
        stalled,
        "stalled requests",
        classify(&conn.received),
    )
}

fn settings_flood(target: &Target, seed: u64) -> AttackReport {
    let mut conn = ProbeConn::establish(target, Settings::new(), seed ^ 0x5e77f);
    conn.exchange();
    let mut frames = 1u64;
    let mut octets = PRELUDE_OCTETS;
    let mut batch = Vec::with_capacity(16);
    let mut sent = 0u32;
    while sent < SETTINGS_FLOOD_FRAMES && !conn.is_dead() {
        batch.clear();
        while batch.len() < 16 && sent < SETTINGS_FLOOD_FRAMES {
            batch.push(Frame::Settings(SettingsFrame::from(Settings::new())));
            sent = sent.saturating_add(1);
        }
        frames = frames.saturating_add(batch.len() as u64);
        octets = octets.saturating_add(9 * batch.len() as u64);
        conn.send_all(&batch);
        conn.exchange();
    }
    let acks = conn
        .received
        .iter()
        .filter(|tf| matches!(&tf.frame, Frame::Settings(s) if s.ack))
        .count() as u64;
    AttackReport::new(
        AttackVector::SettingsFlood,
        frames,
        octets,
        acks,
        "acks extorted",
        classify(&conn.received),
    )
}

/// HPACK dynamic-table pressure (§VI): announce a `table_size`
/// `SETTINGS_HEADER_TABLE_SIZE` and issue `requests` requests whose
/// responses carry ever-changing `set-cookie` values, each another
/// insertion into the victim's encoder table. The cost is the octets
/// that table holds afterwards.
pub fn table_thrash(target: &Target, table_size: u32, requests: u32) -> AttackReport {
    let settings = Settings::new().with(SettingId::HeaderTableSize, table_size);
    let mut conn = ProbeConn::establish(target, settings, 0x7ab1e);
    conn.exchange();
    for k in 0..requests {
        conn.fetch(1 + 2 * k, "/");
    }
    // The thrash's wire cost is its requests: ~40 octets of HEADERS each
    // once the static entries are table hits, plus the prelude.
    let octets = PRELUDE_OCTETS.saturating_add(u64::from(requests).saturating_mul(49));
    AttackReport::new(
        AttackVector::TableThrash,
        u64::from(requests),
        octets,
        conn.server().encoder_table_octets(),
        "table octets",
        Reaction::Ignored,
    )
}

/// A cookie-injecting RFC reference whose encoder table follows the
/// peer's `SETTINGS_HEADER_TABLE_SIZE` when `honor_peer` is set.
fn thrash_victim(honor_peer: bool) -> Target {
    let mut profile = ServerProfile::rfc7540();
    profile.behavior.honor_peer_header_table_size = honor_peer;
    profile.behavior.cookie_injection = true; // fresh set-cookie per response
    Target::testbed(profile, SiteSpec::benchmark())
}

/// The vulnerable [`table_thrash`] victim: it honors any peer table size.
pub fn vulnerable_victim() -> Target {
    thrash_victim(true)
}

/// The mitigated [`table_thrash`] victim: it caps its encoder table at
/// the protocol default whatever the peer announces.
pub fn capped_victim() -> Target {
    thrash_victim(false)
}

/// A priority-churn engagement plus its mitigation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// The engagement in the unified schema (cost = tree nodes).
    pub report: AttackReport,
    /// Tree nodes left after the victim prunes streams that are not
    /// active (none of them ever carried a request).
    pub nodes_after_prune: u64,
}

/// Priority-tree churn (§VI: "force the server to frequently reconstruct
/// the dependency tree"): build a chain of `depth` idle streams with
/// PRIORITY frames — legal on idle streams, no request needed — then
/// reverse it `rounds` times with exclusive reprioritizations, so every
/// frame costs the server a subtree move.
pub fn priority_churn(target: &Target, depth: u32, rounds: u32) -> Churn {
    let mut conn = ProbeConn::establish(target, Settings::new(), 0xc4);
    conn.exchange();
    let dep = |stream: u32, parent: u32, exclusive: bool| {
        Frame::Priority(PriorityFrame {
            stream_id: StreamId::new(stream),
            spec: PrioritySpec {
                exclusive,
                dependency: StreamId::new(parent),
                weight: 256,
            },
        })
    };
    let mut frames = 0u64;
    let mut octets = PRELUDE_OCTETS;
    let mut send = |conn: &mut ProbeConn, batch: &[Frame]| {
        frames = frames.saturating_add(batch.len() as u64);
        octets = octets.saturating_add((batch.len() as u64).saturating_mul(14));
        conn.send_all(batch);
        conn.exchange();
    };

    // The chain 1 <- 3 <- 5 <- ... on idle streams.
    let ids: Vec<u32> = (0..depth).map(|k| 2 * k + 1).collect();
    let chain: Vec<Frame> = ids.windows(2).map(|w| dep(w[1], w[0], false)).collect();
    send(&mut conn, &chain);
    // Each round yanks the tail to the root exclusively (adopting
    // everything), then pushes it back under the head: maximal subtree
    // movement per frame.
    if let (Some(&head), Some(&tail)) = (ids.first(), ids.last()) {
        for _ in 0..rounds {
            send(&mut conn, &[dep(tail, 0, true), dep(tail, head, false)]);
        }
    }

    let tree = conn.server().core().priority();
    let mut pruned = tree.clone();
    pruned.prune(|_| false);
    Churn {
        report: AttackReport::new(
            AttackVector::PriorityChurn,
            frames,
            octets,
            tree.len() as u64,
            "tree nodes",
            Reaction::Ignored,
        ),
        nodes_after_prune: pruned.len() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Target {
        Target::testbed(ServerProfile::rfc7540(), SiteSpec::benchmark())
    }

    #[test]
    fn vector_names_round_trip() {
        for v in AttackVector::ALL {
            assert_eq!(AttackVector::parse(v.name()), Some(v));
        }
        assert_eq!(AttackVector::parse("nope"), None);
    }

    #[test]
    fn rapid_reset_counts_canceled_requests() {
        let r = run(AttackVector::RapidReset, &reference(), 0);
        assert_eq!(r.server_cost, u64::from(RAPID_RESET_STREAMS));
        assert!(!r.defended, "the RFC reference has no reset budget");
    }

    #[test]
    fn rapid_reset_is_cut_short_by_a_hardened_server() {
        let target = Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark());
        let r = run(AttackVector::RapidReset, &target, 0);
        assert!(!r.defended, "48 resets sit far under H2O's 400 budget");
    }

    #[test]
    fn continuation_flood_pins_the_open_block() {
        let r = run(AttackVector::ContinuationFlood, &reference(), 0);
        assert_eq!(r.server_cost, 1_024 * 33, "HEADERS + 32 fragments");
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::ContinuationFlood, &apache, 0);
        assert!(r.defended, "33 KiB crosses Apache's 16 KiB cap");
    }

    #[test]
    fn slow_read_pins_response_bodies() {
        let r = run(AttackVector::SlowRead, &reference(), 0);
        assert_eq!(r.vector, AttackVector::SlowRead);
        assert!(r.server_cost > 1_000_000, "{r:?}");
        assert!(r.amplification > 1_000, "{r:?}");
    }

    #[test]
    fn slow_read_is_reaped_by_stall_timeouts() {
        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SlowRead, &apache, 0);
        assert_eq!(r.reaction, Reaction::GoawayWithDebug, "{r:?}");
    }

    #[test]
    fn slow_post_holds_a_request_open() {
        let r = run(AttackVector::SlowPost, &reference(), 0);
        assert_eq!(r.server_cost, 1, "one forever-pending request");
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SlowPost, &apache, 0);
        assert!(r.defended, "trickles past 30 s hit Apache's stall reaper");
    }

    #[test]
    fn settings_flood_extorts_acks() {
        let r = run(AttackVector::SettingsFlood, &reference(), 0);
        assert_eq!(r.server_cost, u64::from(SETTINGS_FLOOD_FRAMES) + 1);
        assert!(!r.defended);

        let apache = Target::testbed(ServerProfile::apache(), SiteSpec::benchmark());
        let r = run(AttackVector::SettingsFlood, &apache, 0);
        assert!(r.defended, "120 frames cross Apache's 100 budget");
        assert!(r.server_cost <= 101, "acks stop at the budget: {r:?}");
    }

    #[test]
    fn folded_vectors_report_through_the_same_schema() {
        let thrash = run(AttackVector::TableThrash, &reference(), 0);
        assert_eq!(thrash.cost_unit, "table octets");
        let churn = run(AttackVector::PriorityChurn, &reference(), 0);
        assert_eq!(churn.cost_unit, "tree nodes");
        assert_eq!(churn.server_cost, u64::from(PRIORITY_CHURN_DEPTH));
    }

    #[test]
    fn tiny_window_pins_large_response_bodies() {
        let pin = slow_receiver(&reference(), 8);
        // Eight 256 KiB objects, minus one leaked octet per stream.
        assert!(pin.report.server_cost > 2_000_000, "{pin:?}");
        assert!(pin.report.attacker_octets < 1_000, "{pin:?}");
        assert!(pin.report.amplification > 2_000, "{pin:?}");
        assert_eq!(pin.leaked_octets, 8, "one octet per 1-window stream");
    }

    #[test]
    fn amplification_scales_with_stream_count() {
        let small = slow_receiver(&reference(), 2).report;
        let large = slow_receiver(&reference(), 16).report;
        assert!(
            large.server_cost > 4 * small.server_cost,
            "{small:?} vs {large:?}"
        );
    }

    #[test]
    fn connection_window_freeze_leaks_only_the_connection_window() {
        let pin = connection_window_freeze(&reference(), 8);
        // The server leaks at most the 65,535-octet initial connection
        // window, then everything else is pinned.
        assert!(pin.leaked_octets <= 65_535, "{pin:?}");
        assert!(pin.report.server_cost > 1_900_000, "{pin:?}");
    }

    #[test]
    fn litespeed_style_fc_on_headers_pins_even_more() {
        // A server that also withholds HEADERS keeps the entire response
        // (headers + body) queued.
        let target = Target::testbed(ServerProfile::litespeed(), SiteSpec::benchmark());
        let pin = slow_receiver(&target, 4);
        assert_eq!(pin.leaked_octets, 0, "nothing escapes at all");
        assert!(pin.report.server_cost > 1_000_000);
    }

    const HUGE: u32 = 64 * 1024 * 1024; // the attacker asks for 64 MiB

    #[test]
    fn obedient_victim_grows_without_bound() {
        let r = table_thrash(&vulnerable_victim(), HUGE, 200);
        // Each response inserts a fresh ~50-octet cookie entry; nothing is
        // ever evicted because the ceiling is astronomically high.
        assert!(r.server_cost > 10_000, "table should balloon: {r:?}");
    }

    #[test]
    fn capped_victim_stays_within_the_default() {
        let r = table_thrash(&capped_victim(), HUGE, 200);
        assert!(
            r.server_cost <= 4_096,
            "mitigated table must respect the 4 KiB default: {r:?}"
        );
    }

    #[test]
    fn growth_scales_with_request_count_on_vulnerable_victims() {
        let small = table_thrash(&vulnerable_victim(), HUGE, 20);
        let large = table_thrash(&vulnerable_victim(), HUGE, 200);
        assert!(
            large.server_cost > 5 * small.server_cost,
            "{small:?} vs {large:?}"
        );
    }

    #[test]
    fn non_indexing_servers_are_immune() {
        // Nginx never inserts response headers into the table at all.
        let mut profile = ServerProfile::nginx();
        profile.behavior.honor_peer_header_table_size = true;
        profile.behavior.cookie_injection = true;
        let target = Target::testbed(profile, SiteSpec::benchmark());
        assert_eq!(table_thrash(&target, HUGE, 100).server_cost, 0);
    }

    fn h2o() -> Target {
        Target::testbed(ServerProfile::h2o(), SiteSpec::benchmark())
    }

    #[test]
    fn idle_priority_frames_grow_the_tree_for_free() {
        let churn = priority_churn(&h2o(), 64, 10);
        assert_eq!(churn.report.server_cost, 64, "one node per idle stream");
        assert!(churn.report.attacker_octets < 2_500, "{churn:?}");
    }

    #[test]
    fn pruning_reclaims_everything() {
        let churn = priority_churn(&h2o(), 128, 5);
        assert_eq!(churn.report.server_cost, 128);
        assert_eq!(churn.nodes_after_prune, 0);
    }

    #[test]
    fn server_survives_a_large_storm_consistently() {
        // 256-deep chain reversed 50 times: the engine must stay sound.
        let churn = priority_churn(&h2o(), 256, 50);
        assert_eq!(churn.report.attacker_frames, 255 + 100);
        assert_eq!(churn.report.server_cost, 256);
    }

    #[test]
    fn priority_ignoring_servers_still_track_the_tree_state() {
        // Even FCFS servers (Nginx) maintain the tree in our engine; the
        // attack surface is the state, not the scheduler.
        let target = Target::testbed(ServerProfile::nginx(), SiteSpec::benchmark());
        assert_eq!(priority_churn(&target, 32, 3).report.server_cost, 32);
    }

    #[test]
    fn dos_vectors_example_numbers_are_pinned() {
        // The figures `examples/dos_vectors.rs` prints for the RFC
        // reference; any engine change that moves them must be deliberate.
        let victim = reference();
        let pin = slow_receiver(&victim, 4).report;
        assert_eq!(
            (pin.attacker_octets, pin.server_cost, pin.amplification),
            (152, 1_048_572, 6_898)
        );
        let pin = slow_receiver(&victim, 64).report;
        assert_eq!((pin.attacker_octets, pin.server_cost), (1_130, 16_777_152));
        let freeze = connection_window_freeze(&victim, 16);
        assert_eq!(
            (freeze.leaked_octets, freeze.report.server_cost),
            (65_535, 4_128_768)
        );
        assert_eq!(
            table_thrash(&vulnerable_victim(), 1 << 26, 800).server_cost,
            59_463
        );
        assert_eq!(
            table_thrash(&capped_victim(), 1 << 26, 800).server_cost,
            4_037
        );
        let churn = priority_churn(&victim, 1_024, 20);
        assert_eq!(
            (
                churn.report.attacker_frames,
                churn.report.attacker_octets,
                churn.report.server_cost,
                churn.nodes_after_prune
            ),
            (1_063, 14_921, 1_024, 0)
        );
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        for v in AttackVector::ALL {
            let a = run(v, &reference(), 42);
            let b = run(v, &reference(), 42);
            assert_eq!(a, b, "{v} must replay identically");
        }
    }
}
