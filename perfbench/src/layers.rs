//! Per-layer costs timed from outside: calls into each layer's public
//! functions at the sizes a workload uses, plus the attribution terms
//! that turn those costs and the h2obs operation counts into a share of
//! the measured CPU per operation.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use h2conn::{FlowWindow, PriorityTree};
use h2hpack::{Decoder, Encoder, Header};
use h2obs::CampaignSnapshot;
use h2scope::{ProbeConn, Target};
use h2server::H2Server;
use h2wire::{
    DataFrame, Frame, FrameDecoder, HeadersFrame, PingFrame, PrioritySpec, RstStreamFrame,
    SettingId, Settings, SettingsFrame, StreamId, WindowUpdateFrame, CONNECTION_PREFACE,
};
use netsim::{ByteEndpoint, SimTime};

use crate::metrics::Metrics;
use crate::stats;
use crate::workload::LayerCtx;

/// Wall-clock budget of one micro-timing.
const BUDGET: Duration = Duration::from_millis(40);

/// Runs `batch(iters)` repeatedly for [`BUDGET`] (at least five times)
/// and returns the median nanoseconds per iteration.
fn ns_per_iter(iters: u64, mut batch: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        let t = Instant::now();
        batch(iters);
        samples.push(t.elapsed().as_nanos() as f64 / iters as f64);
    }
    stats::median(&samples)
}

/// Header lists a workload sends and receives, for the HPACK timings.
#[derive(Debug, Default, Clone)]
pub struct HeaderSample {
    /// Request lists as `ProbeConn::request_headers` builds them.
    pub requests: Vec<Vec<Header>>,
    /// Response lists as the server sent them (decoded by the client).
    pub responses: Vec<Vec<Header>>,
}

impl HeaderSample {
    /// Fetches each path on one connection to `target`, keeping the
    /// request lists and every decoded response list.
    pub fn fetch(target: &Target, paths: &[String]) -> HeaderSample {
        let mut conn = ProbeConn::establish(target, Settings::new(), 0x6eade5);
        conn.exchange();
        let mut sample = HeaderSample::default();
        let mut stream = 1;
        for path in paths {
            sample.requests.push(conn.request_headers(path));
            let (frames, _) = conn.fetch(stream, path);
            stream += 2;
            for tf in frames {
                if let Some(list) = tf.headers {
                    sample.responses.push(list.iter().cloned().collect());
                }
            }
        }
        sample
    }
}

/// What the h2wire, h2hpack, h2conn, h2server and netsim micro-timings
/// run on: a workload's sizes, header lists and targets.
#[derive(Debug)]
pub struct LayerInputs<'a> {
    /// Mean DATA payload the workload moves per frame, octets.
    pub data_frame: usize,
    /// Header lists the workload exchanges.
    pub headers: &'a HeaderSample,
    /// Targets the workload connects to.
    pub targets: &'a [Target],
    /// Server request timing: a target and its small and big paths.
    pub server: (&'a Target, &'a str, &'a str),
}

/// Runs every micro-timing.
pub fn measure(inputs: &LayerInputs<'_>, out: &mut Metrics) {
    let (enc, dec) = data_frame_ns(inputs.data_frame);
    let kib = inputs.data_frame as f64 / 1024.0;
    out.set("h2wire.encode_ns_per_kib", enc / kib);
    out.set("h2wire.decode_ns_per_kib", dec / kib);
    out.set("h2wire.control_frame_ns", control_frame_ns());
    let (henc, hdec) = hpack_ns_per_block(inputs.headers);
    out.set("h2hpack.encode_ns_per_block", henc);
    out.set("h2hpack.decode_ns_per_block", hdec);
    out.set(
        "h2hpack.huffman_decode_mib_s",
        huffman_decode_mib_s(inputs.headers),
    );
    out.set("h2conn.priority_op_ns", priority_op_ns());
    out.set("h2conn.window_op_ns", window_op_ns());
    out.set("netsim.connect_us", connect_us(inputs.targets));
    let (target, small, big) = inputs.server;
    out.set(
        "h2server.request_us.small",
        server_request_us(target, small),
    );
    out.set(
        "h2server.request_us.big_body",
        server_request_us(target, big),
    );
}

/// Encode and decode nanoseconds of one DATA frame of `size` octets.
fn data_frame_ns(size: usize) -> (f64, f64) {
    let frame = Frame::Data(DataFrame {
        stream_id: StreamId::new(1),
        data: Bytes::from(vec![0x5a; size]),
        end_stream: false,
        pad_len: None,
    });
    let mut buf = Vec::with_capacity(size + 16);
    let enc = ns_per_iter(256, |n| {
        for _ in 0..n {
            buf.clear();
            black_box(&frame).encode(&mut buf);
            black_box(&buf);
        }
    });
    let frames = 64;
    let mut wire = Vec::new();
    for _ in 0..frames {
        frame.encode(&mut wire);
    }
    let max = u32::try_from(size.max(16_384)).unwrap_or(u32::MAX);
    let dec = ns_per_iter(1, |n| {
        for _ in 0..n {
            let mut decoder = FrameDecoder::new();
            decoder.set_max_frame_size(max);
            decoder.feed(black_box(&wire));
            while let Ok(Some(f)) = decoder.next_frame() {
                black_box(f);
            }
        }
    }) / f64::from(frames);
    (enc, dec)
}

/// Encode plus decode nanoseconds of one control frame, averaged over
/// the WINDOW_UPDATE / SETTINGS / PING / RST_STREAM mix every connection
/// exchanges.
fn control_frame_ns() -> f64 {
    let frames = [
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(0),
            increment: 65_535,
        }),
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(1),
            increment: 16_384,
        }),
        Frame::Settings(SettingsFrame::from(
            Settings::new()
                .with(SettingId::InitialWindowSize, 65_535)
                .with(SettingId::MaxConcurrentStreams, 100),
        )),
        Frame::Settings(SettingsFrame::ack()),
        Frame::Ping(PingFrame::request(*b"h2scope!")),
        Frame::RstStream(RstStreamFrame {
            stream_id: StreamId::new(3),
            code: h2wire::ErrorCode::Cancel,
        }),
    ];
    let mut wire = Vec::new();
    ns_per_iter(64, |n| {
        for _ in 0..n {
            wire.clear();
            for f in &frames {
                black_box(f).encode(&mut wire);
            }
            let mut decoder = FrameDecoder::new();
            decoder.feed(&wire);
            while let Ok(Some(f)) = decoder.next_frame() {
                black_box(f);
            }
        }
    }) / frames.len() as f64
}

/// Encode and decode nanoseconds per header block over the sample's
/// request and response lists, with one encoder/decoder pair carrying
/// its dynamic table across blocks as a connection does.
fn hpack_ns_per_block(sample: &HeaderSample) -> (f64, f64) {
    let blocks: Vec<&Vec<Header>> = sample.requests.iter().chain(&sample.responses).collect();
    if blocks.is_empty() {
        return (0.0, 0.0);
    }
    let mut encoder = Encoder::new();
    let mut decoder = Decoder::new();
    let mut encoded: Vec<Vec<u8>> = vec![Vec::new(); blocks.len()];
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while enc.len() < 5 || start.elapsed() < BUDGET * 2 {
        let t = Instant::now();
        for (list, out) in blocks.iter().zip(encoded.iter_mut()) {
            out.clear();
            encoder.encode_block_into(list.iter(), out);
        }
        enc.push(t.elapsed().as_nanos() as f64 / blocks.len() as f64);
        let t = Instant::now();
        for block in &encoded {
            let _ = black_box(decoder.decode_block(black_box(block)));
        }
        dec.push(t.elapsed().as_nanos() as f64 / blocks.len() as f64);
    }
    (stats::median(&enc), stats::median(&dec))
}

/// Huffman decode throughput over every name and value in the sample.
fn huffman_decode_mib_s(sample: &HeaderSample) -> f64 {
    let mut coded = Vec::new();
    let mut raw_len = 0usize;
    for h in sample.requests.iter().chain(&sample.responses).flatten() {
        for s in [&h.name, &h.value] {
            let mut out = Vec::new();
            h2hpack::huffman::encode(s.as_bytes(), &mut out);
            raw_len += s.len();
            coded.push(out);
        }
    }
    if raw_len == 0 {
        return 0.0;
    }
    let ns = ns_per_iter(1, |n| {
        for _ in 0..n {
            for c in &coded {
                let _ = black_box(h2hpack::huffman::decode(black_box(c)));
            }
        }
    });
    raw_len as f64 / (1024.0 * 1024.0) / (ns / 1e9)
}

/// Nanoseconds per priority-tree operation on the tree the priority probe
/// builds (Table I: A under the root; B, C, D under A; E under B; F under
/// D), as declare, schedule and remove cycles.
fn priority_op_ns() -> f64 {
    let dep = |parent: u32| PrioritySpec {
        exclusive: false,
        dependency: StreamId::new(parent),
        weight: 1,
    };
    let tree_spec = [(1, 0), (3, 1), (5, 1), (7, 1), (9, 3), (11, 7)];
    let ops = tree_spec.len() * 3;
    ns_per_iter(64, |n| {
        for _ in 0..n {
            let mut tree = PriorityTree::new();
            for &(id, parent) in &tree_spec {
                let _ = tree.declare(StreamId::new(id), dep(parent));
            }
            for _ in 0..tree_spec.len() {
                black_box(tree.next_stream(|s| s.value() % 4 == 1));
            }
            for &(id, _) in tree_spec.iter().rev() {
                tree.remove(StreamId::new(id));
            }
            black_box(&tree);
        }
    }) / ops as f64
}

/// Nanoseconds per flow-window operation at the window sizes the
/// flow-control probes use (one octet, the 65,535 default, 2^31-1).
fn window_op_ns() -> f64 {
    let sizes = [1u32, 65_535, 0x7fff_ffff];
    let ops = sizes.len() * 64 * 3;
    ns_per_iter(16, |n| {
        for _ in 0..n {
            for &size in &sizes {
                let mut w = FlowWindow::new(size);
                for _ in 0..64 {
                    let chunk = black_box(w.sendable(16_384));
                    let _ = w.consume(chunk);
                    let _ = w.expand(chunk.max(1));
                }
                black_box(w.available());
            }
        }
    }) / ops as f64
}

/// Microseconds per `Target::connect` over the workload's targets.
fn connect_us(targets: &[Target]) -> f64 {
    if targets.is_empty() {
        return 0.0;
    }
    let mut seed = 0u64;
    let mut pipes = Vec::with_capacity(targets.len());
    ns_per_iter(1, |n| {
        for _ in 0..n {
            for t in targets {
                seed += 1;
                pipes.push(t.connect(seed));
            }
        }
        pipes.clear();
    }) / targets.len() as f64
        / 1_000.0
}

/// Microseconds for an `H2Server` to answer one GET of `path` fed as
/// client bytes through `ByteEndpoint::on_bytes`, on a connection whose
/// client opened every window so whole bodies are emitted.
fn server_request_us(target: &Target, path: &str) -> f64 {
    const REQUESTS: u32 = 32;
    let fresh = || {
        let mut server = H2Server::new(Arc::clone(&target.profile), Arc::clone(&target.site));
        if let Some(hook) = &target.handler {
            server.set_handler(hook.make());
        }
        let mut prelude = CONNECTION_PREFACE.to_vec();
        Frame::Settings(SettingsFrame::from(
            Settings::new().with(SettingId::InitialWindowSize, 0x7fff_ffff),
        ))
        .encode(&mut prelude);
        Frame::WindowUpdate(WindowUpdateFrame {
            stream_id: StreamId::new(0),
            increment: 0x7fff_ffff - 65_535,
        })
        .encode(&mut prelude);
        let mut out = Vec::new();
        server.on_bytes(SimTime::ZERO, &prelude, &mut out);
        let mut encoder = Encoder::new();
        let requests: Vec<Vec<u8>> = (0..REQUESTS)
            .map(|k| {
                let headers = [
                    Header::new(":method", "GET"),
                    Header::new(":scheme", "https"),
                    Header::new(":path", path),
                    Header::new(":authority", target.site.authority.clone()),
                    Header::new("user-agent", "h2scope/0.1"),
                ];
                let mut wire = Vec::new();
                Frame::Headers(HeadersFrame {
                    stream_id: StreamId::new(2 * k + 1),
                    fragment: Bytes::from(encoder.encode_block(headers.iter())),
                    end_stream: true,
                    end_headers: true,
                    priority: None,
                    pad_len: None,
                })
                .encode(&mut wire);
                wire
            })
            .collect();
        (server, requests)
    };
    let mut samples = Vec::new();
    let start = Instant::now();
    let mut out = Vec::new();
    while samples.len() < 5 || start.elapsed() < BUDGET {
        let (mut server, requests) = fresh();
        let t = Instant::now();
        for req in &requests {
            out.clear();
            server.on_bytes(SimTime::ZERO, req, &mut out);
            black_box(&out);
        }
        samples.push(t.elapsed().as_nanos() as f64 / f64::from(REQUESTS));
    }
    stats::median(&samples) / 1_000.0
}

/// h2obs operation counts per op: connections, wire bytes, frames by
/// class and HPACK header blocks.
pub fn obs_counts(snap: &CampaignSnapshot, ops: u64, out: &mut Metrics) {
    let per = |v: u64| stats::ratio(v as f64, ops as f64);
    let both = |kind: u8| {
        let slot = h2obs::metrics::frame_slot(kind);
        snap.client_sent[slot] + snap.client_received[slot]
    };
    let all: u64 = snap.client_sent.iter().chain(&snap.client_received).sum();
    let data = both(0x0);
    let headers = both(0x1) + both(0x5) + both(0x9);
    out.set("netsim.conns_per_op", per(snap.conns_opened));
    out.set("netsim.bytes_to_client_per_op", per(snap.bytes_to_client));
    out.set("netsim.bytes_to_server_per_op", per(snap.bytes_to_server));
    out.set("h2wire.frames_per_op.data", per(data));
    out.set("h2wire.frames_per_op.headers", per(headers));
    out.set("h2wire.frames_per_op.control", per(all - data - headers));
    out.set("h2hpack.blocks_per_op", per(both(0x1) + both(0x5)));
}

/// Mean DATA payload per DATA frame the workload moved (the frame size
/// the wire timings use), bounded to one default-sized frame.
pub fn mean_data_frame(snap: &CampaignSnapshot) -> usize {
    let slot = h2obs::metrics::frame_slot(0x0);
    let frames = snap.client_sent[slot] + snap.client_received[slot];
    let bytes = (snap.bytes_to_client + snap.bytes_to_server) as f64;
    // Frame headers and control frames ride in the byte count too; the
    // bound keeps the estimate within what one DATA frame can carry.
    (stats::ratio(bytes, frames as f64) as usize).clamp(64, 16_384)
}

/// The attribution terms every workload shares, in µs per op: site
/// generation, connection set-up, DATA and control framing, and header
/// blocks, each a per-op count times a per-call cost.
pub fn common_terms(m: &Metrics, sites_per_op: f64) -> Vec<(&'static str, f64)> {
    let kib =
        (m.get("netsim.bytes_to_client_per_op") + m.get("netsim.bytes_to_server_per_op")) / 1024.0;
    vec![
        ("webpop.site", m.get("webpop.site_us") * sites_per_op),
        (
            "netsim.connect",
            m.get("netsim.connect_us") * m.get("netsim.conns_per_op"),
        ),
        (
            "h2wire.data",
            (m.get("h2wire.encode_ns_per_kib") + m.get("h2wire.decode_ns_per_kib")) * kib / 1e3,
        ),
        (
            "h2wire.control",
            m.get("h2wire.control_frame_ns") * m.get("h2wire.frames_per_op.control") / 1e3,
        ),
        (
            "h2hpack.blocks",
            (m.get("h2hpack.encode_ns_per_block") + m.get("h2hpack.decode_ns_per_block"))
                * m.get("h2hpack.blocks_per_op")
                / 1e3,
        ),
    ]
}

/// Prints the attribution terms and sets `attribution.explained_share`:
/// their sum over the measured untraced CPU per op.
pub fn attribute(terms: &[(&'static str, f64)], ctx: &LayerCtx<'_>, out: &mut Metrics) {
    let explained: f64 = terms.iter().map(|(_, us)| us).sum();
    for (name, us) in terms {
        println!("attribution {name:<22} {us:>12.3} us/op");
    }
    println!(
        "attribution {:<22} {explained:>12.3} us/op of {:.3} us/op measured",
        "total", ctx.cpu_us_per_op
    );
    out.set(
        "attribution.explained_share",
        stats::ratio(explained, ctx.cpu_us_per_op),
    );
}
