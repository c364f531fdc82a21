//! Layer replays for the traced run: each times calls into one layer's
//! public functions on the workload's own inputs and sizes, from outside
//! the program. They run after the measured phases, so they never
//! disturb the figures the measured phases report.

use crate::report::{Report, MB};
use crate::stats::{median_us, time_us};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;
use xsearch_core::filter::filter_results;
use xsearch_core::history::QueryHistory;
use xsearch_core::obfuscate::obfuscate;
use xsearch_core::persistence::HistoryVault;
use xsearch_core::redirect::strip_all;
use xsearch_core::session::{SecureChannel, Side};
use xsearch_core::wire::{encode_results_into, encoded_len};
use xsearch_crypto::aead::TAG_LEN;
use xsearch_crypto::x25519::PublicKey;
use xsearch_engine::engine::{SearchEngine, SearchResult};
use xsearch_net_sim::{stream_pair, ByteStream, FrameDecoder, FrameEncoder};
use xsearch_sgx_sim::epc::EpcGauge;
use xsearch_sgx_sim::measurement::Measurement;
use xsearch_sgx_sim::sealed::SealingPlatform;

/// Privacy parameter of every workload.
pub const K: usize = 3;
/// Results the proxy asks the engine for, per sub-query.
const RESULTS_PER_QUERY: usize = 20;
/// Queries each replay runs.
const REPLAY_QUERIES: usize = 400;

/// What the replays need from the workload.
pub struct Replay<'a> {
    pub engine: &'a Arc<SearchEngine>,
    pub train: &'a [String],
    /// A sample of the queries the workload sends.
    pub queries: Vec<&'a str>,
    /// History window of the workload's proxies.
    pub window: usize,
    /// Echo workloads carry no results back.
    pub echo: bool,
    pub measurement: Measurement,
    pub seed: u64,
}

/// Sizes the replays found, for the codec replay and the stage table.
pub struct Sizes {
    pub query_plain: usize,
    pub reply_plain: usize,
}

/// Runs the history, obfuscation, engine, filter, wire, persistence and
/// session replays, and sets their metrics.
pub fn replay(r: &Replay<'_>, rep: &mut Report) -> Sizes {
    let history = QueryHistory::new(r.window, EpcGauge::new());
    for q in crate::inputs::window(r.train, r.window, r.seed) {
        history.push(q);
    }
    rep.set(
        "history.bytes_per_query",
        history.memory_bytes() as f64 / history.len().max(1) as f64,
    );

    let mut rng = StdRng::seed_from_u64(r.seed);
    let n = REPLAY_QUERIES.min(r.queries.len() * 4);
    let queries: Vec<&str> = r.queries.iter().copied().cycle().take(n).collect();
    let mut obf_ns = Vec::with_capacity(n);
    let mut engine_ns = Vec::with_capacity(n);
    let mut filter_ns = Vec::with_capacity(n);
    let mut encode_ns = Vec::with_capacity(n);
    let (mut merged_total, mut kept_total, mut reply_bytes) = (0usize, 0usize, 0usize);
    let mut buf = Vec::new();
    for q in &queries {
        let t = Instant::now();
        let obfuscated = obfuscate(q, &history, K, &mut rng);
        obf_ns.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let merged = r
            .engine
            .search_merged(&obfuscated.subqueries, RESULTS_PER_QUERY);
        engine_ns.push(t.elapsed().as_nanos() as u64);
        merged_total += merged.len();
        let t = Instant::now();
        let mut kept = filter_results(q, &obfuscated.fakes(), merged);
        strip_all(&mut kept);
        filter_ns.push(t.elapsed().as_nanos() as u64);
        kept_total += kept.len();
        let delivered: &[SearchResult] = if r.echo { &[] } else { &kept };
        let t = Instant::now();
        buf.clear();
        encode_results_into(delivered, &mut buf);
        encode_ns.push(t.elapsed().as_nanos() as u64);
        reply_bytes += encoded_len(delivered);
    }
    rep.set("obfuscate.us", median_us(&obf_ns));
    rep.set("engine.search_us", median_us(&engine_ns));
    rep.set("engine.results_per_req", merged_total as f64 / n as f64);
    rep.set("filter.us", median_us(&filter_ns));
    rep.set(
        "filter.kept_ratio",
        kept_total as f64 / merged_total.max(1) as f64,
    );
    rep.set("wire.encode_us", median_us(&encode_ns));

    // Persistence: one full-window seal, as the fleet does per batch.
    let vault = HistoryVault::new(SealingPlatform::from_seed(r.seed), r.measurement);
    let reps = if r.window >= 100_000 { 3 } else { 200 };
    let mut blob_len = 0;
    let seal_us = time_us(reps, || {
        blob_len = vault.seal(&history, &mut rng).encode().len();
    });
    rep.set("persistence.seal_ms", seal_us / 1e3);
    rep.set("persistence.blob_mb", blob_len as f64 / MB);

    let sizes = Sizes {
        query_plain: queries.iter().map(|q| q.len()).sum::<usize>() / n.max(1),
        reply_plain: reply_bytes / n.max(1),
    };
    let (open_us, seal_us) = session_replay(&sizes);
    rep.set("session.open_us", open_us);
    rep.set("session.seal_us", seal_us);
    sizes
}

/// The enclave side of the tunnel at the workload's payload sizes:
/// opening a query and sealing a reply.
fn session_replay(sizes: &Sizes) -> (f64, f64) {
    let (cp, sp) = (PublicKey([1; 32]), PublicKey([2; 32]));
    let shared = [7u8; 32];
    let mut client = SecureChannel::establish(Side::Client, &shared, &cp, &sp);
    let mut server = SecureChannel::establish(Side::Server, &shared, &cp, &sp);
    let query = vec![b'q'; sizes.query_plain];
    let reply = vec![b'r'; sizes.reply_plain];
    let (mut sealed, mut plain, mut out) = (Vec::new(), Vec::new(), Vec::new());
    let (mut open_ns, mut seal_ns) = (Vec::new(), Vec::new());
    for _ in 0..5_000 {
        client.seal_into(b"query", &query, &mut sealed);
        let t = Instant::now();
        server
            .open_into(b"query", &sealed, &mut plain)
            .expect("replayed query opens");
        open_ns.push(t.elapsed().as_nanos() as u64);
        out.clear();
        out.reserve(reply.len() + TAG_LEN);
        out.extend_from_slice(&reply);
        let t = Instant::now();
        server.seal_in_place(b"results", &mut out);
        seal_ns.push(t.elapsed().as_nanos() as u64);
        client
            .open_into(b"results", &out, &mut plain)
            .expect("replayed reply opens");
    }
    (median_us(&open_ns), median_us(&seal_ns))
}

/// Frame encode and decode of one request and one reply of the
/// workload's sizes over an in-process stream pair, in µs per request.
pub fn codec_us(sizes: &Sizes) -> f64 {
    let request = vec![0u8; 1 + 32 + sizes.query_plain + TAG_LEN];
    let reply = vec![0u8; 1 + sizes.reply_plain + TAG_LEN];
    let (a, b) = stream_pair(4096);
    let (mut da, mut db) = (FrameDecoder::new(), FrameDecoder::new());
    time_us(5_000, || {
        transfer(&a, &b, &request, &mut db);
        transfer(&b, &a, &reply, &mut da);
    })
}

fn transfer(from: &ByteStream, to: &ByteStream, payload: &[u8], decoder: &mut FrameDecoder) {
    let mut encoder = FrameEncoder::new(payload.len());
    loop {
        let done = encoder.write_to(from, payload).expect("replay stream open");
        let _ = decoder.read_from(to, 1 << 16);
        if done {
            break;
        }
    }
    while decoder.next_frame().expect("replay frame").is_none() {
        let _ = decoder.read_from(to, 1 << 16);
    }
}
