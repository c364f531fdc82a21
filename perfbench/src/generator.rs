//! The pipelined load generator for the framed front.
//!
//! One thread keeps at most one request in flight on each of many framed
//! sessions. It is built only from the public client pieces (a
//! [`Broker`] or a bare [`SecureChannel`] for the tunnel,
//! [`encode_conn_request_into`] and [`encode_frame_into`] for the
//! request, [`FrameDecoder`] and [`decode_conn_reply`] for the reply),
//! and it registers the client ends of its streams with a [`Reactor`] of
//! its own, so between sends it blocks on their readiness rather than
//! spinning or sleeping on a fixed tick.
//!
//! Two loops:
//! * **closed** — every session always has exactly one request in
//!   flight; the next is sent the moment a reply is opened;
//! * **open** — requests are due on a fixed schedule and go to the
//!   longest-idle session; each is timed from when it was due, so a stall
//!   is charged to every request it delayed.

use crate::stats::{ns_since, process_cpu_ns, thread_cpu_ns, Samples, Windows};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsearch_core::session::{SecureChannel, Side};
use xsearch_core::wire::{
    decode_conn_reply, decode_conn_request, decode_results, encode_conn_reply_into,
    encode_conn_request_into, encode_results_into, ConnStatus, WireResult,
};
use xsearch_core::{Broker, XSearchError};
use xsearch_crypto::x25519::PublicKey;
use xsearch_engine::engine::SearchResult;
use xsearch_net_sim::{
    encode_frame_into, stream_pair, ByteStream, Event, FrameDecoder, Interest, Reactor,
    Registration, StreamError, Token,
};

/// How long a phase may wait for its in-flight replies once sending
/// stops, before the missing ones count as failed.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);

/// Bytes one read pulls off a stream (the decoder zero-fills its buffer
/// to this length on every read, so it stays small).
const READ_BUDGET: usize = 4096;

/// Open loop: a send due sooner than this is awaited by polling the
/// reactor rather than blocking on it. On the 2-vCPU virtual machine the
/// figures come from, blocked waits of tens of microseconds woke up to
/// 1.5 ms late (p99 of `gen.lag_ms`) in 2 of 10 `front_echo` runs, which
/// moved p90 from 0.06 to 0.7–1 ms.
const SPIN_BELOW: Duration = Duration::from_micros(200);

/// How often the generator looks for requests the front left unread.
const STALL_CHECK: Duration = Duration::from_millis(10);

/// How often the generator reads replies its own reactor did not report
/// (see [`Generator::read_unreported`]), and so the longest it blocks at a
/// time. Scanning on every poll instead took 64 stream locks per spin of
/// the open loop and moved `front_echo`'s p90 from 0.04 to 3–4 ms.
const RING_SCAN: Duration = Duration::from_micros(200);

/// Requests the front may leave unread, per request attempted, before a
/// run fails its output check. Its reactor loses a readiness event now
/// and then (a lost wakeup in `Reactor::poll`): 0 to a few dozen of the
/// ~1.2M requests of a 25 s `front_echo` run, all at closed-loop load.
pub const MAX_LOST_SHARE: f64 = 1e-3;

/// The client half of an end-to-end tunnel.
pub enum Tunnel {
    /// An attested session with an enclave.
    Broker(Broker),
    /// A bare channel, for the no-op peer of the generator self-check.
    Raw {
        channel: SecureChannel,
        client_pub: [u8; 32],
        scratch: Vec<u8>,
    },
}

impl Tunnel {
    fn client_pub(&self) -> [u8; 32] {
        match self {
            Tunnel::Broker(b) => *b.client_pub().as_bytes(),
            Tunnel::Raw { client_pub, .. } => *client_pub,
        }
    }

    fn seal(&mut self, query: &str, out: &mut Vec<u8>) {
        match self {
            Tunnel::Broker(b) => b.seal_query_into(query, out),
            Tunnel::Raw { channel, .. } => channel.seal_into(b"query", query.as_bytes(), out),
        }
    }

    fn open(&mut self, reply: &[u8]) -> Result<Vec<WireResult>, XSearchError> {
        match self {
            Tunnel::Broker(b) => b.open_results(reply),
            Tunnel::Raw {
                channel, scratch, ..
            } => {
                channel.open_into(b"results", reply, scratch)?;
                decode_results(scratch)
            }
        }
    }
}

/// One framed client session.
pub struct Conn {
    tunnel: Tunnel,
    stream: ByteStream,
    decoder: FrameDecoder,
    queries: Vec<String>,
    cursor: usize,
    ciphertext: Vec<u8>,
    payload: Vec<u8>,
    frame: Vec<u8>,
    written: usize,
    /// Free space of the outgoing ring when the front has read every
    /// byte written to it.
    empty_space: usize,
    /// Requests awaiting their reply, oldest first. One, except after a
    /// lost request was nudged (see [`Generator::unstick`]).
    inflight: VecDeque<Inflight>,
    /// When the session last became idle (generator clock, ns).
    free_at: u64,
    dead: bool,
    /// Closed-loop completions of this session in the current phase.
    done: u64,
    first_done: u64,
    last_done: u64,
}

struct Inflight {
    query: usize,
    due: u64,
    sealed_at: u64,
    written_at: Option<u64>,
}

impl Conn {
    /// Wraps an attached tunnel and the client end of a framed
    /// connection; `queries` is the sequence this session replays.
    pub fn new(tunnel: Tunnel, stream: ByteStream, queries: Vec<String>) -> Conn {
        assert!(!queries.is_empty(), "a session needs queries to replay");
        let empty_space = stream.write_space();
        Conn {
            tunnel,
            stream,
            decoder: FrameDecoder::new(),
            queries,
            cursor: 0,
            ciphertext: Vec::new(),
            payload: Vec::new(),
            frame: Vec::new(),
            written: 0,
            empty_space,
            inflight: VecDeque::new(),
            free_at: 0,
            dead: false,
            done: 0,
            first_done: 0,
            last_done: 0,
        }
    }

    /// The session's channel public key (its routing key).
    pub fn client_pub(&self) -> [u8; 32] {
        self.tunnel.client_pub()
    }

    /// The queries this session replays, in order.
    pub fn queries(&self) -> &[String] {
        &self.queries
    }

    /// Closes the connection; the front sees EOF.
    pub fn close(&self) {
        self.stream.close();
    }
}

/// What one reply carried, handed to the workload's output check.
pub struct Reply<'a> {
    pub query: &'a str,
    pub results: Vec<WireResult>,
}

/// Per-request stage timings of a traced phase (ns each).
#[derive(Default)]
pub struct Stages {
    /// `Broker` query seal.
    pub seal: Vec<u64>,
    /// Request encode and frame write.
    pub write: Vec<u64>,
    /// Frame written → reply frame decoded.
    pub wait: Vec<u64>,
    /// Reply open and decode.
    pub open: Vec<u64>,
}

/// What one phase measured.
#[derive(Default)]
pub struct Phase {
    pub attempted: u64,
    pub completed: u64,
    pub failed: u64,
    /// Open loop: each request's completion latency from when it was
    /// due, and the host's steal over the phase's windows.
    pub samples: Samples,
    /// Closed loop: when each request completed (generator clock, ns).
    pub done_ns: Vec<u64>,
    /// How late the generator put each request on the wire: send time
    /// minus the later of its due time and its session becoming free.
    pub lag_ns: Vec<u64>,
    /// Closed loop: completions per second (see [`Generator::closed`]).
    pub capacity_rps: f64,
    pub wall_ns: u64,
    pub gen_cpu_ns: u64,
    pub proc_cpu_ns: u64,
    pub stages: Stages,
    /// Why sessions were retired, with counts.
    pub anomalies: BTreeMap<String, u64>,
    /// Requests the front left unread in its inbound ring for longer
    /// than the stall limit: the program lost them. Each is still timed
    /// until its reply (the stall limit and more lands in its latency);
    /// it was freed by sending the session's next request behind it.
    pub lost: u64,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Closed,
    Open,
}

/// The generator: sessions plus the reactor over their client ends.
pub struct Generator {
    conns: Vec<Conn>,
    reactor: Reactor,
    /// One registration per session, in session order.
    regs: Vec<Registration>,
    events: Vec<Event>,
    clock: Instant,
    echo: bool,
    /// Time each request's seal, write, wait and open.
    pub trace: bool,
    idle: VecDeque<usize>,
    mode: Mode,
    sending: bool,
    phase: Phase,
    on_reply: Box<dyn FnMut(Reply<'_>)>,
    /// How long written request bytes may sit unread by the front before
    /// the request counts as lost and the session is nudged.
    stall_after: u64,
    next_stall_check: u64,
    next_ring_scan: u64,
}

impl Generator {
    /// Takes ownership of `conns`; `on_reply` checks every opened reply.
    pub fn new(
        conns: Vec<Conn>,
        echo: bool,
        stall_after: Duration,
        on_reply: Box<dyn FnMut(Reply<'_>)>,
    ) -> Self {
        let reactor = Reactor::new();
        let regs = conns
            .iter()
            .enumerate()
            .map(|(i, c)| reactor.register(&c.stream, Token(i as u64), Interest::READABLE))
            .collect();
        set_fine_timer_slack();
        Generator {
            conns,
            reactor,
            regs,
            events: Vec::new(),
            clock: Instant::now(),
            echo,
            trace: false,
            idle: VecDeque::new(),
            mode: Mode::Closed,
            sending: false,
            phase: Phase::default(),
            on_reply,
            stall_after: stall_after.as_nanos() as u64,
            next_stall_check: 0,
            next_ring_scan: 0,
        }
    }

    /// The sessions (for routing replays and closing).
    pub fn conns(&self) -> &[Conn] {
        &self.conns
    }

    fn now(&self) -> u64 {
        ns_since(self.clock)
    }

    /// Closed loop for `dur`: every live session keeps one request in
    /// flight. Capacity is the median completion rate over the phase's
    /// calm windows ([`Windows::calm`]); with too few completions to
    /// window, the sum over sessions
    /// of (completions − 1) / (last − first completion), which stays
    /// exact when replies arrive in batches.
    pub fn closed(&mut self, dur: Duration) -> Phase {
        self.begin(Mode::Closed);
        let start = self.now();
        let end = start + dur.as_nanos() as u64;
        let mut windows = Windows::new(start, end);
        for i in 0..self.conns.len() {
            self.send(i, start);
        }
        loop {
            let now = self.now();
            windows.watch(now);
            if now >= end {
                break;
            }
            self.pump(Duration::from_nanos(end - now));
        }
        self.sending = false;
        self.drain();
        let per_session: f64 = self
            .conns
            .iter()
            .filter(|c| c.done >= 2 && c.last_done > c.first_done)
            .map(|c| (c.done - 1) as f64 * 1e9 / (c.last_done - c.first_done) as f64)
            .sum();
        let counts = windows.counts(self.phase.done_ns.iter().copied());
        self.phase.capacity_rps = windows.calm_rate(&counts).unwrap_or(per_session);
        self.finish(start)
    }

    /// Open loop at `rate` requests per second for `dur`.
    pub fn open(&mut self, rate: f64, dur: Duration) -> Phase {
        self.begin(Mode::Open);
        let interval = 1e9 / rate;
        let start = self.now();
        let end = start + dur.as_nanos() as u64;
        self.phase.samples = Samples::new(start, end, (rate * dur.as_secs_f64()) as usize + 1);
        let mut sent = 0u64;
        loop {
            let now = self.now();
            self.phase.samples.watch(now);
            let mut due = start + (sent as f64 * interval) as u64;
            if due >= end {
                break;
            }
            while due <= now {
                let Some(i) = self.idle.pop_front() else {
                    break;
                };
                self.send(i, due);
                sent += 1;
                due = start + (sent as f64 * interval) as u64;
            }
            let wait = if self.idle.is_empty() {
                Duration::from_millis(5)
            } else {
                Duration::from_nanos(due.saturating_sub(self.now()))
            };
            // A send due within SPIN_BELOW is awaited by polling: a blocked
            // thread on an idle vCPU can wake a millisecond late.
            self.pump(if wait < SPIN_BELOW {
                Duration::ZERO
            } else {
                wait
            });
        }
        self.sending = false;
        self.phase.samples.watch(end);
        self.drain();
        self.finish(start)
    }

    fn begin(&mut self, mode: Mode) {
        self.phase = Phase {
            gen_cpu_ns: thread_cpu_ns(),
            proc_cpu_ns: process_cpu_ns(),
            ..Phase::default()
        };
        self.mode = mode;
        self.sending = true;
        for c in &mut self.conns {
            c.done = 0;
        }
        self.idle = (0..self.conns.len())
            .filter(|&i| !self.conns[i].dead)
            .collect();
    }

    fn finish(&mut self, start: u64) -> Phase {
        let mut phase = std::mem::take(&mut self.phase);
        phase.wall_ns = self.now() - start;
        phase.gen_cpu_ns = thread_cpu_ns() - phase.gen_cpu_ns;
        phase.proc_cpu_ns = process_cpu_ns() - phase.proc_cpu_ns;
        phase
    }

    fn drain(&mut self) {
        let deadline = self.now() + DRAIN_LIMIT.as_nanos() as u64;
        while self.conns.iter().any(|c| !c.inflight.is_empty()) && self.now() < deadline {
            self.pump(Duration::from_millis(5));
        }
        for i in 0..self.conns.len() {
            if !self.conns[i].inflight.is_empty() {
                self.fail(i, "no reply before the drain limit");
            }
        }
    }

    fn send(&mut self, i: usize, due: u64) {
        let trace = self.trace;
        let echo = self.echo;
        let now = self.now();
        let c = &mut self.conns[i];
        if c.dead {
            return;
        }
        self.phase.attempted += 1;
        self.phase
            .lag_ns
            .push(now.saturating_sub(due.max(c.free_at)));
        let query = c.cursor % c.queries.len();
        c.cursor += 1;
        c.tunnel.seal(&c.queries[query], &mut c.ciphertext);
        let sealed_at = if trace { ns_since(self.clock) } else { now };
        if trace {
            self.phase.stages.seal.push(sealed_at - now);
        }
        c.payload.clear();
        encode_conn_request_into(&c.tunnel.client_pub(), &c.ciphertext, echo, &mut c.payload);
        if c.written == c.frame.len() {
            c.frame.clear();
            c.written = 0;
        }
        encode_frame_into(&c.payload, &mut c.frame);
        c.inflight.push_back(Inflight {
            query,
            due,
            sealed_at,
            written_at: None,
        });
        self.flush(i);
    }

    /// Writes as much of the pending frame as the stream takes; asks for
    /// writability while a remainder is left.
    fn flush(&mut self, i: usize) {
        let c = &mut self.conns[i];
        while c.written < c.frame.len() {
            match c.stream.write(&c.frame[c.written..]) {
                Ok(n) => c.written += n,
                Err(StreamError::WouldBlock) => {
                    self.regs[i].set_interest(Interest::READABLE.and(Interest::WRITABLE));
                    return;
                }
                Err(_) => {
                    self.fail(i, "request write failed");
                    return;
                }
            }
        }
        self.regs[i].set_interest(Interest::READABLE);
        let now = ns_since(self.clock);
        for f in &mut c.inflight {
            if f.written_at.is_none() {
                f.written_at = Some(now);
                if self.trace {
                    self.phase.stages.write.push(now - f.sealed_at);
                }
            }
        }
    }

    fn pump(&mut self, wait: Duration) {
        if self.now() >= self.next_stall_check {
            self.unstick();
            self.next_stall_check = self.now() + STALL_CHECK.as_nanos() as u64;
        }
        let mut events = std::mem::take(&mut self.events);
        if wait.is_zero() {
            self.reactor.poll(&mut events);
        } else {
            self.reactor.poll_wait(&mut events, wait.min(RING_SCAN));
        }
        for e in &events {
            let i = e.token.0 as usize;
            if e.writable {
                self.flush(i);
            }
            if e.readable {
                self.read(i);
            }
        }
        self.events = events;
        if self.now() >= self.next_ring_scan {
            self.read_unreported();
            self.next_ring_scan = self.now() + RING_SCAN.as_nanos() as u64;
        }
    }

    /// Reads every reply already waiting in a session's inbound ring. The
    /// generator's reactor is the program's `Reactor`, which can lose a
    /// readiness event while a poll runs; a reply it did not report stays
    /// in the ring, and this scan, every [`RING_SCAN`], bounds what the
    /// generator's own missed wake-ups add to a latency at that interval
    /// (instead of the stall limit). Reading a reply whose event is still
    /// queued is harmless: that event then finds the ring empty.
    fn read_unreported(&mut self) {
        for i in 0..self.conns.len() {
            let c = &self.conns[i];
            if !c.dead && !c.inflight.is_empty() && c.stream.readable_bytes() > 0 {
                self.read(i);
            }
        }
    }

    fn read(&mut self, i: usize) {
        loop {
            let c = &mut self.conns[i];
            match c.decoder.read_from(&c.stream, READ_BUDGET) {
                Ok(0) | Err(StreamError::Closed) => {
                    self.fail(i, "connection closed");
                    return;
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        loop {
            let at = ns_since(self.clock);
            let c = &mut self.conns[i];
            let frame = match c.decoder.next_frame() {
                Ok(None) => return,
                Ok(Some(frame)) => Ok(frame),
                Err(_) => Err("oversized reply frame".to_string()),
            };
            let request = c.inflight.pop_front();
            let outcome = frame.and_then(|frame| match decode_conn_reply(frame) {
                Ok((ConnStatus::Ok, sealed)) => c
                    .tunnel
                    .open(sealed)
                    .map_err(|e| format!("reply does not open: {e}")),
                Ok((status, _)) => Err(format!("error status {status:?}")),
                Err(_) => Err("malformed reply".to_string()),
            });
            let (f, results) = match (request, outcome) {
                (Some(f), Ok(results)) => (f, results),
                (request, Err(reason)) => {
                    if let Some(f) = request {
                        c.inflight.push_front(f);
                    }
                    self.fail(i, &reason);
                    return;
                }
                (None, Ok(_)) => {
                    self.fail(i, "reply without a request");
                    return;
                }
            };
            let opened = ns_since(self.clock);
            c.decoder.shrink();
            c.free_at = opened;
            if c.done == 0 {
                c.first_done = opened;
            }
            c.done += 1;
            c.last_done = opened;
            let phase = &mut self.phase;
            phase.completed += 1;
            match self.mode {
                Mode::Closed => phase.done_ns.push(opened),
                Mode::Open => phase.samples.record(f.due, opened - f.due),
            }
            if self.trace {
                let written = f.written_at.unwrap_or(at);
                phase.stages.wait.push(at.saturating_sub(written));
                phase.stages.open.push(opened - at);
            }
            (self.on_reply)(Reply {
                query: &c.queries[f.query],
                results,
            });
            if !c.inflight.is_empty() {
                continue;
            }
            if self.sending && self.mode == Mode::Closed {
                self.send(i, opened);
            } else {
                self.idle.push_back(i);
            }
        }
    }

    /// Counts the session's in-flight request as failed, records why,
    /// and retires the session: its nonce counters no longer match the
    /// enclave's.
    fn fail(&mut self, i: usize, reason: &str) {
        let c = &mut self.conns[i];
        eprintln!(
            "perfbench: session {i} retired ({reason}): frame {}/{} bytes written, \
             {} reply bytes buffered, decoder mid-frame {}, stream closed {}",
            c.written,
            c.frame.len(),
            c.stream.readable_bytes(),
            c.decoder.is_mid_frame(),
            c.stream.is_closed()
        );
        self.phase.failed += c.inflight.len() as u64;
        c.inflight.clear();
        *self.phase.anomalies.entry(reason.to_string()).or_default() += 1;
        c.dead = true;
        self.regs[i].set_interest(Interest::NONE);
        self.idle.retain(|&j| j != i);
    }

    /// Counts and frees requests the front left unread. A request whose
    /// bytes still sit in the front's inbound ring after `stall_after`
    /// has lost its readiness event in the front's reactor, and the front
    /// would never read it; it counts as lost. Writing the session's next
    /// request behind it raises a fresh event, and the front then reads
    /// both (the framed protocol allows pipelined requests), so the
    /// session lives on and the lost request's latency runs until its
    /// reply.
    fn unstick(&mut self) {
        let now = self.now();
        for i in 0..self.conns.len() {
            let c = &self.conns[i];
            let unread = !c.dead
                && c.written == c.frame.len()
                && c.stream.write_space() < c.empty_space
                && c.inflight
                    .back()
                    .and_then(|f| f.written_at)
                    .is_some_and(|at| now.saturating_sub(at) > self.stall_after);
            if unread {
                self.phase.lost += 1;
                self.send(i, now);
            }
        }
    }

    /// Live sessions.
    pub fn live(&self) -> usize {
        self.conns.iter().filter(|c| !c.dead).count()
    }
}

/// Asks the kernel to wake this thread's timed waits without the default
/// 50 µs timer slack, so a sleep until the next due send ends on time.
/// Acts on the calling thread only.
fn set_fine_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches only
    // the calling thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// The generator's own ceiling: a closed loop over `sessions` framed
/// sessions against a peer thread that answers every request frame with
/// an empty sealed result list and does no proxy work at all.
pub fn ceiling_rps(sessions: usize, dur: Duration) -> f64 {
    let mut conns = Vec::with_capacity(sessions);
    let mut peers = Vec::with_capacity(sessions);
    for i in 0..sessions {
        let client_pub = PublicKey([i as u8; 32]);
        let server_pub = PublicKey([!(i as u8); 32]);
        let shared = [0x5A ^ i as u8; 32];
        let (client_end, server_end) = stream_pair(4096);
        let channel = SecureChannel::establish(Side::Client, &shared, &client_pub, &server_pub);
        let tunnel = Tunnel::Raw {
            channel,
            client_pub: client_pub.0,
            scratch: Vec::new(),
        };
        conns.push(Conn::new(
            tunnel,
            client_end,
            vec!["generator self check".into()],
        ));
        let server = SecureChannel::establish(Side::Server, &shared, &client_pub, &server_pub);
        peers.push((server, server_end));
    }
    let stop = Arc::new(AtomicBool::new(false));
    let peer = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || echo_peer(peers, &stop))
    };
    let mut gen = Generator::new(conns, true, Duration::from_millis(50), Box::new(|_| {}));
    let phase = gen.closed(dur);
    stop.store(true, Ordering::Release);
    let _ = peer.join();
    if phase.failed > 0 {
        return 0.0;
    }
    phase.capacity_rps
}

fn echo_peer(mut peers: Vec<(SecureChannel, ByteStream)>, stop: &AtomicBool) {
    let reactor = Reactor::new();
    let _regs: Vec<Registration> = peers
        .iter()
        .enumerate()
        .map(|(i, (_, s))| reactor.register(s, Token(i as u64), Interest::READABLE))
        .collect();
    let mut decoders: Vec<FrameDecoder> = peers.iter().map(|_| FrameDecoder::new()).collect();
    let (mut body, mut payload, mut frame) = (Vec::new(), Vec::new(), Vec::new());
    let mut events = Vec::new();
    let empty: &[SearchResult] = &[];
    while !stop.load(Ordering::Acquire) {
        reactor.poll_wait(&mut events, Duration::from_millis(5));
        for e in &events {
            let i = e.token.0 as usize;
            let (channel, stream) = &mut peers[i];
            let decoder = &mut decoders[i];
            while matches!(decoder.read_from(stream, READ_BUDGET), Ok(n) if n > 0) {}
            while let Ok(Some(request)) = decoder.next_frame() {
                if decode_conn_request(request).is_err() {
                    return;
                }
                body.clear();
                encode_results_into(empty, &mut body);
                channel.seal_in_place(b"results", &mut body);
                payload.clear();
                encode_conn_reply_into(ConnStatus::Ok, &body, &mut payload);
                frame.clear();
                encode_frame_into(&payload, &mut frame);
                let mut written = 0;
                while written < frame.len() {
                    match stream.write(&frame[written..]) {
                        Ok(n) => written += n,
                        Err(StreamError::WouldBlock) => std::thread::yield_now(),
                        Err(_) => return,
                    }
                }
            }
        }
    }
}
