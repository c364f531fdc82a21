//! `proxy_echo`: the paper's Fig 5 set-up. One `XSearchProxy` with a
//! 1M-query window; 64 attested brokers take turns and one thread calls
//! `search_echo` on them directly. Only the enclave request pipeline is
//! on the path: AEAD, Algorithm 1 sampling a window far larger than the
//! CPU caches, Algorithm 2, and the four ocalls.

use crate::affinity::Placement;
use crate::generator::ceiling_rps;
use crate::inputs::{dealt_test_queries, mix, window};
use crate::layers::{self, Replay};
use crate::report::{Args, Report, MB};
use crate::stats::{
    ns_since, peak_rss_mb, process_cpu_ns, thread_cpu_ns, Latency, Samples, Windows,
};
use crate::{report_setups, table, timed, SetupTimes, SESSIONS};
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsearch_bench::{standard_engine, Dataset, EXPERIMENT_SEED};
use xsearch_core::config::XSearchConfig;
use xsearch_core::{Broker, XSearchProxy};
use xsearch_engine::engine::SearchEngine;
use xsearch_sgx_sim::attestation::AttestationService;

/// Nominal open-loop rate, requests per second.
pub const RATE: f64 = 100_000.0;
const WINDOW: usize = 1_000_000;
const SETUP_REPS: usize = 9;

struct Rig {
    data: Dataset,
    engine: Arc<SearchEngine>,
    proxy: XSearchProxy,
    brokers: Vec<Broker>,
    queries: Vec<String>,
    /// The traced call's sealed query.
    sealed: Vec<u8>,
}

fn setup(seed: u64) -> (Rig, SetupTimes) {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let data = Dataset::standard();
    let engine = Arc::new(standard_engine());
    let queries: Vec<String> = dealt_test_queries(&data, 1, seed).remove(0);
    times.data_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let ias = AttestationService::from_seed(EXPERIMENT_SEED);
    let proxy = XSearchProxy::launch(XSearchConfig::default(), Arc::clone(&engine), &ias);
    times.launch_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    proxy.seed_history(window(&data.train_queries(), WINDOW, seed));
    times.warm_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let brokers = (0..SESSIONS)
        .map(|i| {
            Broker::attach(
                &proxy,
                &ias,
                proxy.expected_measurement(),
                mix(seed, i as u64),
            )
            .expect("broker attests the proxy")
        })
        .collect();
    times.attach_s = t.elapsed().as_secs_f64();
    let rig = Rig {
        data,
        engine,
        proxy,
        brokers,
        queries,
        sealed: Vec::new(),
    };
    (rig, times)
}

/// Outcome counters of the direct calls.
#[derive(Default)]
struct Calls {
    ok: u64,
    failed: u64,
    nonempty: u64,
}

impl Rig {
    fn call(&mut self, i: usize, calls: &mut Calls) {
        let broker = &mut self.brokers[i % SESSIONS];
        let query = &self.queries[i % self.queries.len()];
        match broker.search_echo(&self.proxy, query) {
            Ok(results) => {
                calls.ok += 1;
                calls.nonempty += u64::from(!results.is_empty());
            }
            Err(_) => calls.failed += 1,
        }
    }

    /// The same call split into query seal, the `request_echo` ecall and
    /// reply open, each timed on `clock` into `stages`.
    fn traced_call(
        &mut self,
        i: usize,
        calls: &mut Calls,
        clock: Instant,
        stages: &mut [Vec<u64>; 3],
    ) {
        let broker = &mut self.brokers[i % SESSIONS];
        let query = &self.queries[i % self.queries.len()];
        let t0 = ns_since(clock);
        broker.seal_query_into(query, &mut self.sealed);
        let t1 = ns_since(clock);
        let reply = self
            .proxy
            .request_echo(broker.client_pub().as_bytes(), &self.sealed);
        let t2 = ns_since(clock);
        match reply.and_then(|r| broker.open_results(&r)) {
            Ok(results) => {
                let t3 = ns_since(clock);
                calls.ok += 1;
                calls.nonempty += u64::from(!results.is_empty());
                stages[0].push(t1 - t0);
                stages[1].push(t2 - t1);
                stages[2].push(t3 - t2);
            }
            Err(_) => calls.failed += 1,
        }
    }
}

pub fn run(args: &Args, rep: &mut Report) {
    let placement = Placement::capture();
    rep.say(format!("placement       {}", placement.describe()));
    let (rig, first) = timed(|| setup(args.seed));
    placement.pin_generator();
    measure(rig, args, rep);
    placement.unpin();
    report_setups(rep, args.trace, first, SETUP_REPS, || setup(args.seed));
}

fn measure(mut rig: Rig, args: &Args, rep: &mut Report) {
    let boundary = rig.proxy.boundary();
    let (ecalls0, ocalls0) = (boundary.ecalls(), boundary.ocalls());
    let bytes0 = boundary.bytes_in() + boundary.bytes_out();
    let modeled0 = boundary.modeled_overhead();
    let (cap_dur, nom_dur) = crate::phase_lengths(args, 0.3);
    let mut calls = Calls::default();
    let mut next = 0usize;

    // Capacity: one thread calls back to back.
    let cpu0 = process_cpu_ns();
    let start = Instant::now();
    let ok0 = calls.ok;
    let end = cap_dur.as_nanos() as u64;
    let mut windows = Windows::new(0, end);
    let mut done_ns = Vec::new();
    loop {
        let now = ns_since(start);
        windows.watch(now);
        if now >= end {
            break;
        }
        for _ in 0..SESSIONS {
            rig.call(next, &mut calls);
            next += 1;
            done_ns.push(ns_since(start));
        }
    }
    let cap_wall = start.elapsed().as_secs_f64();
    let cap_ok = (calls.ok - ok0) as f64;
    let counts = windows.counts(done_ns.into_iter());
    let capacity = windows.calm_rate(&counts).unwrap_or(cap_ok / cap_wall);
    let cpu_us = windows
        .calm_cpu_us(&counts, false)
        .unwrap_or((process_cpu_ns() - cpu0) as f64 / 1e3 / cap_ok.max(1.0));

    // Nominal rate: open loop, each call timed from when it was due.
    let nom = open_loop(&mut rig, &mut calls, &mut next, nom_dur, false);
    let latency = nom.latency;
    let traced = args
        .trace
        .then(|| open_loop(&mut rig, &mut calls, &mut next, nom_dur, true));

    // Checks that need the proxy, after the last timed request.
    let served = boundary.ecalls() - ecalls0;
    let ocalls = boundary.ocalls() - ocalls0;
    let bytes = boundary.bytes_in() + boundary.bytes_out() - bytes0;
    let modeled = boundary.modeled_overhead() - modeled0;
    rep.attempted = calls.ok + calls.failed;
    rep.failed = calls.failed;
    rep.check(
        "replies authenticate in order",
        calls.failed == 0,
        format!("{} of {} opened", calls.ok, rep.attempted),
    );
    rep.check(
        "echo replies carry zero results",
        calls.nonempty == 0,
        format!("{} non-empty", calls.nonempty),
    );
    rep.check(
        "one ecall and four ocalls per request",
        served == calls.ok && ocalls == 4 * calls.ok,
        format!("{served} ecalls, {ocalls} ocalls for {} requests", calls.ok),
    );
    let len = rig.proxy.history_len();
    rep.check("window full", len == WINDOW, format!("{len} of {WINDOW}"));
    let epc_mb = rig.proxy.epc().used() as f64 / MB;
    for b in &rig.brokers {
        rig.proxy.close_session(b.client_pub().as_bytes());
    }
    let sessions = rig.proxy.session_count();
    rep.check(
        "sessions return to 0 after close",
        sessions == 0,
        format!("{sessions} left"),
    );

    rep.say(format!(
        "latency p50 {:.4} ms  p90 {:.4} ms  p99 {:.4} ms  over {} requests at {RATE} req/s",
        latency.p50_ms, latency.p90_ms, latency.p99_ms, latency.count
    ));
    rep.say(latency.how.clone());
    rep.say(format!(
        "gen.lag_ms {:.6}  gen.cpu_cores {:.3}",
        nom.lag_ms, nom.cores
    ));
    rep.set("capacity_rps", capacity);
    rep.set("p50_ms", latency.p50_ms);
    rep.set("p90_ms", latency.p90_ms);
    rep.set("cpu_us_per_req", cpu_us);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("epc_mb", epc_mb);
    rep.set("gen.lag_ms", nom.lag_ms);
    rep.set("gen.cpu_cores", nom.cores);

    let Some(traced) = traced else {
        return;
    };
    let stages = traced.stages;
    let n = calls.ok.max(1) as f64;
    rep.set("broker.seal_us", stages[0]);
    rep.set("enclave.request_us", stages[1]);
    rep.set("broker.open_us", stages[2]);
    rep.set("enclave.ecalls_per_req", served as f64 / n);
    rep.set("enclave.ocalls_per_req", ocalls as f64 / n);
    rep.set("enclave.boundary_bytes_per_req", bytes as f64 / n);
    rep.set(
        "enclave.boundary_modeled_us",
        modeled.as_nanos() as f64 / 1e3 / n,
    );
    rep.set(
        "gen.ceiling_rps",
        ceiling_rps(SESSIONS, Duration::from_secs(2)),
    );
    let train = rig.data.train_queries();
    layers::replay(
        &Replay {
            engine: &rig.engine,
            train: &train,
            queries: rig.queries.iter().take(400).map(String::as_str).collect(),
            window: WINDOW,
            echo: true,
            measurement: rig.proxy.expected_measurement(),
            seed: args.seed,
        },
        rep,
    );
    table(
        rep,
        "proxy_echo",
        &[
            ("broker.seal", stages[0]),
            ("enclave.request", stages[1]),
            ("broker.open", stages[2]),
        ],
        Some((
            "enclave.request",
            &[
                ("session.open (replay)", rep.get("session.open_us")),
                ("obfuscate (replay)", rep.get("obfuscate.us")),
                ("session.seal (replay)", rep.get("session.seal_us")),
            ],
        )),
        &[("enclave.boundary", rep.get("enclave.boundary_modeled_us"))],
        traced.latency.p50_ms,
        latency.p50_ms,
    );
}

/// What one open-loop phase measured.
struct OpenLoop {
    latency: Latency,
    /// p99 lateness of the calls, ms.
    lag_ms: f64,
    /// The calling thread's CPU share.
    cores: f64,
    /// Traced: median µs of query seal, `request_echo` and reply open.
    stages: [f64; 3],
}

/// Open loop at [`RATE`]: spins to each due time (the calls run on this
/// thread), then calls, timing each call from when it was due. `trace`
/// splits every call into its timed stages.
fn open_loop(
    rig: &mut Rig,
    calls: &mut Calls,
    next: &mut usize,
    dur: Duration,
    trace: bool,
) -> OpenLoop {
    let interval = 1e9 / RATE;
    let clock = Instant::now();
    let end = dur.as_nanos() as u64;
    let cpu0 = thread_cpu_ns();
    let requests = (RATE * dur.as_secs_f64()) as usize + 1;
    let mut samples = Samples::new(0, end, requests);
    let mut lag = Vec::with_capacity(requests);
    let mut stages: [Vec<u64>; 3] = Default::default();
    let mut free_at = 0u64;
    for n in 0u64.. {
        let due = (n as f64 * interval) as u64;
        if due >= end {
            break;
        }
        let mut now = ns_since(clock);
        samples.watch(now);
        while now < due {
            std::hint::spin_loop();
            now = ns_since(clock);
        }
        lag.push(now - due.max(free_at));
        let ok = calls.ok;
        if trace {
            rig.traced_call(*next, calls, clock, &mut stages);
        } else {
            rig.call(*next, calls);
        }
        *next += 1;
        free_at = ns_since(clock);
        if calls.ok > ok {
            samples.record(due, free_at - due);
        }
    }
    samples.watch(end);
    let wall = ns_since(clock) as f64;
    lag.sort_unstable();
    OpenLoop {
        latency: samples.latency(),
        lag_ms: crate::stats::quantile(&lag, 0.99) as f64 / 1e6,
        cores: (thread_cpu_ns() - cpu0) as f64 / wall,
        stages: stages.map(|s| crate::stats::median_us(&s)),
    }
}
