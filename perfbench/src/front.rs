//! `front_echo` and `front_search`: 64 framed sessions through the
//! default `FrontTier` over a `Cluster` of the default 4 replicas.
//!
//! * `front_echo` — each replica's window holds 100 queries; requests are
//!   echo requests, so the engine is off the path and the per-batch
//!   window seal is small. Framing, reactor wake-ups, routing, admission
//!   and lane batching are what it measures.
//! * `front_search` — the deployed defaults: 1M-query windows, a seal
//!   after every batch, and full searches against `standard_engine()`,
//!   each session replaying one top user's test queries.
//!
//! While timing, replica state is read only from the registry snapshot,
//! `batch_stats`, `queue_stats`, `ReplicaNode` counters and the boundary
//! and EPC handles taken at warm-up: `Cluster::with_replica` advances the
//! seal cadence, so it is used only in set-up and after the last timed
//! request.

use crate::affinity::Placement;
use crate::generator::{ceiling_rps, Conn, Generator, Phase, Reply, Tunnel, MAX_LOST_SHARE};
use crate::inputs::{dealt_test_queries, mix, user_test_queries, window};
use crate::layers::{self, Replay};
use crate::report::{Args, Report, MB};
use crate::stats::{median_us, peak_rss_mb, quantile};
use crate::{report_setups, table, timed, SetupTimes, SESSIONS};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xsearch_bench::{standard_engine, Dataset, EXPERIMENT_SEED};
use xsearch_cluster::{Cluster, ClusterConfig, FrontConfig, FrontTier};
use xsearch_core::config::XSearchConfig;
use xsearch_core::wire::WireResult;
use xsearch_core::{Broker, XSearchProxy};
use xsearch_engine::engine::SearchEngine;
use xsearch_sgx_sim::attestation::AttestationService;
use xsearch_sgx_sim::boundary::BoundaryStats;
use xsearch_sgx_sim::epc::EpcGauge;

/// One framed workload.
pub struct Spec {
    name: &'static str,
    /// History window of every replica.
    window: usize,
    echo: bool,
    /// Nominal open-loop rate, requests per second.
    pub rate: f64,
    /// Share of the run the closed loop gets. `front_search` completes in
    /// bursts, one per ~2 s cycle of seals over the four lanes, so its
    /// capacity needs several cycles to settle.
    capacity_share: f64,
    setup_reps: usize,
    /// How long request bytes may sit unread by the front before the
    /// request counts as lost. Well above the longest time the shard is
    /// busy elsewhere (a 1M-window seal per lane in `front_search`).
    stall_after: Duration,
}

pub const ECHO: Spec = Spec {
    name: "front_echo",
    window: 100,
    echo: true,
    rate: 25_000.0,
    capacity_share: 0.3,
    setup_reps: 9,
    stall_after: Duration::from_millis(50),
};

pub const SEARCH: Spec = Spec {
    name: "front_search",
    window: 1_000_000,
    echo: false,
    rate: 4.0,
    capacity_share: 0.4,
    setup_reps: 2,
    stall_after: Duration::from_secs(5),
};

/// Results the engine's own top list is cut at for precision and recall
/// (paper §5.3.2: "the first 20 results").
const TOP_RESULTS: usize = 20;
/// Replies whose results are kept for the precision/recall check.
const ACCURACY_SAMPLE: usize = 1_000;

struct Rig {
    data: Dataset,
    engine: Arc<SearchEngine>,
    cluster: Arc<Cluster>,
    front: FrontTier,
    conns: Vec<Conn>,
    boundaries: Vec<Arc<BoundaryStats>>,
    epcs: Vec<Arc<EpcGauge>>,
}

fn setup(spec: &Spec, seed: u64, placement: &Placement) -> (Rig, SetupTimes) {
    placement.unpin();
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let data = Dataset::standard();
    let engine = Arc::new(standard_engine());
    let mut streams = if spec.echo {
        dealt_test_queries(&data, SESSIONS, seed)
    } else {
        user_test_queries(&data, SESSIONS, seed)
    };
    times.data_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let cluster = Arc::new(Cluster::launch(
        Arc::clone(&engine),
        ClusterConfig {
            proxy: XSearchConfig {
                history_capacity: spec.window,
                ..XSearchConfig::default()
            },
            ..ClusterConfig::default()
        },
    ));
    let front = FrontTier::new(&cluster, FrontConfig::default());
    placement.pin_shard();
    front.spawn();
    placement.pin_generator();
    times.launch_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let train = data.train_queries();
    let ids = cluster.replica_ids();
    let (boundaries, epcs) = ids
        .iter()
        .map(|&id| {
            cluster
                .with_replica(id, |p: &XSearchProxy| {
                    p.seed_history(window(&train, spec.window, mix(seed, id.0 as u64)));
                    (p.boundary(), p.epc())
                })
                .expect("replica accepts its warm-up")
        })
        .unzip();
    times.warm_s = t.elapsed().as_secs_f64();

    // Sessions are placed evenly: handshake seeds whose channel key
    // routes to a replica that already holds its share are skipped.
    let t = Instant::now();
    let share = SESSIONS.div_ceil(ids.len());
    let mut placed = vec![0usize; ids.len()];
    let mut conns = Vec::with_capacity(SESSIONS);
    for candidate in 0u64.. {
        if conns.len() == SESSIONS {
            break;
        }
        let hs = mix(seed ^ 0xA77A_C4ED, candidate);
        let id = cluster
            .route(Broker::client_pub_for_seed(hs).as_bytes())
            .expect("fleet routes");
        if placed[id.0] == share {
            continue;
        }
        placed[id.0] += 1;
        let broker = cluster
            .with_replica(id, |p| {
                Broker::attach(p, cluster.ias(), cluster.expected_measurement(), hs)
            })
            .expect("replica admits the attach")
            .expect("broker attests the replica");
        let queries = std::mem::take(&mut streams[conns.len()]);
        conns.push(Conn::new(Tunnel::Broker(broker), front.accept(), queries));
    }
    times.attach_s = t.elapsed().as_secs_f64();
    let rig = Rig {
        data,
        engine,
        cluster,
        front,
        conns,
        boundaries,
        epcs,
    };
    (rig, times)
}

/// Counters read without side effects at phase boundaries.
#[derive(Clone, Copy, Default)]
struct Counters {
    batches: u64,
    entries: u64,
    seals: u64,
    hop_ns: u64,
    ecalls: u64,
    ocalls: u64,
    boundary_bytes: u64,
    modeled_ns: u64,
    frames: f64,
    front_bytes: f64,
}

impl Counters {
    fn read(rig: &Rig) -> Counters {
        let lanes = rig.cluster.batch_stats();
        let mut c = Counters {
            batches: lanes.batches,
            entries: lanes.entries,
            ..Counters::default()
        };
        for id in rig.cluster.replica_ids() {
            let node = rig.cluster.node(id).expect("replica slot");
            c.seals += node.vault().last_sealed();
            c.hop_ns += node.accounted_hop_ns();
        }
        for b in &rig.boundaries {
            c.ecalls += b.ecalls();
            c.ocalls += b.ocalls();
            c.boundary_bytes += b.bytes_in() + b.bytes_out();
            c.modeled_ns += b.modeled_overhead().as_nanos() as u64;
        }
        let snapshot = rig.cluster.telemetry().snapshot();
        let sum = |name: &str| -> f64 {
            snapshot
                .gauges
                .iter()
                .chain(&snapshot.counters)
                .filter(|s| s.name == name)
                .map(|s| s.value)
                .sum()
        };
        c.frames = sum("xsearch_front_frames_total");
        c.front_bytes = sum("xsearch_front_bytes_total");
        c
    }
}

/// What the reply check saw.
#[derive(Default)]
struct Seen {
    nonempty_echo: u64,
    searches: Vec<(String, Vec<WireResult>)>,
}

pub fn run(spec: &Spec, args: &Args, rep: &mut Report) {
    let placement = Placement::capture();
    rep.say(format!("placement       {}", placement.describe()));
    let (rig, first) = timed(|| setup(spec, args.seed, &placement));
    measure(spec, rig, args, rep);
    report_setups(rep, args.trace, first, spec.setup_reps, || {
        setup(spec, args.seed, &placement)
    });
}

fn measure(spec: &Spec, mut rig: Rig, args: &Args, rep: &mut Report) {
    let seen = Rc::new(RefCell::new(Seen::default()));
    let check = {
        let seen = Rc::clone(&seen);
        let echo = spec.echo;
        Box::new(move |reply: Reply<'_>| {
            let mut seen = seen.borrow_mut();
            if echo {
                seen.nonempty_echo += u64::from(!reply.results.is_empty());
            } else if seen.searches.len() < ACCURACY_SAMPLE {
                seen.searches.push((reply.query.to_string(), reply.results));
            }
        })
    };
    let mut gen = Generator::new(
        std::mem::take(&mut rig.conns),
        spec.echo,
        spec.stall_after,
        check,
    );
    let (cap_dur, nom_dur) = crate::phase_lengths(args, spec.capacity_share);

    let before = Counters::read(&rig);
    let cap = gen.closed(cap_dur);
    let after_cap = Counters::read(&rig);
    let mut nom = gen.open(spec.rate, nom_dur);
    let latency = std::mem::take(&mut nom.samples).latency();
    let before_traced = Counters::read(&rig);
    let traced = args.trace.then(|| {
        gen.trace = true;
        let p = gen.open(spec.rate, nom_dur);
        gen.trace = false;
        p
    });
    let after = Counters::read(&rig);
    let phases: Vec<&Phase> = [&cap, &nom].into_iter().chain(traced.as_ref()).collect();
    let completed: u64 = phases.iter().map(|p| p.completed).sum();
    rep.attempted = phases.iter().map(|p| p.attempted).sum();
    rep.failed = phases.iter().map(|p| p.failed).sum();

    let cpu_us = latency.cpu_us.unwrap_or(
        (nom.proc_cpu_ns.saturating_sub(nom.gen_cpu_ns)) as f64 / 1e3 / nom.completed.max(1) as f64,
    );
    let mut lag = nom.lag_ns.clone();
    lag.sort_unstable();
    let lag_ms = quantile(&lag, 0.99) as f64 / 1e6;
    let gen_cores = nom.gen_cpu_ns as f64 / nom.wall_ns.max(1) as f64;

    // Checks. Everything that needs a replica's proxy runs here, after
    // the last timed request.
    let anomalies: Vec<_> = ["capacity", "nominal", "traced"]
        .iter()
        .zip(&phases)
        .filter(|(_, p)| !p.anomalies.is_empty())
        .map(|(name, p)| format!("{name} phase: {:?}", p.anomalies))
        .collect();
    rep.check(
        "replies authenticate in order",
        rep.failed == 0 && anomalies.is_empty(),
        format!(
            "{completed} of {} opened {}",
            rep.attempted,
            anomalies.join("; ")
        ),
    );
    let lost: u64 = phases.iter().map(|p| p.lost).sum();
    let lost_by_phase: Vec<u64> = phases.iter().map(|p| p.lost).collect();
    rep.check(
        "front reads all but 1 in 10^3 requests",
        lost as f64 <= MAX_LOST_SHARE * rep.attempted as f64,
        format!(
            "{lost} of {} left unread past {:?} (by phase {lost_by_phase:?})",
            rep.attempted, spec.stall_after
        ),
    );
    if spec.echo {
        let nonempty = seen.borrow().nonempty_echo;
        rep.check(
            "echo replies carry zero results",
            nonempty == 0,
            format!("{nonempty} non-empty"),
        );
    } else {
        let (precision, recall, n) = accuracy(&rig.engine, &seen.borrow().searches);
        rep.check(
            "mean precision above 0.8",
            precision > 0.8,
            format!("{precision:.4} over {n} queries"),
        );
        rep.check(
            "mean recall above 0.8",
            recall > 0.8,
            format!("{recall:.4} over {n} queries"),
        );
    }
    let degraded = rig.cluster.degraded_served();
    let shed: u64 = rig.cluster.queue_stats().iter().map(|q| q.shed).sum();
    let overloaded = rig.front.overloaded_replies();
    rep.check(
        "no degraded, shed or overloaded",
        degraded == 0 && shed == 0 && overloaded == 0,
        format!("degraded {degraded}, shed {shed}, overloaded {overloaded}"),
    );
    let epc_mb = rig.epcs.iter().map(|e| e.used() as f64).sum::<f64>() / MB;
    let lens: Vec<usize> = rig
        .cluster
        .replica_ids()
        .into_iter()
        .map(|id| {
            rig.cluster
                .with_replica(id, XSearchProxy::history_len)
                .unwrap_or(0)
        })
        .collect();
    rep.check(
        "every window full",
        lens.iter().all(|&l| l == spec.window),
        format!("{lens:?} of {}", spec.window),
    );
    let (idle_sessions, idle_bytes) = rig.front.account_idle();
    let keys: Vec<[u8; 32]> = gen.conns().iter().map(Conn::client_pub).collect();
    let mut key = keys.iter().cycle();
    let route_us = crate::stats::time_us(SESSIONS * 20, || {
        let _ = rig.cluster.route(key.next().expect("cycled"));
    });
    for c in gen.conns() {
        c.close();
    }
    let closed_at = Instant::now();
    while rig.cluster.session_count() > 0 && closed_at.elapsed() < Duration::from_secs(10) {
        std::thread::sleep(Duration::from_millis(2));
    }
    let sessions = rig.cluster.session_count();
    rep.check(
        "sessions return to 0 after close",
        sessions == 0,
        format!("{sessions} left"),
    );

    rep.say(format!(
        "capacity {:.1} req/s over {} closed-loop requests in batches of {:.2}; \
         generator {:.2} cores, process {:.2} cores",
        cap.capacity_rps,
        cap.completed,
        (after_cap.entries - before.entries) as f64
            / (after_cap.batches - before.batches).max(1) as f64,
        cap.gen_cpu_ns as f64 / cap.wall_ns as f64,
        cap.proc_cpu_ns as f64 / cap.wall_ns as f64
    ));
    rep.say(format!(
        "latency p50 {:.4} ms  p90 {:.4} ms  p99 {:.4} ms  over {} requests at {} req/s",
        latency.p50_ms, latency.p90_ms, latency.p99_ms, latency.count, spec.rate
    ));
    rep.say(latency.how.clone());
    rep.say(format!(
        "gen.lag_ms {lag_ms:.6}  gen.cpu_cores {gen_cores:.3}  live sessions {}  \
         requests the front lost {lost}",
        gen.live()
    ));
    rep.set("front.lost_requests", lost as f64);
    rep.set("capacity_rps", cap.capacity_rps);
    rep.set("p50_ms", latency.p50_ms);
    rep.set("p90_ms", latency.p90_ms);
    rep.set("cpu_us_per_req", cpu_us);
    rep.set("peak_rss_mb", peak_rss_mb());
    rep.set("epc_mb", epc_mb);
    rep.set("gen.lag_ms", lag_ms);
    rep.set("gen.cpu_cores", gen_cores);

    let Some(traced) = traced else {
        rig.front.shutdown();
        return;
    };
    let n = completed.max(1) as f64;
    let st = &traced.stages;
    rep.set("broker.seal_us", median_us(&st.seal));
    rep.set("front.write_us", median_us(&st.write));
    rep.set("front.reply_wait_us", median_us(&st.wait));
    rep.set("broker.open_us", median_us(&st.open));
    rep.set("front.frames_per_req", (after.frames - before.frames) / n);
    rep.set(
        "front.bytes_per_req",
        (after.front_bytes - before.front_bytes) / n,
    );
    rep.set(
        "front.idle_session_bytes",
        idle_bytes as f64 / idle_sessions.max(1) as f64,
    );
    rep.set("front.overloaded_replies", overloaded as f64);
    rep.set("fleet.route_us", route_us);
    let batches = after.batches - before.batches;
    let seals = after.seals - before.seals;
    rep.set("fleet.batches", batches as f64);
    rep.set(
        "fleet.mean_batch",
        (after.entries - before.entries) as f64 / batches.max(1) as f64,
    );
    let high_water = rig.cluster.queue_stats().iter().map(|q| q.high_water).max();
    rep.set("fleet.queue_high_water", high_water.unwrap_or(0) as f64);
    rep.set("fleet.shed", shed as f64);
    rep.set("fleet.seals", seals as f64);
    rep.set("fleet.seals_per_req", seals as f64 / n);
    rep.set("fleet.degraded_served", degraded as f64);
    rep.set(
        "fleet.hop_modeled_us",
        (after.hop_ns - before.hop_ns) as f64 / 1e3 / n,
    );
    rep.set(
        "enclave.ecalls_per_req",
        (after.ecalls - before.ecalls) as f64 / n,
    );
    rep.set(
        "enclave.ocalls_per_req",
        (after.ocalls - before.ocalls) as f64 / n,
    );
    rep.set(
        "enclave.boundary_bytes_per_req",
        (after.boundary_bytes - before.boundary_bytes) as f64 / n,
    );
    rep.set(
        "enclave.boundary_modeled_us",
        (after.modeled_ns - before.modeled_ns) as f64 / 1e3 / n,
    );
    rig.front.shutdown();
    rep.set(
        "gen.ceiling_rps",
        ceiling_rps(SESSIONS, Duration::from_secs(2)),
    );
    if spec.echo {
        let ceiling = rep.get("gen.ceiling_rps");
        rep.check(
            "generator ceiling above capacity",
            ceiling > cap.capacity_rps,
            format!("{ceiling:.0} vs {:.0} req/s", cap.capacity_rps),
        );
    }

    let train = rig.data.train_queries();
    let sample: Vec<&str> = seen_queries(&gen, 400);
    let measurement = rig.cluster.expected_measurement();
    let sizes = layers::replay(
        &Replay {
            engine: &rig.engine,
            train: &train,
            queries: sample.clone(),
            window: spec.window,
            echo: spec.echo,
            measurement,
            seed: args.seed,
        },
        rep,
    );
    rep.set("front.codec_us", layers::codec_us(&sizes));
    rep.set(
        "enclave.request_us",
        replay_request(spec, &rig, &train, &sample, args.seed),
    );

    // Seals on the blocking path of the traced phase (one per batch).
    let traced_seals_per_req =
        (after.seals - before_traced.seals) as f64 / traced.completed.max(1) as f64;
    let traced_latency = traced.samples.latency();
    let wait = rep.get("front.reply_wait_us");
    table(
        rep,
        spec.name,
        &[
            ("broker.seal", rep.get("broker.seal_us")),
            ("front.write", rep.get("front.write_us")),
            ("front.reply_wait", wait),
            ("broker.open", rep.get("broker.open_us")),
        ],
        Some((
            "front.reply_wait",
            &[
                ("front.codec", rep.get("front.codec_us")),
                ("fleet.route", rep.get("fleet.route_us")),
                ("enclave.request (replay)", rep.get("enclave.request_us")),
                (
                    "persistence.seal x seals/req",
                    rep.get("persistence.seal_ms") * 1e3 * traced_seals_per_req,
                ),
            ],
        )),
        &[
            ("fleet.hop", rep.get("fleet.hop_modeled_us")),
            ("enclave.boundary", rep.get("enclave.boundary_modeled_us")),
        ],
        traced_latency.p50_ms,
        latency.p50_ms,
    );
}

/// Mean precision and recall of the returned results against the
/// engine's own top list for the original query alone, matched on title
/// and snippet (which the proxy does not rewrite). Queries with no
/// reference results are skipped.
fn accuracy(engine: &SearchEngine, searches: &[(String, Vec<WireResult>)]) -> (f64, f64, usize) {
    let (mut precision, mut recall, mut n) = (0.0, 0.0, 0usize);
    for (query, returned) in searches {
        let reference: HashSet<(String, String)> = engine
            .search(query, TOP_RESULTS)
            .into_iter()
            .map(|r| (r.title, r.description))
            .collect();
        if reference.is_empty() {
            continue;
        }
        let returned: HashSet<(String, String)> = returned
            .iter()
            .map(|r| (r.title.clone(), r.description.clone()))
            .collect();
        let hit = reference.intersection(&returned).count() as f64;
        precision += if returned.is_empty() {
            1.0
        } else {
            hit / returned.len() as f64
        };
        recall += hit / reference.len() as f64;
        n += 1;
    }
    let d = n.max(1) as f64;
    (precision / d, recall / d, n)
}

/// Up to `n` of the queries the sessions replayed.
fn seen_queries(gen: &Generator, n: usize) -> Vec<&str> {
    let per = n.div_ceil(SESSIONS);
    gen.conns()
        .iter()
        .flat_map(|c| c.queries().iter().take(per).map(String::as_str))
        .take(n)
        .collect()
}

/// One request through a replay proxy configured like a replica (same
/// window, same engine, same mode), median µs.
fn replay_request(spec: &Spec, rig: &Rig, train: &[String], sample: &[&str], seed: u64) -> f64 {
    let ias = AttestationService::from_seed(EXPERIMENT_SEED);
    let proxy = XSearchProxy::launch(
        XSearchConfig {
            history_capacity: spec.window,
            ..XSearchConfig::default()
        },
        Arc::clone(&rig.engine),
        &ias,
    );
    proxy.seed_history(window(train, spec.window, seed));
    let mut broker =
        Broker::attach(&proxy, &ias, proxy.expected_measurement(), seed).expect("replay attests");
    let reps = if spec.echo { 4_000 } else { 200 };
    let mut sealed = Vec::new();
    let mut samples = Vec::with_capacity(reps);
    for i in 0..reps {
        broker.seal_query_into(sample[i % sample.len()], &mut sealed);
        let t = Instant::now();
        let reply = if spec.echo {
            proxy.request_echo(broker.client_pub().as_bytes(), &sealed)
        } else {
            proxy.request(broker.client_pub().as_bytes(), &sealed)
        };
        samples.push(t.elapsed().as_nanos() as u64);
        broker
            .open_results(&reply.expect("replay request served"))
            .expect("replay reply opens");
    }
    median_us(&samples)
}
