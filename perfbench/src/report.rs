//! The run header, the named metrics, the output checks, and the result
//! line.
//!
//! Everything printed is also kept in `perfbench/out/`, one file per
//! (workload, seed, trace) run, so a run's host and build travel with
//! its figures.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::stats::host_cpu_ticks;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("capacity_rps", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("cpu_us_per_req", "us"),
    ("peak_rss_mb", "MB"),
    ("epc_mb", "MB"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// bypasses reports 0 (proxy_echo has no front and no fleet).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("gen.lag_ms", "ms"),
    ("gen.cpu_cores", "cores"),
    ("gen.ceiling_rps", "1/s"),
    ("broker.seal_us", "us"),
    ("broker.open_us", "us"),
    ("broker.attach_ms", "ms"),
    ("front.write_us", "us"),
    ("front.reply_wait_us", "us"),
    ("front.codec_us", "us"),
    ("front.frames_per_req", "count/req"),
    ("front.bytes_per_req", "B/req"),
    ("front.idle_session_bytes", "B"),
    ("front.overloaded_replies", "count"),
    ("front.lost_requests", "count"),
    ("fleet.route_us", "us"),
    ("fleet.batches", "count"),
    ("fleet.mean_batch", "req/batch"),
    ("fleet.queue_high_water", "count"),
    ("fleet.shed", "count"),
    ("fleet.seals", "count"),
    ("fleet.seals_per_req", "count/req"),
    ("fleet.degraded_served", "count"),
    ("fleet.hop_modeled_us", "us"),
    ("enclave.request_us", "us"),
    ("enclave.ecalls_per_req", "count/req"),
    ("enclave.ocalls_per_req", "count/req"),
    ("enclave.boundary_bytes_per_req", "B/req"),
    ("enclave.boundary_modeled_us", "us"),
    ("session.open_us", "us"),
    ("session.seal_us", "us"),
    ("obfuscate.us", "us"),
    ("history.bytes_per_query", "B"),
    ("filter.us", "us"),
    ("filter.kept_ratio", "ratio"),
    ("wire.encode_us", "us"),
    ("persistence.seal_ms", "ms"),
    ("persistence.blob_mb", "MB"),
    ("engine.search_us", "us"),
    ("engine.results_per_req", "count/req"),
    ("setup.data_s", "s"),
    ("setup.launch_s", "s"),
    ("setup.warm_s", "s"),
    ("setup.attach_s", "s"),
];

/// Bytes in one reported MB.
pub const MB: f64 = (1 << 20) as f64;

/// The command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => seconds = Some(value.parse().map_err(|_| "bad --seconds")?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        let seconds: f64 = seconds.ok_or("missing --seconds")?;
        if !(seconds.is_finite() && seconds > 0.0) {
            return Err("--seconds must be positive".into());
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace: trace.unwrap_or(false),
        })
    }
}

/// Collects what a run prints, checks and measures.
pub struct Report {
    args: Args,
    lines: String,
    checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<&'static str, f64>,
    /// Host CPU ticks (stolen, total) when the run began.
    ticks0: (u64, u64),
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            args: args.clone(),
            lines: String::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            ticks0: host_cpu_ticks(),
        }
    }

    /// Prints a line and keeps it for the run record.
    pub fn say(&mut self, line: impl AsRef<str>) {
        println!("{}", line.as_ref());
        self.lines.push_str(line.as_ref());
        self.lines.push('\n');
    }

    /// The run header: host, build and run parameters.
    pub fn header(&mut self) {
        let cores = std::thread::available_parallelism().map_or(0, usize::from);
        let flags = env!("PERFBENCH_RUSTFLAGS");
        let target_cpu = flags
            .split_whitespace()
            .find_map(|f| f.strip_prefix("target-cpu="))
            .unwrap_or("default");
        self.say("# perfbench run");
        self.say(format!("host.cores      {cores}"));
        self.say(format!("build.rustflags {flags}"));
        self.say(format!("build.target_cpu {target_cpu}"));
        self.say(format!("build.profile   {}", env!("PERFBENCH_PROFILE")));
        self.say(format!("git.rev         {}", git_rev()));
        let a = self.args.clone();
        self.say(format!(
            "run             workload={} seed={} seconds={} trace={}",
            a.workload,
            a.seed,
            a.seconds,
            u8::from(a.trace)
        ));
    }

    /// Records one output check; a failed check makes the run incorrect.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl AsRef<str>) {
        self.say(format!(
            "check {:<34} {}  {}",
            name,
            if ok { "ok  " } else { "FAIL" },
            detail.as_ref()
        ));
        self.checks.push((name.to_string(), ok));
    }

    /// Sets a metric (end-to-end or per-layer) by name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// Prints every metric, keeps the run record, and prints the result
    /// line last.
    pub fn finish(mut self) {
        let (stolen, total) = host_cpu_ticks();
        let (stolen0, total0) = self.ticks0;
        self.say(format!(
            "host steal      {:.1}% of the host's CPU time over the run",
            100.0 * stolen.saturating_sub(stolen0) as f64
                / total.saturating_sub(total0).max(1) as f64
        ));
        let (wanted, other) = if self.args.trace {
            (PER_LAYER, END_TO_END)
        } else {
            (END_TO_END, PER_LAYER)
        };
        self.say("# metrics");
        for &(name, unit) in wanted.iter().chain(other) {
            if wanted.contains(&(name, unit)) || self.metrics.contains_key(name) {
                let line = format!("metric {name:<30} {:>16.6} {unit}", self.get(name));
                self.say(line);
            }
        }
        let correct = self.checks.iter().all(|(_, ok)| *ok);
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.attempted.max(1),
            self.failed
        );
        for (i, &(name, unit)) in wanted.iter().enumerate() {
            let value = self.get(name);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        self.lines.push_str(&json);
        self.lines.push('\n');
        self.keep();
        println!("{json}");
    }

    fn keep(&self) {
        let dir = std::env::var_os("CARGO_MANIFEST_DIR")
            .map_or_else(|| PathBuf::from("perfbench"), PathBuf::from)
            .join("out");
        let file = dir.join(format!(
            "{}-seed{}-trace{}.txt",
            self.args.workload,
            self.args.seed,
            u8::from(self.args.trace)
        ));
        if std::fs::create_dir_all(&dir).is_ok() {
            let _ = std::fs::write(file, &self.lines);
        }
    }
}

/// The checked-out revision, read from `.git` without running git (the
/// benchmark may run from an exported tree that has no `.git`).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in the working directory)".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unresolved {reference}"))
}
