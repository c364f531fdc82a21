//! The repository benchmark: `proxy_echo`, `front_echo` and
//! `front_search`, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload front_echo --seed 1 --seconds 25 --trace 0
//! ```
//!
//! A run sets the workload up (several times; the median is `setup_s`),
//! measures capacity in a closed loop, then latency in an open loop at
//! the workload's fixed nominal rate, checks every output, and prints one
//! JSON result line last. `--trace 1` adds a traced open-loop phase and
//! layer replays and reports the per-layer metrics instead. See
//! `perfbench/README.md`.

mod affinity;
mod front;
mod generator;
mod inputs;
mod layers;
mod proxy_echo;
mod report;
mod stats;

use report::{Args, Report};
use std::time::Duration;

/// Sessions every workload drives.
pub const SESSIONS: usize = 64;

/// Wall time of each set-up step of one set-up.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub data_s: f64,
    pub launch_s: f64,
    pub warm_s: f64,
    pub attach_s: f64,
    pub total_s: f64,
}

impl SetupTimes {
    fn set_layers(&self, rep: &mut Report, sessions: usize) {
        rep.set("setup.data_s", self.data_s);
        rep.set("setup.launch_s", self.launch_s);
        rep.set("setup.warm_s", self.warm_s);
        rep.set("setup.attach_s", self.attach_s);
        rep.set("broker.attach_ms", self.attach_s * 1e3 / sessions as f64);
    }
}

/// Runs one set-up and times it as a whole.
pub fn timed<R>(setup: impl FnOnce() -> (R, SetupTimes)) -> (R, SetupTimes) {
    let start = std::time::Instant::now();
    let (rig, mut times) = setup();
    times.total_s = start.elapsed().as_secs_f64();
    (rig, times)
}

/// Sets the workload up `reps - 1` more times after the measured run,
/// dropping each, and reports the median of all `reps` set-ups as
/// `setup_s` (and, traced, as the `setup.*` metrics). The extra set-ups
/// come after the measured run so that the run's peak RSS is that of one
/// deployment.
pub fn report_setups<R>(
    rep: &mut Report,
    trace: bool,
    first: SetupTimes,
    reps: usize,
    setup: impl Fn() -> (R, SetupTimes),
) {
    let mut all = vec![first];
    for _ in 1..reps {
        let (rig, times) = timed(&setup);
        drop(rig);
        all.push(times);
    }
    for (i, t) in all.iter().enumerate() {
        rep.say(format!(
            "setup {i}: total {:.3} s = data {:.3} + launch {:.3} + warm {:.3} + attach {:.3}",
            t.total_s, t.data_s, t.launch_s, t.warm_s, t.attach_s
        ));
    }
    let med = |f: fn(&SetupTimes) -> f64| stats::median(&all.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        data_s: med(|t| t.data_s),
        launch_s: med(|t| t.launch_s),
        warm_s: med(|t| t.warm_s),
        attach_s: med(|t| t.attach_s),
        total_s: med(|t| t.total_s),
    };
    rep.set("setup_s", times.total_s);
    if trace {
        times.set_layers(rep, SESSIONS);
    }
}

/// Lengths of the capacity phase and of each open-loop phase, the
/// capacity phase taking `capacity_share` of the run. A traced run gives
/// capacity two thirds of that and splits the rest evenly between an
/// untraced and a traced open-loop phase.
pub fn phase_lengths(args: &Args, capacity_share: f64) -> (Duration, Duration) {
    let s = args.seconds;
    let (capacity, open) = if args.trace {
        let capacity = capacity_share * 2.0 / 3.0;
        (capacity, (1.0 - capacity) / 2.0)
    } else {
        (capacity_share, 1.0 - capacity_share)
    };
    (
        Duration::from_secs_f64(capacity * s),
        Duration::from_secs_f64(open * s),
    )
}

/// Prints the traced run's stage table: the wall-time stages on the
/// blocking path (medians, µs) summed and set against the traced p50,
/// the residue, the parts measured inside one stage, and the modeled
/// charges in a column of their own.
pub fn table(
    rep: &mut Report,
    workload: &str,
    path: &[(&str, f64)],
    inside: Option<(&str, &[(&str, f64)])>,
    modeled: &[(&str, f64)],
    traced_p50_ms: f64,
    untraced_p50_ms: f64,
) {
    rep.say(format!(
        "# stage table: {workload} (wall-time medians on the blocking path, us)"
    ));
    rep.say(format!(
        "  {:<40} {:>14} {:>14}",
        "stage", "wall_us", "modeled_us"
    ));
    let mut sum = 0.0;
    for &(name, us) in path {
        sum += us;
        rep.say(format!("  {name:<40} {us:>14.3} {:>14}", ""));
        if let Some((parent, parts)) = inside.filter(|(p, _)| *p == name) {
            let mut known = 0.0;
            for &(part, part_us) in parts {
                known += part_us;
                rep.say(format!("    {part:<38} {part_us:>14.3} {:>14}", ""));
            }
            rep.say(format!(
                "    {:<38} {:>14.3} {:>14}",
                format!("unexplained inside {parent}"),
                us - known,
                ""
            ));
        }
    }
    for &(name, us) in modeled {
        rep.say(format!("  {name:<40} {:>14} {us:>14.3}", "-"));
    }
    let p50_us = traced_p50_ms * 1e3;
    rep.say(format!("  {:<40} {sum:>14.3}", "sum of wall-time stages"));
    rep.say(format!(
        "  {:<40} {p50_us:>14.3}",
        "p50 of the traced phase"
    ));
    rep.say(format!(
        "  {:<40} {:>14.3}   ({:.1}% of p50)",
        "residue (p50 - sum)",
        p50_us - sum,
        100.0 * (p50_us - sum) / p50_us.max(f64::MIN_POSITIVE)
    ));
    rep.say(format!(
        "  tracing overhead: traced p50 {traced_p50_ms:.4} ms - untraced p50 {untraced_p50_ms:.4} ms = {:.4} ms",
        traced_p50_ms - untraced_p50_ms
    ));
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload proxy_echo|front_echo|front_search \
                 --seed <n> --seconds <s> --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let mut rep = Report::new(&args);
    rep.header();
    match args.workload.as_str() {
        "proxy_echo" => proxy_echo::run(&args, &mut rep),
        "front_echo" => front::run(&front::ECHO, &args, &mut rep),
        "front_search" => front::run(&front::SEARCH, &args, &mut rep),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    }
    rep.finish();
}
