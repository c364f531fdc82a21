//! Clocks, CPU accounting and order statistics.
//!
//! CPU time is read from the scheduler's per-task run-time counters
//! (`/proc/.../schedstat`, nanoseconds), so a 10 s phase resolves CPU to
//! well under a microsecond per request.

use std::time::Instant;

/// Nanoseconds since `origin`.
pub fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn schedstat_ns(path: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time the calling thread has run.
pub fn thread_cpu_ns() -> u64 {
    schedstat_ns("/proc/thread-self/schedstat")
}

/// CPU time every live thread of this process has run.
pub fn process_cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .map(|t| schedstat_ns(&format!("{}/schedstat", t.path().display())))
        .sum()
}

/// Stolen and total CPU time of the host's CPUs so far, in `/proc/stat`
/// ticks. The share stolen over a run tells a host stall from the
/// program's own.
pub fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|t| t.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .split_whitespace()
                .nth(1)?
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank quantile of an ascending slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of a set of measurements (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Median of nanosecond samples, in microseconds.
pub fn median_us(samples: &[u64]) -> f64 {
    let v: Vec<f64> = samples.iter().map(|&ns| ns as f64 / 1e3).collect();
    median(&v)
}

/// Times `f` over `reps` calls and returns the median call, in µs.
pub fn time_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        samples.push(u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
    median_us(&samples)
}

/// Windows a measured phase is split into, by due time in an open loop
/// and by completion time in a closed one. The hypervisor of the 2-vCPU
/// hosts this runs on steals CPU time in millisecond bursts (0.4–20% of
/// a run's CPU time); a stolen millisecond leaves a backlog several
/// milliseconds long, so latency, rate and CPU per request all move with
/// the host's other tenants. Short windows let a figure be taken over
/// the stretches of the run the host left alone.
pub const WINDOWS: usize = 200;
/// A windowed figure counts the windows whose steal is at most that of
/// the window at this share of the windows ranked by steal: at least a
/// tenth of them, and every window the host stole as little from (all
/// those it stole nothing from, in most runs).
const CALM_SHARE: f64 = 0.1;
/// Fewest completions per window for a windowed rate.
const MIN_PER_RATE_WINDOW: usize = 100;
/// Fewest requests per window for windowed latency percentiles.
const MIN_PER_LATENCY_WINDOW: usize = 1_000;

/// The host's CPU ticks, and this process's CPU time, read at the
/// boundaries of a phase's [`WINDOWS`] equal windows.
#[derive(Default)]
pub struct Windows {
    start: u64,
    width: u64,
    /// Stolen and total host ticks at each boundary read so far.
    ticks: Vec<(u64, u64)>,
    /// CPU time (ns) of the process and of the reading thread at each
    /// boundary read so far.
    cpu: Vec<(u64, u64)>,
}

impl Windows {
    /// Windows of `[start, end)` (ns on the caller's clock); reads the
    /// first boundary now.
    pub fn new(start: u64, end: u64) -> Windows {
        let mut w = Windows {
            start,
            width: (end.saturating_sub(start) / WINDOWS as u64).max(1),
            ticks: Vec::with_capacity(WINDOWS + 1),
            cpu: Vec::with_capacity(WINDOWS + 1),
        };
        w.read();
        w
    }

    fn read(&mut self) {
        self.ticks.push(host_cpu_ticks());
        self.cpu.push((process_cpu_ns(), thread_cpu_ns()));
    }

    /// The window `t` falls in (the last for `t` past the end).
    pub fn index(&self, t: u64) -> usize {
        ((t.saturating_sub(self.start) / self.width) as usize).min(WINDOWS - 1)
    }

    /// Reads the boundaries `now` has passed. The phase's loop calls it
    /// on every turn, from the thread that drives the load; `now` past
    /// the end of the phase closes every window left.
    pub fn watch(&mut self, now: u64) {
        while self.ticks.len() <= WINDOWS
            && now >= self.start + self.width * self.ticks.len() as u64
        {
            self.read();
        }
    }

    /// Each window's share of the host's CPU time stolen over it and its
    /// two neighbours: the counter moves in 10 ms ticks, coarse against a
    /// window, and a burst's backlog spills into the next window.
    fn steal(&self) -> Vec<f64> {
        (0..WINDOWS)
            .map(|w| {
                let a = self.ticks[w.saturating_sub(1)];
                let b = self.ticks[(w + 2).min(WINDOWS)];
                (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64
            })
            .collect()
    }

    /// Which windows a windowed figure counts (see [`CALM_SHARE`]), and
    /// the steal cut they met; `None` unless every boundary was read.
    /// Windows are chosen by the host's steal alone, never by what the
    /// program did in them, so a change that makes the program slower or
    /// costlier moves the figure.
    pub fn calm(&self) -> Option<(Vec<bool>, f64)> {
        if self.ticks.len() != WINDOWS + 1 {
            return None;
        }
        let steal = self.steal();
        let mut ranked = steal.clone();
        ranked.sort_by(f64::total_cmp);
        let cut = ranked[(CALM_SHARE * WINDOWS as f64).ceil() as usize - 1];
        Some((steal.iter().map(|&s| s <= cut).collect(), cut))
    }

    /// CPU time per event over the calm windows, in µs: the process's,
    /// less the reading thread's when `less_reader`; `None` when there
    /// are too few events to window.
    pub fn calm_cpu_us(&self, events: &[u64], less_reader: bool) -> Option<f64> {
        let (calm, _) = self.calm()?;
        if events.iter().sum::<u64>() < (WINDOWS * MIN_PER_RATE_WINDOW) as u64 {
            return None;
        }
        let (mut cpu, mut n) = (0u64, 0u64);
        for (w, c) in self.cpu.windows(2).enumerate().filter(|(w, _)| calm[*w]) {
            cpu += (c[1].0 - c[0].0).saturating_sub(if less_reader { c[1].1 - c[0].1 } else { 0 });
            n += events[w];
        }
        Some(cpu as f64 / 1e3 / n.max(1) as f64)
    }

    /// Events per window of the event times `times`; those outside the
    /// windows are left out.
    pub fn counts(&self, times: impl Iterator<Item = u64>) -> Vec<u64> {
        let end = self.start + self.width * WINDOWS as u64;
        let mut counts = vec![0u64; WINDOWS];
        for t in times.filter(|&t| t >= self.start && t < end) {
            counts[self.index(t)] += 1;
        }
        counts
    }

    /// Median over the calm windows of the events per second in each;
    /// `None` when there are too few events to window.
    pub fn calm_rate(&self, counts: &[u64]) -> Option<f64> {
        let (calm, _) = self.calm()?;
        if counts.iter().sum::<u64>() < (WINDOWS * MIN_PER_RATE_WINDOW) as u64 {
            return None;
        }
        let rates: Vec<f64> = counts
            .iter()
            .zip(&calm)
            .filter(|(_, &c)| c)
            .map(|(&n, _)| n as f64 * 1e9 / self.width as f64)
            .collect();
        Some(median(&rates))
    }

    /// The share of the host's CPU time stolen over the whole phase.
    pub fn total_steal(&self) -> f64 {
        match (self.ticks.first(), self.ticks.last()) {
            (Some(a), Some(b)) => (b.0 - a.0) as f64 / (b.1 - a.1).max(1) as f64,
            _ => 0.0,
        }
    }
}

/// Latency summary of one open-loop phase.
#[derive(Debug, Clone, Default)]
pub struct Latency {
    pub count: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    /// CPU per request over the calm windows, µs, less the generator
    /// thread's; `None` when the phase was not windowed.
    pub cpu_us: Option<f64>,
    /// How p50 and p90 were taken, for the run's log.
    pub how: String,
}

/// The samples of one open-loop phase: each request's latency and the
/// window its due time fell in, and the phase's [`Windows`]. They are
/// kept small (9 bytes a request, reserved up front) because the
/// process's peak RSS is one of the figures.
#[derive(Default)]
pub struct Samples {
    latency_ns: Vec<u64>,
    window: Vec<u8>,
    windows: Windows,
}

impl Samples {
    /// A phase of about `requests` requests due in `[start, end)` (ns on
    /// the caller's clock).
    pub fn new(start: u64, end: u64, requests: usize) -> Samples {
        Samples {
            latency_ns: Vec::with_capacity(requests),
            window: Vec::with_capacity(requests),
            windows: Windows::new(start, end),
        }
    }

    /// See [`Windows::watch`].
    pub fn watch(&mut self, now: u64) {
        self.windows.watch(now);
    }

    pub fn record(&mut self, due: u64, latency: u64) {
        self.latency_ns.push(latency);
        self.window.push(self.windows.index(due) as u8);
    }

    /// p99 over every request. With at least 1,000 requests a window and
    /// every boundary read, p50 and p90 are the medians of the window
    /// p50s and p90s over the calm windows ([`Windows::calm`]), and CPU
    /// per request is over the same windows; otherwise (`front_search`)
    /// p50 and p90 are over every request.
    pub fn latency(mut self) -> Latency {
        let calm = self
            .windows
            .calm()
            .filter(|_| self.latency_ns.len() >= WINDOWS * MIN_PER_LATENCY_WINDOW);
        let mut lat = Latency {
            count: self.latency_ns.len(),
            ..Latency::default()
        };
        if let Some((calm, cut)) = calm {
            let mut per: Vec<Vec<u64>> = vec![Vec::new(); WINDOWS];
            for (&l, &w) in self.latency_ns.iter().zip(&self.window) {
                per[usize::from(w)].push(l);
            }
            let counts: Vec<u64> = per.iter().map(|v| v.len() as u64).collect();
            let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
            for (mut v, _) in per.into_iter().zip(&calm).filter(|(_, &c)| c) {
                v.sort_unstable();
                p50s.push(quantile(&v, 0.5) as f64 / 1e6);
                p90s.push(quantile(&v, 0.9) as f64 / 1e6);
            }
            lat.p50_ms = median(&p50s);
            lat.p90_ms = median(&p90s);
            lat.cpu_us = self.windows.calm_cpu_us(&counts, true);
            lat.how = format!(
                "p50/p90: medians over the {} of {WINDOWS} windows the host stole at most {:.1}% from \
                 ({:.1}% over the phase)",
                p90s.len(),
                cut * 100.0,
                self.windows.total_steal() * 100.0
            );
        }
        self.latency_ns.sort_unstable();
        let ms = |q| quantile(&self.latency_ns, q) as f64 / 1e6;
        if lat.how.is_empty() {
            lat.p50_ms = ms(0.5);
            lat.p90_ms = ms(0.9);
            lat.how = "p50/p90: over every request (too few to window)".into();
        }
        lat.p99_ms = ms(0.99);
        lat
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&v, 0.5), 50);
        assert_eq!(quantile(&v, 0.9), 90);
        assert_eq!(quantile(&v, 0.99), 99);
        assert_eq!(quantile(&[], 0.5), 0);
    }

    /// Windows of 1 ms from 0, the host stealing `steal[w]` of 100
    /// ticks in window `w` and the process using 1 ms of CPU in each.
    fn windows_with(steal: impl Fn(usize) -> u64) -> Windows {
        let mut w = Windows {
            start: 0,
            width: 1_000_000,
            ticks: vec![(0, 0)],
            cpu: vec![(0, 0)],
        };
        for i in 0..WINDOWS {
            let (s, t) = w.ticks[i];
            w.ticks.push((s + steal(i), t + 100));
            let (p, g) = w.cpu[i];
            w.cpu.push((p + 1_000_000, g + 250_000));
        }
        w
    }

    #[test]
    fn calm_windows_are_those_the_host_stole_least_from() {
        let calm = |w: &Windows| w.calm().unwrap().0.iter().filter(|&&c| c).count();
        // Nothing stolen: every window counts.
        assert_eq!(calm(&windows_with(|_| 0)), WINDOWS);
        // Stolen from every window but a stretch of 20: the stretch
        // counts, its two ends though a neighbour was stolen from.
        let w = windows_with(|i| if i / 20 == 3 { 0 } else { 5 });
        let (chosen, cut) = w.calm().unwrap();
        assert_eq!((calm(&w), cut), (20, 5.0 / 300.0));
        assert!(chosen.iter().enumerate().all(|(i, &c)| c == (i / 20 == 3)));
        // Stolen from every window: at least a tenth still count.
        assert!(calm(&windows_with(|i| 1 + i as u64 % 20)) >= WINDOWS / 10);
        // A boundary not read: no calm windows.
        let mut short = windows_with(|_| 0);
        short.ticks.pop();
        assert!(short.calm().is_none());
    }

    #[test]
    fn calm_rate_and_cpu_skip_stolen_windows() {
        // 1,000 events per 1 ms window, 100 in the second half of the
        // windows, which the host stole from.
        let w = windows_with(|i| u64::from(i >= WINDOWS / 2) * 30);
        let times: Vec<u64> = (0..WINDOWS as u64)
            .flat_map(|i| {
                let n = if i >= WINDOWS as u64 / 2 { 100 } else { 1_000 };
                (0..n).map(move |k| i * 1_000_000 + k * 1_000_000 / n)
            })
            .collect();
        let counts = w.counts(times.into_iter().chain([WINDOWS as u64 * 1_000_000]));
        assert_eq!(counts.iter().sum::<u64>(), 110_000);
        assert_eq!(w.calm_rate(&counts), Some(1e6));
        // 1 ms of process CPU per 1,000 events; 0.75 ms less the reader's.
        assert_eq!(w.calm_cpu_us(&counts, false), Some(1.0));
        assert_eq!(w.calm_cpu_us(&counts, true), Some(0.75));
        // Too few events to window.
        assert_eq!(w.calm_rate(&vec![1; WINDOWS]), None);
    }

    #[test]
    fn latency_percentiles_over_the_calm_windows() {
        let samples = |w: Windows, lat: &dyn Fn(usize, usize) -> u64| {
            let mut s = Samples {
                windows: w,
                ..Samples::default()
            };
            for i in 0..WINDOWS {
                for k in 0..1_000 {
                    s.record(i as u64 * 1_000_000 + k as u64, lat(i, k));
                }
            }
            s.latency()
        };
        // 40 us requests; a fifth at 900 ms in the third of the windows
        // the host stole from, which are not counted.
        let stolen = || windows_with(|i| u64::from(i < WINDOWS / 3) * 20);
        let l = samples(stolen(), &|i, k| {
            if i < WINDOWS / 3 && k < 200 {
                900_000_000
            } else {
                40_000
            }
        });
        assert_eq!((l.p50_ms, l.p90_ms, l.count), (0.04, 0.04, 200_000));
        assert_eq!(l.p99_ms, 900.0);
        // A program slow in a tenth of every window's requests moves p90
        // however the host behaved.
        let l = samples(stolen(), &|_, k| if k < 150 { 90_000 } else { 40_000 });
        assert_eq!((l.p50_ms, l.p90_ms), (0.04, 0.09));
        // CPU per request over the calm windows, less the generator's.
        assert_eq!(l.cpu_us, Some(0.75));
        // Too few requests to window: over every one of them.
        let mut few = Samples {
            windows: windows_with(|_| 0),
            ..Samples::default()
        };
        for k in 0..60u64 {
            few.record(k, if k < 10 { 900_000_000 } else { 160_000_000 });
        }
        let l = few.latency();
        assert_eq!((l.p50_ms, l.p90_ms, l.cpu_us), (160.0, 900.0, None));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
