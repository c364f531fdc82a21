//! CPU placement of the benchmark's own threads.
//!
//! On a small host the scheduler may put the generator and the front's
//! reactor shard on one CPU (each wakes the other), which halves the
//! capacity a run measures, and which of the two placements a run gets
//! is luck. The generator therefore runs on the last CPU the process may
//! use and the shard on the one before; every other thread (engine
//! workers, the proxies' pools) may use every CPU. Only this process's
//! threads are placed, through `sched_setaffinity` on the calling
//! thread; new threads inherit their creator's mask.

/// Bytes of the kernel's CPU mask this module reads and writes
/// (1024 CPUs).
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

fn get() -> [u64; MASK_WORDS] {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe {
        sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr());
    }
    mask
}

fn set(mask: &[u64; MASK_WORDS]) {
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe {
        sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr());
    }
}

/// The CPUs the calling thread may run on, captured once per placement.
#[derive(Clone, Copy)]
pub struct Placement {
    all: [u64; MASK_WORDS],
}

impl Placement {
    /// Captures the calling thread's current mask as "every CPU".
    pub fn capture() -> Placement {
        Placement { all: get() }
    }

    fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&c| self.all[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    fn only(cpu: usize) -> [u64; MASK_WORDS] {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        mask
    }

    /// Lets the calling thread (and threads it starts) use every CPU.
    pub fn unpin(&self) {
        set(&self.all);
    }

    /// Pins the calling thread to the generator's CPU.
    pub fn pin_generator(&self) {
        if let Some(&cpu) = self.cpus().last() {
            set(&Self::only(cpu));
        }
    }

    /// Pins the calling thread to the shard's CPU, so threads it starts
    /// now inherit that CPU. Falls back to every CPU on a one-CPU host.
    pub fn pin_shard(&self) {
        let cpus = self.cpus();
        match cpus.len() {
            0 | 1 => self.unpin(),
            n => set(&Self::only(cpus[n - 2])),
        }
    }

    /// A one-line description for the run header.
    pub fn describe(&self) -> String {
        let cpus = self.cpus();
        match cpus.len() {
            0 | 1 => format!("unpinned (cpus {cpus:?})"),
            n => format!(
                "generator on cpu {}, front shard on cpu {}, other threads on {cpus:?}",
                cpus[n - 1],
                cpus[n - 2]
            ),
        }
    }
}
