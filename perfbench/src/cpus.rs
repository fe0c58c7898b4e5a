//! Spreads a single-threaded closed loop over every CPU the process may
//! run on.
//!
//! On a shared host one CPU can run markedly slower than another for tens
//! of seconds (a busy neighbour on its core). A single-threaded loop stays
//! on one CPU, so its figures would follow that CPU's luck; moving each
//! operation to the next allowed CPU in turn averages it out. The two-thread
//! serving workloads already use every CPU and are not rotated.

/// The CPUs this process may run on, in order.
#[derive(Debug)]
pub struct Rotation {
    cpus: Vec<usize>,
}

/// A `cpu_set_t`: 1024 CPU bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

impl Rotation {
    /// The calling thread's current CPU set (empty where it cannot be read,
    /// which turns [`Rotation::pin`] into a no-op).
    pub fn current() -> Rotation {
        let mut mask: CpuSet = [0; 16];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a live, writable `cpu_set_t`-sized buffer and
        // `size` is its exact size in bytes; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut mask) } == 0;
        #[cfg(not(target_os = "linux"))]
        let ok = false;
        let cpus = if ok {
            (0..mask.len() * 64)
                .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Rotation { cpus }
    }

    /// Moves the calling thread to the `i`-th CPU of the rotation. Threads
    /// it spawns afterwards inherit that single CPU, so only loops that
    /// stay single-threaded call this.
    pub fn pin(&self, i: usize) {
        if self.cpus.len() < 2 {
            return;
        }
        let cpu = self.cpus[i % self.cpus.len()];
        let mut mask: CpuSet = [0; 16];
        mask[cpu / 64] |= 1 << (cpu % 64);
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a live `cpu_set_t`-sized buffer and `size` is its
        // exact size in bytes; pid 0 names the calling thread. A failure
        // leaves the affinity unchanged, which only forgoes the rotation.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask);
        }
    }
}
