//! Pins the calling thread, and every thread spawned from it afterwards, to
//! one CPU.
//!
//! `serve-mixed` is a ping-pong between two threads: the client blocks while
//! the daemon answers a batch, the daemon blocks while the client checks it,
//! so at most one of them is runnable at any time and a second CPU adds no
//! throughput (measured: 72.9k ops/s pinned, 72.0k free). Left free, the
//! scheduler may still wake each side on the other CPU, and on a shared host
//! that CPU has halted in the meantime: every batch then pays two
//! cross-CPU wake-ups whose cost is the hypervisor's, not the program's
//! (the driver's first check read 19 us/op against 13.7 us here, and its
//! two sets of ten runs spread 28% and 8%). On one CPU the hand-over is a
//! context switch and the CPU never idles.

/// Words of a `cpu_set_t` (1024 bits).
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    // From the C library `std` already links; `pid` 0 is the calling thread.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 takes most of a small guest's interrupts) and returns that CPU.
/// `None` when the platform has no such call or it fails: the run goes on
/// unpinned, which changes no result, only how steady the timings are.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, writable buffer of exactly `bytes` bytes.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let word = mask.iter().rposition(|&w| w != 0)?;
    let bit = 63 - mask[word].leading_zeros() as usize;
    let mut one = [0u64; MASK_WORDS];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live buffer of exactly `bytes` bytes, only read.
    (unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } == 0).then_some(word * 64 + bit)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
