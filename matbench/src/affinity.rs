//! Pinning a round to one CPU.
//!
//! On this class of host (a 2-vCPU VM) a loopback request costs ≈ 10 µs
//! when client and session worker share a core and ≈ 46 µs when every
//! reply needs a cross-core wake-up, and which of the two a process gets is
//! decided by the scheduler for seconds at a time.  A closed loop with one
//! client never has both sides runnable at once, so one CPU loses nothing
//! and makes the round repeatable.  Threads spawned afterwards (the server's)
//! inherit the mask, and `available_parallelism` — hence `MATLANG_THREADS`'
//! default — follows it.

#[cfg(target_os = "linux")]
mod sys {
    // std links the platform C library; these two are declared here because
    // std exposes no affinity API and the build cannot add the `libc` crate.
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// Words of the CPU mask: room for 1024 CPUs, the kernel's default set size.
#[cfg(target_os = "linux")]
const MASK_WORDS: usize = 16;

/// Restricts the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 tends to take the interrupts).  Returns that CPU, or `None` when
/// the platform refuses or has no such call; the round then runs unpinned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte length
    // passed; pid 0 names the calling thread.
    let got = unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = mask
        .iter()
        .enumerate()
        .rev()
        .find(|(_, word)| **word != 0)
        .map(|(i, word)| i * 64 + 63 - word.leading_zeros() as usize)?;
    let mut one = [0u64; MASK_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of exactly the byte length passed and is
    // only read; pid 0 names the calling thread.
    let set = unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
