//! Host counters read from outside the engine: process CPU from the
//! process CPU-time clock, hypervisor steal from `/proc/stat`, context
//! switches summed over `/proc/self/task/*`, peak resident memory
//! (`VmHWM`), the thread count, CPU placement, and a counting global
//! allocator that is armed only for the traced window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fs;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sysconf(name: i32) -> i64;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
/// `_SC_CLK_TCK` on Linux.
const SC_CLK_TCK: i32 = 2;
/// `sizeof(cpu_set_t)` in glibc: 1024 CPUs.
const CPU_SET_BYTES: usize = 128;

/// CPUs the calling thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is writable and exactly `CPU_SET_BYTES` long; pid 0
    // names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..CPU_SET_BYTES * 8)
        .filter(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .collect()
}

/// The CPU every thread of the process runs on, once pinned; steal is
/// then read for that CPU alone. `usize::MAX` while unpinned.
static PINNED_CPU: AtomicUsize = AtomicUsize::new(usize::MAX);

/// Restrict the calling thread to `cpu`. Threads it spawns afterwards
/// inherit the restriction, and so do child processes. Returns whether
/// the kernel accepted it.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u8; CPU_SET_BYTES];
    mask[cpu / 8] |= 1 << (cpu % 8);
    // SAFETY: `mask` is readable and exactly `CPU_SET_BYTES` long; pid 0
    // names the calling thread.
    let pinned = unsafe { sched_setaffinity(0, CPU_SET_BYTES, mask.as_ptr()) == 0 };
    if pinned {
        PINNED_CPU.store(cpu, Ordering::Relaxed);
    }
    pinned
}

fn ticks_to_us(ticks: u64) -> u64 {
    // SAFETY: sysconf takes a plain integer and has no memory effects.
    let hz = unsafe { sysconf(SC_CLK_TCK) };
    let hz = u64::try_from(hz).ok().filter(|&h| h > 0).unwrap_or(100);
    ticks * 1_000_000 / hz
}

/// Process user+sys CPU in microseconds, summed over all threads
/// (`CLOCK_PROCESS_CPUTIME_ID`, nanosecond resolution; `/proc/self/stat`
/// counts in 10 ms ticks, 4 % of a 250 ms slice).
pub fn cpu_us() -> u64 {
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a writable timespec; the clock id is a constant.
    let ok = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0;
    assert!(ok, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as u64 * 1_000_000 + ts.nsec as u64 / 1000
}

/// Microseconds the hypervisor ran something else while this guest's
/// CPU wanted to run (`/proc/stat`, steal column): of the pinned CPU, or
/// summed over all CPUs while unpinned.
pub fn steal_us() -> u64 {
    let cpu = PINNED_CPU.load(Ordering::Relaxed);
    let label = if cpu == usize::MAX {
        "cpu".to_string()
    } else {
        format!("cpu{cpu}")
    };
    let ticks = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .map(|l| l.split_whitespace())
                .find_map(|mut f| {
                    (f.next() == Some(label.as_str())).then(|| f.nth(7)?.parse().ok())
                })
                .flatten()
        })
        .unwrap_or(0);
    ticks_to_us(ticks)
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Voluntary plus involuntary context switches, summed over every live
/// thread of the process.
pub fn ctx_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("status")).ok())
        .map(|s| {
            status_field(&s, "voluntary_ctxt_switches:")
                + status_field(&s, "nonvoluntary_ctxt_switches:")
        })
        .sum()
}

/// Threads currently in the process.
pub fn threads() -> u64 {
    fs::read_dir("/proc/self/task")
        .map(|d| d.count() as u64)
        .unwrap_or(0)
}

/// Peak resident set size in KiB.
pub fn peak_rss_kib() -> u64 {
    fs::read_to_string("/proc/self/status")
        .map(|s| status_field(&s, "VmHWM:"))
        .unwrap_or(0)
}

/// The system allocator, counting calls and bytes while armed.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn count(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; counting touches only atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Arm or disarm allocation counting; arming zeroes the counters.
pub fn count_allocs(on: bool) {
    if on {
        ALLOCS.store(0, Ordering::Relaxed);
        ALLOC_BYTES.store(0, Ordering::Relaxed);
    }
    COUNTING.store(on, Ordering::SeqCst);
}

/// (allocations, bytes requested) since counting was last armed.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}
