//! The operating-system readings a repetition needs: process CPU time,
//! the main thread's run-queue wait, and the resident-set high-water mark.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the harness reads Linux procfs and assumes the 64-bit `struct timespec`");

fn read(path: &str) -> String {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (the harness needs Linux procfs)"))
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU time of the whole thread group, exited threads included.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU seconds of this process, all threads. `/proc/self/stat`
/// holds the same sum but in 10 ms ticks, which a 3 s repetition turns
/// into a handful of distinct values; the POSIX clock has nanoseconds.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` with the layout
    // of 64-bit Linux (two 64-bit integers), which is all the call
    // requires; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// Nanoseconds the main thread has spent runnable but waiting for a CPU
/// (`/proc/self/schedstat`, second field); 0 where the kernel does not
/// keep scheduler statistics.
pub fn runqueue_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1)?.parse().ok())
        .unwrap_or(0)
}

/// Peak resident set size so far in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = read("/proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM is in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        let _ = runqueue_wait_ns();
    }
}
