//! What the benchmark reads about its own process and machine: CPU
//! time, peak resident memory, core count, git revision and compiler
//! version. Plus the order statistics every metric is reported with.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` with the C layout
    // (`repr(C)`, two 64-bit fields on 64-bit Linux), and the clock id is
    // a constant the kernel defines; `clock_gettime` writes only into
    // `ts` and keeps no pointer to it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("VmHWM present in /proc/self/status");
    kb / 1024.0
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` in the working directory
/// (no `git` process, so nothing outside the checkout is searched).
/// `"unknown"` when the checkout is not a git repository.
pub fn git_rev() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{name}"))
        .or_else(|| {
            read(".git/packed-refs")?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Keys the calibration kernel inserts and probes.
const CAL_KEYS: u64 = 1 << 17;

/// A fixed job that uses none of the repository's code, on `threads`
/// threads at once: each inserts `CAL_KEYS` pseudo-random keys into a
/// fresh hash set, then probes as many. Like the workloads it hashes,
/// allocates and misses cache, so it slows down with them when the
/// machine's shared cores or memory are busy.
pub fn calibration_kernel(threads: usize) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut set: HashSet<u64, BuildHasherDefault<DefaultHasher>> = HashSet::default();
                let mut x = 0x9e37_79b9_7f4a_7c15_u64;
                for _ in 0..CAL_KEYS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    set.insert(x);
                }
                let hits = (0..CAL_KEYS).filter(|k| set.contains(k)).count();
                std::hint::black_box(hits);
            });
        }
    });
    start.elapsed()
}

/// The `q`-quantile (0 ≤ q ≤ 1) of `xs`, linearly interpolated between
/// order statistics. 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `xs` (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn process_clocks_advance() {
        let t0 = process_cpu_time();
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_time() > t0, "{x}");
        assert!(peak_rss_mb() > 0.0);
    }
}
