//! The clocks every timing in the benchmark is read from, and the
//! calibration kernel the gated timings are scaled by.
//!
//! The gated timings (`run_s`, `setup_s`) are **on-CPU seconds of the
//! calling thread**, not wall-clock seconds. The program under test is
//! single-threaded and does no I/O, so on a quiet host the two agree; on
//! the shared 2-core host the benchmark was sized on, hypervisor steal adds
//! up to 2× to wall-clock time of identical runs and none to on-CPU time.
//! What steal does not explain — neighbours slowing the core itself, by
//! 8–20 % for minutes at a time — is divided out with [`calibration_s`]
//! (README, "Noise"). Wall-clock time is recorded beside it everywhere.

use std::time::Instant;

#[cfg(target_os = "linux")]
mod thread_cpu {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }

    extern "C" {
        fn clock_gettime(clockid: i32, tp: *mut Timespec) -> i32;
    }

    /// `CLOCK_THREAD_CPUTIME_ID` in `<time.h>` on Linux.
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

    pub fn now_ns() -> Option<u64> {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
        // fields on every 64-bit Linux target, which is what `Timespec`
        // declares); `clock_gettime` writes only into it and keeps no
        // pointer past the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        (rc == 0).then(|| ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64)
    }
}

#[cfg(not(target_os = "linux"))]
mod thread_cpu {
    pub fn now_ns() -> Option<u64> {
        None
    }
}

/// One reading of both clocks.
#[derive(Clone, Copy)]
pub struct Tick {
    wall: Instant,
    cpu_ns: Option<u64>,
}

/// Seconds elapsed between two ticks on each clock.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    pub wall_s: f64,
    /// On-CPU seconds; falls back to wall-clock where the platform has no
    /// per-thread CPU clock.
    pub cpu_s: f64,
}

impl Tick {
    pub fn now() -> Tick {
        Tick {
            wall: Instant::now(),
            cpu_ns: thread_cpu::now_ns(),
        }
    }

    pub fn elapsed(&self) -> Elapsed {
        let now = Tick::now();
        let wall_s = now.wall.duration_since(self.wall).as_secs_f64();
        let cpu_s = match (self.cpu_ns, now.cpu_ns) {
            (Some(a), Some(b)) => b.saturating_sub(a) as f64 * 1e-9,
            _ => wall_s,
        };
        Elapsed { wall_s, cpu_s }
    }
}

/// On-CPU seconds [`calibration_s`] takes on the sizing host when it is
/// quiet (median of 5,600 repetitions over 23 minutes). Scaling by
/// `CALIBRATION_NOMINAL_S / measured` turns on-CPU seconds into what they
/// would have been there and then.
pub const CALIBRATION_NOMINAL_S: f64 = 0.004_36;

/// Fixed work with the instruction mix of the program under test — ordered
/// maps, small heap allocations, integer formatting — and none of its code:
/// only `std`, so no change to the program can move it. Returns the on-CPU
/// seconds of the fastest of three runs; each repetition calls it right
/// before set-up and right after the run.
pub fn calibration_s() -> f64 {
    let mut best = f64::MAX;
    for _ in 0..3 {
        let tick = Tick::now();
        let mut state = 1u64;
        let mut map: std::collections::BTreeMap<u64, Vec<u64>> = std::collections::BTreeMap::new();
        for i in 0..30_000u64 {
            // SplitMix64 step, inlined so the kernel depends on nothing.
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            map.entry((z ^ (z >> 31)) % 8192).or_default().push(i);
        }
        let mut acc = 0u64;
        for _ in 0..4 {
            for (k, v) in &map {
                acc = acc.wrapping_add(k ^ v.iter().sum::<u64>());
            }
        }
        let strings: Vec<String> = (0..10_000)
            .map(|i| format!("{}", i ^ acc as usize))
            .collect();
        std::hint::black_box((acc, strings));
        best = best.min(tick.elapsed().cpu_s);
    }
    best
}
