//! What the process can say about itself and the machine: CPU time,
//! peak memory, core count, the quiet-machine probe and the
//! environment stamp.

use obs::Json;
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// User + system CPU time of the whole process (every thread, living
/// or ended), in ms, at the kernel's nanosecond resolution.
pub fn process_cpu_ms() -> f64 {
    /// `struct timespec` as 64-bit Linux lays it out.
    #[repr(C)]
    struct Timespec {
        secs: i64,
        nanos: i64,
    }
    const _: () = assert!(
        cfg!(all(target_os = "linux", target_pointer_width = "64")),
        "ddbench reads /proc and the CPU clock as 64-bit Linux has them"
    );
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    extern "C" {
        fn clock_gettime(clock: i32, at: *mut Timespec) -> i32;
    }
    let mut at = Timespec { secs: 0, nanos: 0 };
    // SAFETY: `clock_gettime` writes one `timespec` through the pointer
    // and nothing else; `at` is a live, exclusively borrowed value of
    // that layout, and the C library `std` links provides the symbol.
    let status = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut at) };
    assert_eq!(status, 0, "the process CPU clock is always readable");
    at.secs as f64 * 1e3 + at.nanos as f64 / 1e6
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs the process may run on right now.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// CPUs the machine offered, and the one the process then pinned
/// itself to (`None` if the kernel refused).
static PINNING: OnceLock<(usize, Option<usize>)> = OnceLock::new();

/// Pin the process, and so every thread it starts, to the last CPU it
/// may run on.
///
/// One closed-loop client never has two threads busy at once, so a
/// second CPU buys the workloads nothing; what it does is let the
/// client and the serve tier's workers sit on different vCPUs, and the
/// host moves those apart and together as it pleases: with them apart
/// every hand-off costs more, and `serve_miss` ran 30% slower for a
/// quarter of an hour at a time while a pinned copy beside it did not
/// move. The last CPU, because the first takes the machine's
/// interrupts.
pub fn pin_to_one_cpu() {
    /// A `cpu_set_t`: one bit per CPU, 1024 of them.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, bytes: usize, set: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, bytes: usize, set: *const CpuSet) -> i32;
    }
    let offered = nproc();
    let mut set: CpuSet = [0; 16];
    // SAFETY: both calls read or write `bytes` bytes through the
    // pointer and nothing else; `set` is a live value of exactly that
    // size. Pid 0 is the calling thread, the only one there is yet.
    let pinned = unsafe {
        if sched_getaffinity(0, size_of::<CpuSet>(), &mut set) != 0 {
            None
        } else {
            let last = set.iter().enumerate().rev().find(|(_, word)| **word != 0);
            last.and_then(|(k, word)| {
                let cpu = k * 64 + 63 - word.leading_zeros() as usize;
                let mut one: CpuSet = [0; 16];
                one[k] = 1 << (cpu % 64);
                (sched_setaffinity(0, size_of::<CpuSet>(), &one) == 0).then_some(cpu)
            })
        }
    };
    PINNING.get_or_init(|| (offered, pinned));
}

/// One reading of the quiet-machine probe: two fixed pieces of work,
/// about 100 ms each on the machine the baseline was recorded on, timed
/// before and after each workload's timed phase so that a noisy
/// neighbour shows beside the numbers it spoiled.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// Integer arithmetic in registers: slows only when the core is
    /// shared or throttled.
    pub alu_ms: f64,
    /// A dependent pointer chase through 16 MiB, four times the L2:
    /// slows when the shared last-level cache or memory is contended,
    /// which is what the warehouse's scans feel.
    pub mem_ms: f64,
}

/// The probe's 16 MiB ring, built once when the run starts and kept to
/// its end: every run's peak memory then holds it, instead of holding
/// it only in the runs where a reading happens to fall on the peak.
pub struct Prober {
    next: Vec<u64>,
}

impl Prober {
    pub fn new() -> Prober {
        // One cycle through every slot (Sattolo's shuffle), so the chase
        // cannot settle into a short loop that fits a smaller cache.
        const SLOTS: usize = 2 << 20;
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next: Vec<u64> = (0..SLOTS as u64).collect();
        for i in (1..SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            next.swap(i, (x % i as u64) as usize);
        }
        Prober { next }
    }

    pub fn read(&self) -> Probe {
        let start = Instant::now();
        let mut x = black_box(0x2545_F491_4F6C_DD1Du64);
        let mut acc = 0u64;
        for _ in 0..black_box(54_000_000u64) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        black_box(acc);
        let alu_ms = start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        let mut at = 0u64;
        for _ in 0..black_box(1_600_000u32) {
            at = self.next[at as usize];
        }
        black_box(at);
        let mem_ms = start.elapsed().as_secs_f64() * 1e3;
        Probe { alu_ms, mem_ms }
    }
}

fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The part of the environment stamp that does not depend on the
/// workload.
pub fn stamp() -> Vec<(&'static str, Json)> {
    let (offered, pinned) = PINNING.get().copied().unwrap_or((nproc(), None));
    vec![
        ("nproc", Json::from(offered)),
        ("pinned_cpu", pinned.map_or(Json::Null, Json::from)),
        ("rustc", Json::from(env!("DDBENCH_RUSTC"))),
        ("commit", Json::from(commit())),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        // Stated because read, write and space costs trade against
        // each other and the benchmark leaves all three at the
        // crates' defaults.
        (
            "oplog_flush",
            Json::from("crate default: sync_data after every appended record"),
        ),
        (
            "segment_flush",
            Json::from("crate default: temp file then rename, no fsync"),
        ),
    ]
}
