//! Host facts every result records, and the process controls the harness
//! needs: CPU pinning through raw `sched_{get,set}affinity` syscalls (the
//! same no-libc approach as `prim_serve::poll`), and per-process CPU time
//! and peak RSS read from `/proc/<pid>`.

use std::io;

const SYS_PRCTL: i64 = 157;
const SYS_SCHED_SETAFFINITY: i64 = 203;
const SYS_SCHED_GETAFFINITY: i64 = 204;
const SYS_SCHED_SETSCHEDULER: i64 = 144;
const SCHED_IDLE: i64 = 5;
const SYS_CLOCK_GETTIME: i64 = 228;
const CLOCK_THREAD_CPUTIME_ID: i64 = 3;
const PR_SET_PDEATHSIG: i64 = 1;
const SIGKILL: i64 = 9;
/// Mask words: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

#[cfg(target_arch = "x86_64")]
fn syscall3(n: i64, a: i64, b: i64, c: i64) -> i64 {
    let ret: i64;
    // SAFETY: the affinity syscalls read or write at most `b` bytes
    // through `c`; every caller passes a live `[u64; MASK_WORDS]` and its
    // exact byte size. `prctl(PR_SET_PDEATHSIG)` touches no memory.
    // `clock_gettime` writes one `[i64; 2]` timespec through `b`, and
    // `sched_setscheduler` reads one `i32` priority through `c`; their
    // callers pass live values.
    // rcx/r11 are clobbered by `syscall` and declared so.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") n => ret,
            in("rdi") a,
            in("rsi") b,
            in("rdx") c,
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret
}

#[cfg(not(target_arch = "x86_64"))]
fn syscall3(_n: i64, _a: i64, _b: i64, _c: i64) -> i64 {
    -38 // ENOSYS: pinning is only implemented for x86-64 Linux
}

fn check(ret: i64) -> io::Result<i64> {
    if ret < 0 {
        Err(io::Error::from_raw_os_error(-ret as i32))
    } else {
        Ok(ret)
    }
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> io::Result<Vec<usize>> {
    let mut mask = [0u64; MASK_WORDS];
    check(syscall3(
        SYS_SCHED_GETAFFINITY,
        0,
        std::mem::size_of_val(&mask) as i64,
        mask.as_mut_ptr() as i64,
    ))?;
    Ok((0..MASK_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect())
}

/// Pins the calling thread — and every thread it spawns afterwards — to
/// `cpus`, then reads the mask back to prove the kernel applied it.
pub fn pin_to(cpus: &[usize]) -> io::Result<()> {
    let mut mask = [0u64; MASK_WORDS];
    for &c in cpus {
        if c >= MASK_WORDS * 64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("cpu {c}"),
            ));
        }
        mask[c / 64] |= 1 << (c % 64);
    }
    check(syscall3(
        SYS_SCHED_SETAFFINITY,
        0,
        std::mem::size_of_val(&mask) as i64,
        mask.as_ptr() as i64,
    ))?;
    let got = allowed_cpus()?;
    if got != cpus {
        return Err(io::Error::other(format!(
            "asked for cpus {cpus:?}, kernel applied {got:?}"
        )));
    }
    Ok(())
}

/// Asks the kernel to kill this process when its parent exits, so a
/// server child never outlives a benchmark that was itself killed.
pub fn die_with_parent() -> io::Result<()> {
    check(syscall3(SYS_PRCTL, PR_SET_PDEATHSIG, SIGKILL, 0)).map(|_| ())
}

/// Splits the allowed CPUs into disjoint server and load-generator sets:
/// the server gets the first half (rounded up), the generator the rest.
/// Refuses with a clear message when there is no second CPU to give the
/// generator — sharing a core would charge generator work to the server.
pub fn split_cpus() -> Result<(Vec<usize>, Vec<usize>), String> {
    let cpus = allowed_cpus().map_err(|e| format!("sched_getaffinity failed: {e}"))?;
    if cpus.len() < 2 {
        return Err(format!(
            "refusing to run: server and load generator need disjoint cores, \
             but only {} cpu(s) {cpus:?} are available",
            cpus.len()
        ));
    }
    let server_n = cpus.len().div_ceil(2);
    Ok((cpus[..server_n].to_vec(), cpus[server_n..].to_vec()))
}

/// Renders a CPU list as a hexadecimal affinity mask (`0x1`, `0x2`, ...).
pub fn mask_hex(cpus: &[usize]) -> String {
    let bits: u128 = cpus.iter().filter(|&&c| c < 128).map(|&c| 1u128 << c).sum();
    format!("{bits:#x}")
}

/// Parses `"0,3,5"` into a CPU list.
pub fn parse_cpus(s: &str) -> Result<Vec<usize>, String> {
    s.split(',')
        .map(|c| {
            c.trim()
                .parse::<usize>()
                .map_err(|e| format!("cpu list {s:?}: {e}"))
        })
        .collect()
}

/// Renders a CPU list as `"0,3,5"`.
pub fn format_cpus(cpus: &[usize]) -> String {
    cpus.iter()
        .map(|c| c.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// Busy-polling threads at `SCHED_IDLE` priority, one per CPU the
/// benchmark uses, stopped and joined on drop.
///
/// Without them a CPU halts whenever its threads wait, and on a virtual
/// machine every wake-up from a halt, and every signal to a halted CPU,
/// goes through the hypervisor: the CPU one request costs then follows the
/// neighbours' load more than the program. The spinners keep the CPUs out
/// of halt (as `idle=poll` would) and yield to any normal-priority thread
/// at once, so no server or generator thread waits for them; their CPU
/// time is the benchmark process's, never the server's.
pub struct IdleSpinners {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl IdleSpinners {
    /// Starts one spinner on each CPU in `cpus`; fails if one cannot be
    /// pinned or lowered to `SCHED_IDLE`.
    pub fn start(cpus: &[usize]) -> io::Result<IdleSpinners> {
        use std::sync::atomic::Ordering;
        let mut spinners = IdleSpinners {
            stop: Default::default(),
            threads: Vec::new(),
        };
        for &cpu in cpus {
            let (ready_tx, ready_rx) = std::sync::mpsc::channel();
            let stop = spinners.stop.clone();
            spinners.threads.push(std::thread::spawn(move || {
                let setup = pin_to(&[cpu]).and_then(|()| {
                    let priority: i32 = 0;
                    check(syscall3(
                        SYS_SCHED_SETSCHEDULER,
                        0,
                        SCHED_IDLE,
                        &priority as *const i32 as i64,
                    ))
                    .map(|_| ())
                });
                let ok = setup.is_ok();
                let _ = ready_tx.send(setup);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            }));
            ready_rx
                .recv()
                .map_err(|_| io::Error::other("idle spinner thread died"))??;
        }
        Ok(spinners)
    }
}

impl Drop for IdleSpinners {
    fn drop(&mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// CPU seconds the calling thread has consumed (`CLOCK_THREAD_CPUTIME_ID`
/// through a raw `clock_gettime`), nanosecond resolution.
pub fn thread_cpu_seconds() -> io::Result<f64> {
    let mut ts = [0i64; 2];
    check(syscall3(
        SYS_CLOCK_GETTIME,
        CLOCK_THREAD_CPUTIME_ID,
        ts.as_mut_ptr() as i64,
        0,
    ))?;
    Ok(ts[0] as f64 + ts[1] as f64 * 1e-9)
}

/// User plus system CPU seconds of a process's live threads, at
/// nanosecond resolution: the sum of each thread's run time from
/// `/proc/<pid>/task/*/schedstat`. (`utime`/`stime` in `/proc/<pid>/stat`
/// come in 10 ms ticks, too coarse for a second of a mostly idle server.)
/// The server's threads live as long as it does.
pub fn cpu_seconds_precise(pid: u32) -> io::Result<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread that exits between the listing and the read is skipped.
        let Ok(stat) = std::fs::read_to_string(path) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| io::Error::other("malformed /proc schedstat"))?;
    }
    Ok(ns as f64 * 1e-9)
}

/// Peak resident set size (`VmHWM`) of a live process, MiB.
pub fn peak_rss_mb(pid: u32) -> io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
}

/// Hardware threads visible to this process (`nproc`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The toolchain the benchmark was built with.
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC")
}
