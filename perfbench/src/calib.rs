//! Host-speed calibration: a fixed synthetic request round, run on the
//! server's CPUs while the server is idle, timed in thread CPU time.
//!
//! On a shared host the CPU time one request costs follows the host's
//! state as much as the program: a mostly idle server finds its caches
//! cold after every gap, and how cold depends on what the neighbours on
//! the same machine do to the shared last-level cache and memory; wake-ups
//! and cross-CPU signals cost what the hypervisor makes them cost. That
//! moves the figure by half again within seconds. A round of the same
//! kinds of work — wake from an idle gap, random reads from a table past a
//! private cache, a loopback TCP round trip to the other CPU — meets the
//! same host state and moves with it; it contains no program code, so a
//! change to the program cannot move it. Dividing the server's CPU per
//! request by it gives a figure that follows the program rather than the
//! host.

use crate::host;
use crate::stats;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// Rounds per calibration sample.
const ROUNDS: usize = 1_500;
/// Idle gap before each round, as a server request at a modest rate
/// meets one.
const IDLE: Duration = Duration::from_micros(100);
/// Words of the table the reads walk (4 MiB: past a private L2).
const WORDS: usize = 1 << 20;
/// Random reads per round.
const READS: usize = 1_000;
/// Message size of the loopback round trip.
const MSG: usize = 96;

/// The server-side rounds; the CPU seconds of each.
fn rounds(mut s: TcpStream) -> std::io::Result<Vec<f64>> {
    let table: Vec<u32> = (0..WORDS as u32)
        .map(|i| i.wrapping_mul(2_654_435_761))
        .collect();
    let mut msg = [7u8; MSG];
    let mut x = 0x9e37_79b9u32;
    let mut acc = 0u32;
    let mut out = Vec::with_capacity(ROUNDS);
    let mut t0 = host::thread_cpu_seconds()?;
    for _ in 0..ROUNDS {
        std::thread::sleep(IDLE);
        for _ in 0..READS {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            acc = acc.wrapping_add(table[(x >> 12) as usize % WORDS]);
        }
        msg[0] = acc as u8;
        s.write_all(&msg)?;
        s.read_exact(&mut msg)?;
        let t1 = host::thread_cpu_seconds()?;
        out.push(t1 - t0);
        t0 = t1;
    }
    std::hint::black_box(acc);
    Ok(out)
}

fn echo(mut s: TcpStream) -> std::io::Result<()> {
    let mut buf = [0u8; MSG];
    for _ in 0..ROUNDS {
        s.read_exact(&mut buf)?;
        s.write_all(&buf)?;
    }
    Ok(())
}

/// One calibration sample: the median CPU microseconds of a round on a
/// thread pinned to the server's `cpus`. The echo thread stays on the
/// calling thread's CPUs (the load generator's), so each round crosses
/// between the two CPUs both ways, as a request and its response do; only
/// the server-side thread's CPU time counts, as only the server's does in
/// the figure it normalises.
pub fn sample(cpus: &[usize]) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("calibration: {e}");
    let listener = TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let client = TcpStream::connect(listener.local_addr().map_err(io)?).map_err(io)?;
    let (server, _) = listener.accept().map_err(io)?;
    client.set_nodelay(true).map_err(io)?;
    server.set_nodelay(true).map_err(io)?;
    let echo = std::thread::spawn(move || echo(server));
    let cpus = cpus.to_vec();
    let own = std::thread::spawn(move || {
        host::pin_to(&cpus)?;
        rounds(client)
    });
    // Join both before looking at either: a failed side closes its stream,
    // which ends the other.
    let own = own.join();
    let echo = echo.join();
    let panicked = || "calibration thread panicked".to_string();
    echo.map_err(|_| panicked())?.map_err(io)?;
    let own = own.map_err(|_| panicked())?.map_err(io)?;
    Ok(stats::median(&own) * 1e6)
}
