//! Starting and stopping the server child, and timing its set-up.

use crate::fixtures::Workload;
use crate::host;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// A running server child. Dropping it kills the process and waits.
pub struct ServerProc {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    /// Process spawn to the first answered `health`, seconds.
    pub setup_s: f64,
}

fn ask(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut s = TcpStream::connect(addr)?;
    s.set_read_timeout(Some(Duration::from_secs(60)))?;
    s.write_all(line.as_bytes())?;
    s.write_all(b"\n")?;
    let mut resp = String::new();
    BufReader::new(s).read_line(&mut resp)?;
    Ok(resp)
}

/// Spawns the server for `workload` over the checkpoints in `work`,
/// pinned to `cpus`, and waits for its first `health` answer.
pub fn start(
    workload: Workload,
    work: &Path,
    cities: &[String],
    cpus: &[usize],
) -> Result<ServerProc, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .args(["--serve-child", "--workload", workload.name(), "--work"])
        .arg(work)
        .args([
            "--cities",
            &cities.join(","),
            "--cpus",
            &host::format_cpus(cpus),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawning the server: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = String::new();
    let port = loop {
        line.clear();
        let n = stdout.read_line(&mut line).map_err(|e| e.to_string());
        if let Some(p) = line.trim().strip_prefix("READY ") {
            break p.parse::<u16>().map_err(|e| format!("bad READY line: {e}"));
        }
        if n.is_err() || line.is_empty() {
            let status = child.wait().map_err(|e| e.to_string())?;
            break Err(format!("server exited before it was ready ({status})"));
        }
    };
    let mut proc = ServerProc {
        child: Some(child),
        stdout,
        addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        setup_s: 0.0,
    };
    proc.addr = SocketAddr::from(([127, 0, 0, 1], port?));
    let health = ask(proc.addr, "{\"op\": \"health\"}").map_err(|e| format!("health: {e}"))?;
    if !health.starts_with("{\"ok\": true") {
        return Err(format!("health answered {health}"));
    }
    proc.setup_s = t0.elapsed().as_secs_f64();
    Ok(proc)
}

impl ServerProc {
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Asks the server to shut down, waits for it, and returns what it
    /// printed after `READY`.
    pub fn stop(mut self) -> Result<String, String> {
        let _ = ask(self.addr, "{\"op\": \"shutdown\"}");
        let mut child = self.child.take().expect("child present until stop");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            match child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not stop within 30 s; killed".to_string());
                }
            }
        };
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        Ok(rest)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}
