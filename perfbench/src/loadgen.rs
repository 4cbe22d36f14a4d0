//! The benchmark's own load generator: one thread, at most two
//! connections, an open-loop Poisson read schedule and (optionally) a
//! closed-loop writer with a fixed window on its own connection.
//!
//! Compared with `prim_bench::loadgen`, the accounting is fixed:
//!
//! * completions are attributed to the phase's arrival window only
//!   through their own timestamps — a run reports how many requests were
//!   still in flight when the window closed instead of crediting drain-
//!   window completions to the window's throughput;
//! * every read keeps its outcome, so sheds, errors and unanswered
//!   requests count as misses of a latency limit (they have no latency);
//! * each send records how late it left against its schedule;
//! * schedules are seeded by the caller (the benchmark seed), never
//!   derived from rate and connection count.

use crate::streams::ReadReq;
use prim_serve::{Event, Interest, Poller};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    /// Structured shed: `overloaded` or `deadline_exceeded`.
    Shed,
    Error,
    /// Still in flight when the drain window closed.
    Unanswered,
}

/// Classifies a response line without a full JSON parse.
pub fn classify(line: &str) -> Outcome {
    if line.starts_with("{\"ok\": true") {
        Outcome::Ok
    } else if line.contains("\"code\": \"overloaded\"")
        || line.contains("\"code\": \"deadline_exceeded\"")
    {
        Outcome::Shed
    } else {
        Outcome::Error
    }
}

/// One read of a phase.
#[derive(Clone, Debug)]
pub struct ReadRec {
    /// Index into the phase's read stream.
    pub req: usize,
    pub sched: Instant,
    pub sent: Instant,
    pub done: Option<Instant>,
    pub outcome: Outcome,
    /// The response line, when the phase asked to keep it.
    pub resp: Option<String>,
}

impl ReadRec {
    /// Latency from scheduled arrival, ms (`None` unless answered ok).
    pub fn latency_ms(&self) -> Option<f64> {
        match (self.outcome, self.done) {
            (Outcome::Ok, Some(d)) => Some(d.duration_since(self.sched).as_secs_f64() * 1e3),
            _ => None,
        }
    }

    /// How late the generator sent this read, ms.
    pub fn late_ms(&self) -> f64 {
        self.sent
            .saturating_duration_since(self.sched)
            .as_secs_f64()
            * 1e3
    }
}

/// One writer op of a phase (every response is kept).
#[derive(Clone, Debug)]
pub struct WriteRec {
    /// Index into the writer's op stream.
    pub op: usize,
    pub sent: Instant,
    pub done: Option<Instant>,
    pub outcome: Outcome,
    pub resp: Option<String>,
}

/// Closed-loop writer: ops go out on `conn`, at most `window` in flight.
/// A barrier op (a flush) is sent alone: nothing follows it until it is
/// acknowledged and the writer has thought for `think`.
pub struct Writer<'a> {
    pub conn: usize,
    pub lines: &'a [String],
    pub barriers: &'a [bool],
    pub window: usize,
    pub think: Duration,
}

/// One measured phase.
pub struct Phase<'a> {
    /// Read stream; read `i` of the phase sends `reads[(offset + i) % len]`.
    pub reads: &'a [ReadReq],
    pub offset: usize,
    /// Arrival offsets in seconds from the phase start.
    pub arrivals: &'a [f64],
    /// Connections reads rotate over.
    pub read_conns: &'a [usize],
    /// Length of the arrival window.
    pub horizon: Duration,
    /// Grace period for stragglers after the window.
    pub drain: Duration,
    /// Keep the response of read `i`?
    pub keep: &'a dyn Fn(usize) -> bool,
    pub writer: Option<Writer<'a>>,
}

/// What a phase observed.
pub struct PhaseResult {
    pub start: Instant,
    pub horizon: Duration,
    pub reads: Vec<ReadRec>,
    pub writes: Vec<WriteRec>,
    /// Reads in flight at the moment the arrival window closed.
    pub inflight_at_horizon: usize,
}

enum Pending {
    Read(usize),
    Write(usize),
}

struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    wbuf: Vec<u8>,
    inflight: VecDeque<Pending>,
    dead: bool,
}

impl Conn {
    /// Writes what the socket takes; false on a broken connection.
    fn flush(&mut self) -> bool {
        let mut pos = 0;
        while pos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[pos..]) {
                Ok(0) => return false,
                Ok(n) => pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        self.wbuf.drain(..pos);
        true
    }
}

/// A connected client fleet (one poller, a few connections).
pub struct Client {
    poller: Poller,
    conns: Vec<Conn>,
    events: Vec<Event>,
}

impl Client {
    pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Self> {
        let mut client = Client {
            poller: Poller::new()?,
            conns: Vec::with_capacity(n),
            events: Vec::new(),
        };
        client.open(addr, n)?;
        Ok(client)
    }

    /// Closes every connection, then opens the same number afresh — never
    /// more than `n` connections exist at once.
    pub fn reconnect(&mut self, addr: SocketAddr) -> std::io::Result<()> {
        let n = self.conns.len();
        self.conns.clear();
        self.open(addr, n)
    }

    fn open(&mut self, addr: SocketAddr, n: usize) -> std::io::Result<()> {
        for i in 0..n {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            self.poller
                .register(stream.as_raw_fd(), i as u64, Interest::READ)?;
            self.conns.push(Conn {
                stream,
                rbuf: Vec::new(),
                wbuf: Vec::new(),
                inflight: VecDeque::new(),
                dead: false,
            });
        }
        Ok(())
    }

    fn send(&mut self, ci: usize, line: &str, what: Pending) -> bool {
        let conn = &mut self.conns[ci];
        if conn.dead {
            return false;
        }
        conn.wbuf.extend_from_slice(line.as_bytes());
        conn.wbuf.push(b'\n');
        conn.inflight.push_back(what);
        if !conn.flush() {
            conn.dead = true;
        }
        true
    }

    /// Reads whatever arrived; calls `on_line(pending, line)` per response.
    fn pump(&mut self, timeout: Duration, on_line: &mut impl FnMut(Pending, &str, Instant)) {
        let _ = self.poller.wait(&mut self.events, Some(timeout));
        let now = Instant::now();
        for conn in &mut self.conns {
            if conn.dead {
                continue;
            }
            if !conn.wbuf.is_empty() && !conn.flush() {
                conn.dead = true;
                continue;
            }
        }
        let ready: Vec<usize> = self
            .events
            .iter()
            .filter(|e| e.readable || e.hangup)
            .map(|e| e.token as usize)
            .collect();
        for ci in ready {
            let conn = &mut self.conns[ci];
            if conn.dead {
                continue;
            }
            let mut chunk = [0u8; 64 * 1024];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.dead = true;
                        break;
                    }
                    Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            let mut start = 0;
            while let Some(pos) = conn.rbuf[start..].iter().position(|&b| b == b'\n') {
                let line = String::from_utf8_lossy(&conn.rbuf[start..start + pos]);
                if let Some(p) = conn.inflight.pop_front() {
                    on_line(p, &line, now);
                }
                start += pos + 1;
            }
            conn.rbuf.drain(..start);
        }
    }

    fn inflight(&self) -> usize {
        self.conns.iter().map(|c| c.inflight.len()).sum()
    }

    /// Runs one phase: fires reads at their scheduled instants, keeps the
    /// writer's window full until the arrival window closes, then drains.
    pub fn run(&mut self, phase: &Phase) -> PhaseResult {
        // A short lead so the first arrival is not already late.
        let start = Instant::now() + Duration::from_millis(2);
        let horizon_end = start + phase.horizon;
        let hard_stop = horizon_end + phase.drain;
        let mut reads: Vec<ReadRec> = Vec::with_capacity(phase.arrivals.len());
        let mut writes: Vec<WriteRec> = Vec::new();
        let mut next = 0usize;
        let mut next_op = 0usize;
        let mut writes_inflight = 0usize;
        // Barrier handling: no sends while a barrier is in flight, and
        // none before `resume_at` after it is acknowledged.
        let mut barrier_inflight = false;
        let mut resume_at = start;
        let mut inflight_at_horizon = None;
        loop {
            let now = Instant::now();
            while next < phase.arrivals.len() {
                let sched = start + Duration::from_secs_f64(phase.arrivals[next]);
                if sched > now {
                    break;
                }
                let req = (phase.offset + next) % phase.reads.len();
                let ci = phase.read_conns[next % phase.read_conns.len()];
                let sent = Instant::now();
                let live = self.send(ci, &phase.reads[req].line, Pending::Read(reads.len()));
                reads.push(ReadRec {
                    req,
                    sched,
                    sent,
                    done: None,
                    outcome: if live {
                        Outcome::Unanswered
                    } else {
                        Outcome::Error
                    },
                    resp: None,
                });
                next += 1;
            }
            if let Some(w) = &phase.writer {
                while now < horizon_end
                    && now >= resume_at
                    && !barrier_inflight
                    && writes_inflight < w.window
                    && next_op < w.lines.len()
                {
                    let barrier = w.barriers[next_op];
                    if barrier && writes_inflight > 0 {
                        break;
                    }
                    let sent = Instant::now();
                    let live = self.send(w.conn, &w.lines[next_op], Pending::Write(writes.len()));
                    writes.push(WriteRec {
                        op: next_op,
                        sent,
                        done: None,
                        outcome: if live {
                            Outcome::Unanswered
                        } else {
                            Outcome::Error
                        },
                        resp: None,
                    });
                    writes_inflight += usize::from(live);
                    barrier_inflight = barrier && live;
                    next_op += 1;
                }
            }
            if now >= horizon_end && inflight_at_horizon.is_none() {
                inflight_at_horizon = Some(
                    reads
                        .iter()
                        .filter(|r| r.outcome == Outcome::Unanswered)
                        .count(),
                );
            }
            if (now >= horizon_end && self.inflight() == 0) || now >= hard_stop {
                break;
            }
            if self.conns.iter().all(|c| c.dead) {
                break;
            }
            let until_next = phase
                .arrivals
                .get(next)
                .map(|&a| (start + Duration::from_secs_f64(a)).saturating_duration_since(now))
                .unwrap_or(Duration::from_millis(1));
            // Sub-millisecond gaps spin (the generator owns its core);
            // epoll's timeout is whole milliseconds.
            let timeout = if until_next < Duration::from_millis(1) {
                Duration::ZERO
            } else {
                Duration::from_millis(1)
            };
            self.pump(timeout, &mut |p, line, at| {
                let outcome = classify(line);
                match p {
                    Pending::Read(i) => {
                        let r = &mut reads[i];
                        r.done = Some(at);
                        r.outcome = outcome;
                        if (phase.keep)(i) || outcome == Outcome::Error {
                            r.resp = Some(line.to_string());
                        }
                    }
                    Pending::Write(i) => {
                        let w = &mut writes[i];
                        w.done = Some(at);
                        w.outcome = outcome;
                        w.resp = Some(line.to_string());
                        writes_inflight -= 1;
                        if let Some(wr) = &phase.writer {
                            if wr.barriers[w.op] {
                                barrier_inflight = false;
                                resume_at = at + wr.think;
                            }
                        }
                    }
                }
            });
        }
        // Anything still queued on a connection is abandoned with it.
        for c in &mut self.conns {
            c.inflight.clear();
        }
        PhaseResult {
            start,
            horizon: phase.horizon,
            reads,
            writes,
            inflight_at_horizon: inflight_at_horizon.unwrap_or(0),
        }
    }

    /// Sends one request on `ci` and waits (up to `timeout`) for its
    /// response: the closed-loop path for probes and final checks.
    pub fn request(&mut self, ci: usize, line: &str, timeout: Duration) -> Option<String> {
        if !self.conns[ci].inflight.is_empty() || !self.send(ci, line, Pending::Read(0)) {
            return None;
        }
        let deadline = Instant::now() + timeout;
        let mut got = None;
        while got.is_none() && Instant::now() < deadline && !self.conns[ci].dead {
            self.pump(Duration::from_millis(1), &mut |_, l, _| {
                got = Some(l.to_string())
            });
        }
        if got.is_none() {
            self.conns[ci].inflight.clear();
        }
        got
    }
}
