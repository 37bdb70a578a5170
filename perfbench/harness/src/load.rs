//! The open-loop TCP load generator.
//!
//! One thread per connection (at most `nproc` of each). Requests of the
//! open-loop phases go out at their scheduled times whatever the backlog;
//! each is timed from when it was *due*, so a stall also delays every
//! request queued behind it. The saturation phase then keeps a fixed
//! window of requests outstanding on every connection, so the daemon
//! never idles and the completion rate is its capacity.

use crate::check::{classify, Payload};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Which part of a run a request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Open loop at the reference rate, not measured.
    Warmup,
    /// Open loop at the reference rate, measured.
    Measured,
    /// Offered load above capacity.
    Saturation,
}

impl Phase {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Warmup => "warmup",
            Phase::Measured => "measured",
            Phase::Saturation => "saturation",
        }
    }
}

/// One request of a connection's plan.
#[derive(Debug, Clone)]
pub struct Planned {
    /// Pool key of the request.
    pub key: usize,
    /// Correlation id (its position in the run's request sequence).
    pub id: u64,
    /// Due time in seconds from the run start (open-loop phases).
    pub due: f64,
    /// The phase it belongs to.
    pub phase: Phase,
}

/// What happened to one planned request.
#[derive(Debug, Clone)]
pub struct Record {
    /// The plan entry.
    pub plan: Planned,
    /// When its send started (seconds from the run start; NaN if unsent).
    pub sent: f64,
    /// When its reply line was complete (NaN if none).
    pub done: f64,
    /// The reply as recorded for the reference check.
    pub payload: Payload,
}

/// Everything one connection observed.
#[derive(Debug, Default)]
pub struct ConnResult {
    /// Per-request records, in plan order (saturation requests only as
    /// far as they were sent).
    pub records: Vec<Record>,
    /// One copy of each distinct `ok` tail per `(key, hash)`.
    pub tails: HashMap<(usize, u64), String>,
    /// Transport errors (a failed write, a closed connection).
    pub errors: Vec<String>,
}

/// Settings of one connection's run.
#[derive(Debug, Clone)]
pub struct ConnPlan {
    /// Open-loop phases (warm-up, measured), each by due time; a
    /// request's `due` is relative to its phase start, and a phase starts
    /// once every connection has drained the one before it.
    pub open: Vec<Vec<Planned>>,
    /// Saturation requests, in order.
    pub saturation: Vec<Planned>,
    /// Requests kept outstanding during saturation.
    pub window: usize,
    /// Length of the saturation phase.
    pub saturation_s: f64,
    /// How long to wait for outstanding replies at a phase end.
    pub drain_s: f64,
}

/// Polling interval of the non-blocking connection loop. Socket read
/// timeouts round up to the kernel tick (4 ms at HZ=250), which would
/// make the generator late; a short sleep between non-blocking polls
/// keeps sends within a fraction of a millisecond of their due time.
const POLL: Duration = Duration::from_micros(100);

struct Conn<'a> {
    stream: TcpStream,
    start: Instant,
    /// Bytes of sent lines the socket has not taken yet.
    outgoing: VecDeque<u8>,
    buf: Vec<u8>,
    chunk: Vec<u8>,
    pending: VecDeque<usize>,
    out: &'a mut ConnResult,
    lines: &'a dyn Fn(usize, u64) -> String,
    alive: bool,
}

impl Conn<'_> {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    fn fail(&mut self, why: String) {
        self.out.errors.push(why);
        self.alive = false;
    }

    fn send(&mut self, p: Planned) {
        let line = (self.lines)(p.key, p.id);
        let sent = self.now();
        self.pending.push_back(self.out.records.len());
        self.out.records.push(Record {
            plan: p,
            sent,
            done: f64::NAN,
            payload: Payload::Missing,
        });
        self.outgoing.extend(line.as_bytes());
        self.outgoing.push_back(b'\n');
        self.flush();
    }

    /// Write what the socket takes without blocking.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.alive && !self.outgoing.is_empty() {
            let (head, _) = self.outgoing.as_slices();
            match self.stream.write(head) {
                Ok(0) => self.fail("daemon closed the connection".into()),
                Ok(n) => {
                    self.outgoing.drain(..n);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.fail(format!("write: {e}")),
            }
        }
        progressed
    }

    /// Read whatever replies have arrived without blocking.
    fn read(&mut self) -> bool {
        let mut progressed = false;
        while self.alive {
            match self.stream.read(&mut self.chunk) {
                Ok(0) => self.fail("daemon closed the connection".into()),
                Ok(n) => {
                    let done = self.now();
                    let old = self.buf.len();
                    self.buf.extend_from_slice(&self.chunk[..n]);
                    let mut from = 0;
                    let mut scan = old;
                    while let Some(nl) = self.buf[scan..].iter().position(|&b| b == b'\n') {
                        let line = String::from_utf8_lossy(&self.buf[from..scan + nl]).into_owned();
                        from = scan + nl + 1;
                        scan = from;
                        self.complete(&line, done);
                    }
                    self.buf.drain(..from);
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => self.fail(format!("read: {e}")),
            }
        }
        progressed
    }

    /// One poll: move bytes both ways, sleep briefly when idle.
    fn poll(&mut self, until: f64) {
        let wrote = self.flush();
        let read = self.read();
        if !wrote && !read {
            let left = until - self.now();
            if left > 0.0 {
                std::thread::sleep(POLL.min(Duration::from_secs_f64(left)));
            }
        }
    }

    fn complete(&mut self, line: &str, done: f64) {
        let Some(idx) = self.pending.pop_front() else {
            self.out.errors.push("reply without a request".into());
            return;
        };
        let (payload, tail) = classify(line);
        if let Some((hash, tail)) = tail {
            let key = self.out.records[idx].plan.key;
            self.out.tails.entry((key, hash)).or_insert(tail);
        }
        let rec = &mut self.out.records[idx];
        rec.done = done;
        rec.payload = payload;
    }

    /// Wait until nothing is outstanding, or `drain_s` has passed.
    fn drain(&mut self, drain_s: f64) {
        let deadline = self.now() + drain_s;
        while self.alive && !self.pending.is_empty() && self.now() < deadline {
            self.poll(deadline);
        }
    }
}

/// Drive one connection through its plan. `barrier` lines the
/// connections up so saturation starts at the same moment on all.
pub fn run_conn(
    addr: &str,
    plan: &ConnPlan,
    start: Instant,
    barrier: &Barrier,
    lines: &dyn Fn(usize, u64) -> String,
) -> ConnResult {
    let mut out = ConnResult::default();
    let stream = match TcpStream::connect(addr).and_then(|s| s.set_nonblocking(true).map(|()| s)) {
        Ok(s) => s,
        Err(e) => {
            out.errors.push(format!("connect {addr}: {e}"));
            for _ in 0..=plan.open.len() {
                barrier.wait();
            }
            return out;
        }
    };
    let _ = stream.set_nodelay(true);
    let mut c = Conn {
        stream,
        start,
        outgoing: VecDeque::new(),
        buf: Vec::new(),
        chunk: vec![0; 1 << 18],
        pending: VecDeque::new(),
        out: &mut out,
        lines,
        alive: true,
    };

    // Open loop: send each request when due, read replies in between.
    for phase in &plan.open {
        barrier.wait();
        let t0 = c.now();
        for p in phase {
            let due = t0 + p.due;
            while c.alive && c.now() < due {
                c.poll(due);
            }
            if !c.alive {
                break;
            }
            c.send(Planned { due, ..p.clone() });
        }
        c.drain(plan.drain_s);
    }
    barrier.wait();

    // Saturation: keep `window` requests outstanding until time is up.
    let end = c.now() + plan.saturation_s;
    let mut next = plan.saturation.iter();
    while c.alive && c.now() < end {
        if c.pending.len() < plan.window {
            let Some(p) = next.next() else { break };
            let mut p = p.clone();
            p.due = c.now();
            c.send(p);
        } else {
            c.poll(end);
        }
    }
    c.drain(plan.drain_s);
    out
}

/// Send one control line on a fresh connection and return its reply.
pub fn control(addr: &str, line: &str, timeout: Duration) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = s.set_nodelay(true);
    s.set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    s.write_all(format!("{line}\n").as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut reply = Vec::new();
    let mut chunk = [0u8; 8192];
    while !reply.ends_with(b"\n") {
        match s.read(&mut chunk) {
            Ok(0) => return Err("daemon closed the connection".into()),
            Ok(n) => reply.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    reply.pop();
    String::from_utf8(reply).map_err(|e| e.to_string())
}

/// Requests sent but not answered at time `t` (seconds from the start).
pub fn backlog_at(records: &[Record], t: f64) -> usize {
    records
        .iter()
        .filter(|r| r.sent <= t && (r.done.is_nan() || r.done > t))
        .count()
}
