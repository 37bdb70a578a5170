//! TCP-mode regression tests against the real `ltf-serve` binary
//! (`--listen 127.0.0.1:0`, port scraped from the stderr banner):
//!
//! * the golden request stream over one connection returns the golden
//!   responses byte for byte,
//! * a lone round trip is not held back by Nagle's algorithm waiting on
//!   the client's delayed ACK (each reply leaves in one write on a
//!   `TCP_NODELAY` socket),
//! * connections are served concurrently: a quick solve on one
//!   connection is answered while a slow shard runs on another,
//! * connections share one solution cache.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

fn golden(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The first golden request: an R-LTF solve of the Fig. 1 instance.
fn solve_line() -> String {
    golden("requests.jsonl")
        .lines()
        .next()
        .expect("golden requests")
        .to_string()
}

/// A running daemon, killed on drop.
struct Daemon {
    child: Child,
    addr: String,
    /// Held open so the daemon's per-connection log lines never hit a
    /// closed pipe.
    _stderr: BufReader<ChildStderr>,
}

impl Daemon {
    fn start(args: &[&str]) -> Self {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ltf-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ltf-serve");
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut banner = String::new();
        stderr.read_line(&mut banner).expect("read banner");
        let addr = banner
            .trim()
            .strip_prefix("ltf-serve: listening on ")
            .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
            .to_string();
        Self {
            child,
            addr,
            _stderr: stderr,
        }
    }

    fn connect(&self) -> Connection {
        let stream = TcpStream::connect(&self.addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        Connection {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            stream,
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

struct Connection {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Connection {
    fn send(&mut self, line: &str) {
        self.stream
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("recv");
        assert!(line.ends_with('\n'), "truncated reply {line:?}");
        line
    }

    fn round_trip(&mut self, line: &str) -> String {
        self.send(line);
        self.recv()
    }
}

#[test]
fn golden_stream_over_one_connection() {
    let daemon = Daemon::start(&[]);
    let mut conn = daemon.connect();
    let requests = golden("requests.jsonl");
    // Send everything, then half-close: the daemon answers every line in
    // order and closes at end of input.
    let mut writer = conn.stream.try_clone().expect("clone stream");
    let sender = std::thread::spawn(move || {
        writer.write_all(requests.as_bytes()).expect("send");
        writer.shutdown(Shutdown::Write).expect("half-close");
    });
    let mut got = String::new();
    conn.reader.read_to_string(&mut got).expect("read replies");
    sender.join().expect("sender");
    assert!(
        got == golden("responses.jsonl"),
        "TCP replies differ from the golden responses:\n{got}"
    );
}

#[test]
fn sequential_round_trips_are_not_delayed() {
    let daemon = Daemon::start(&[]);
    let mut conn = daemon.connect();
    // Warm up: the first reply may pay for thread start-up.
    conn.round_trip(r#"{"cmd":"heuristics"}"#);
    let t0 = Instant::now();
    for _ in 0..20 {
        let reply = conn.round_trip(r#"{"cmd":"heuristics"}"#);
        assert!(reply.contains(r#""status":"ok""#), "{reply}");
    }
    let elapsed = t0.elapsed();
    // A reply split into two writes under Nagle's algorithm waits for
    // the client's delayed ACK, ~40 ms per round trip.
    assert!(
        elapsed < Duration::from_millis(400),
        "20 round trips took {elapsed:?}"
    );
}

#[test]
fn a_slow_shard_does_not_block_other_connections() {
    let daemon = Daemon::start(&["--threads", "1"]);
    // One random workload instance: a few hundred milliseconds of search
    // in a release build, longer in a debug one.
    let shard = r#"{"cmd":"shard","id":1,"shard":"0/1","spec":{"name":"slow","graphs":["workload"],"heuristics":["rltf"],"epsilons":[{"max":1}],"platform_procs":[8],"instances":1,"max_procs":3,"seed":7}}"#;
    let mut a = daemon.connect();
    let sent = Instant::now();
    a.send(shard);
    let slow = std::thread::spawn(move || {
        let reply = a.recv();
        (reply, Instant::now())
    });
    // Give the daemon time to start the shard. A concurrent daemon
    // answers the solve first whether or not it has.
    std::thread::sleep(Duration::from_millis(50));

    let mut b = daemon.connect();
    let quick = b.round_trip(&solve_line());
    let quick_at = Instant::now();
    let (slow_reply, slow_at) = slow.join().expect("shard reader");

    assert!(quick.contains(r#""status":"ok""#), "{quick}");
    assert!(slow_reply.starts_with(r#"{"ok":true"#), "{slow_reply}");
    assert!(
        quick_at < slow_at,
        "the solve waited for the shard: solve answered {:?}, shard {:?} after the shard was sent",
        quick_at - sent,
        slow_at - sent
    );
}

#[test]
fn connections_share_the_cache() {
    let daemon = Daemon::start(&[]);
    let line = solve_line();
    let first = daemon.connect().round_trip(&line);
    let second = daemon.connect().round_trip(&line);
    assert!(first.contains(r#""cached":false"#), "{first}");
    assert!(second.contains(r#""cached":true"#), "{second}");
    // The cached flag is the only difference.
    assert_eq!(
        first.replace(r#""cached":false"#, r#""cached":true"#),
        second
    );
}
