//! The reference check for solve replies.
//!
//! Each reply is compared with a direct library solve of the same
//! request: an `ok` reply must carry exactly the reference
//! [`SolutionWire`] (ignoring `id` and `cached`), rebuild through
//! [`SolutionWire::into_solution`] and pass [`ltf_schedule::validate`];
//! an error reply must be an `infeasible` that matches the reference
//! failure. Anything else — no reply, another error kind, a different
//! payload, an echoed id that is not the request's — is a failure.
//!
//! Replies are large and repeat (the Zipf workload answers hot keys
//! from the cache), so the load generator keeps one copy of each distinct
//! payload per key ([`Payload`]) and the checker verifies each copy once.

use crate::gen::Distinct;
use ltf_baselines::full_solver;
use ltf_serve::proto::to_line;
use ltf_serve::{ErrResponse, OkResponse, SolutionWire};
use std::collections::HashMap;

/// What the reference solve says a request must get.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A schedule with exactly this wire form.
    Ok(SolutionWire),
    /// This error reply (id aside).
    Err(ErrResponse),
}

/// Solve `d` directly through the library, the way a correct daemon
/// would, and check the reference schedule itself.
pub fn reference(d: &Distinct) -> Result<Expect, String> {
    let solver = full_solver(&d.graph, &d.platform);
    match solver.solve(d.heuristic, &d.cfg) {
        Ok(sol) => {
            ltf_schedule::validate(&d.graph, &d.platform, &sol.schedule)
                .map_err(|v| format!("reference schedule fails validation: {v:?}"))?;
            Ok(Expect::Ok(SolutionWire::from_solution(&sol)))
        }
        Err(diag) => {
            let mut err = ErrResponse::from_diagnostics(None, &diag);
            err.heuristic = Some(d.heuristic.to_string());
            Ok(Expect::Err(err))
        }
    }
}

/// The `"solution":…` tail of an `ok` reply plus its id, when the line
/// has exactly the daemon's `ok` shape (the cache flag is ignored).
pub fn split_ok(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let id: u64 = rest[..digits].parse().ok()?;
    let rest = rest[digits..].strip_prefix(",\"status\":\"ok\",\"cached\":")?;
    let rest = rest
        .strip_prefix("true,")
        .or_else(|| rest.strip_prefix("false,"))?;
    rest.starts_with("\"solution\":").then_some((id, rest))
}

/// FNV-1a 64 of a byte string.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// How one reply arrived, as the load generator records it.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// An `ok`-shaped reply: echoed id and the hash of its solution tail
    /// (the tail itself is kept once per key and hash).
    Ok { id: u64, hash: u64 },
    /// Any other line, kept whole (error replies are small).
    Other(String),
    /// No reply arrived.
    Missing,
}

/// Classify one reply line; returns the payload record plus, for `ok`
/// replies, the `(hash, tail)` to remember for verification.
pub fn classify(line: &str) -> (Payload, Option<(u64, String)>) {
    match split_ok(line) {
        Some((id, tail)) => {
            let hash = fnv(tail.as_bytes());
            (Payload::Ok { id, hash }, Some((hash, tail.to_string())))
        }
        None => (Payload::Other(line.to_string()), None),
    }
}

/// Outcome of checking one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// A correct schedule.
    Schedule,
    /// A correct `infeasible` reply.
    Infeasible,
    /// A failure, with the reason.
    Fail(String),
}

/// Verifies replies against lazily computed references.
pub struct Checker<'a> {
    pool: &'a [Distinct],
    refs: HashMap<usize, Result<Expect, String>>,
    /// Verdicts per `(key, tail hash)`, each tail checked once.
    tails: HashMap<(usize, u64), Verdict>,
}

impl<'a> Checker<'a> {
    /// A checker over `pool`, with references for `keys` solved up front
    /// on `threads` threads.
    pub fn new(pool: &'a [Distinct], keys: &[usize], threads: usize) -> Self {
        let mut uniq: Vec<usize> = keys.to_vec();
        uniq.sort_unstable();
        uniq.dedup();
        let solved = ltf_core::par::parallel_map(&uniq, threads, |&k| reference(&pool[k]));
        Self {
            pool,
            refs: uniq.into_iter().zip(solved).collect(),
            tails: HashMap::new(),
        }
    }

    fn expect(&mut self, key: usize) -> &Result<Expect, String> {
        let pool = self.pool;
        self.refs
            .entry(key)
            .or_insert_with(|| reference(&pool[key]))
    }

    /// The reference's guaranteed latency for `key`, or `None` when the
    /// reference rejects the request.
    pub fn reference_latency(&mut self, key: usize) -> Option<f64> {
        match self.expect(key) {
            Ok(Expect::Ok(wire)) => Some(wire.metrics.latency_upper_bound),
            _ => None,
        }
    }

    /// Register the remembered tail of an `ok` reply to `key`.
    pub fn learn_tail(&mut self, key: usize, hash: u64, tail: &str) {
        if self.tails.contains_key(&(key, hash)) {
            return;
        }
        let verdict = self.check_tail(key, tail);
        self.tails.insert((key, hash), verdict);
    }

    fn check_tail(&mut self, key: usize, tail: &str) -> Verdict {
        let line = format!("{{\"id\":null,\"status\":\"ok\",\"cached\":false,{tail}");
        let reply: OkResponse = match serde_json::from_str(&line) {
            Ok(r) => r,
            Err(e) => return Verdict::Fail(format!("ok reply does not decode: {e}")),
        };
        let d = &self.pool[key];
        let rebuilt = match reply.solution.clone().into_solution(&d.graph, &d.platform) {
            Ok(sol) => sol,
            Err(e) => return Verdict::Fail(format!("reply schedule does not rebuild: {e}")),
        };
        if let Err(v) = ltf_schedule::validate(&d.graph, &d.platform, &rebuilt.schedule) {
            return Verdict::Fail(format!("reply schedule fails validation: {v:?}"));
        }
        match self.expect(key) {
            Err(e) => Verdict::Fail(e.clone()),
            Ok(Expect::Ok(wire)) if *wire == reply.solution => Verdict::Schedule,
            Ok(Expect::Ok(_)) => Verdict::Fail("schedule differs from the reference".into()),
            Ok(Expect::Err(e)) => Verdict::Fail(format!(
                "got a schedule where the reference fails ({})",
                e.kind
            )),
        }
    }

    /// Check one reply to the request with id `id` on key `key`.
    /// `ok` tails must have been registered with [`Checker::learn_tail`].
    pub fn check(&mut self, key: usize, id: u64, payload: &Payload) -> Verdict {
        match payload {
            Payload::Missing => Verdict::Fail("no reply".into()),
            Payload::Ok { id: got, hash } => {
                if *got != id {
                    return Verdict::Fail(format!("reply echoes id {got}, request had {id}"));
                }
                self.tails
                    .get(&(key, *hash))
                    .cloned()
                    .unwrap_or_else(|| Verdict::Fail("ok reply tail was not recorded".into()))
            }
            Payload::Other(line) => {
                let got: ErrResponse = match serde_json::from_str(line) {
                    Ok(e) => e,
                    Err(_) => return Verdict::Fail(format!("unexpected reply: {}", clip(line))),
                };
                match self.expect(key) {
                    Err(e) => Verdict::Fail(e.clone()),
                    Ok(Expect::Err(want))
                        if want.kind == "infeasible"
                            && got
                                == ErrResponse {
                                    id: Some(id),
                                    ..want.clone()
                                } =>
                    {
                        Verdict::Infeasible
                    }
                    Ok(Expect::Err(want)) => Verdict::Fail(format!(
                        "error reply {} differs from the reference {}",
                        clip(line),
                        clip(&to_line(want))
                    )),
                    Ok(Expect::Ok(_)) => Verdict::Fail(format!(
                        "error where the reference schedules: {}",
                        clip(line)
                    )),
                }
            }
        }
    }
}

fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::zipf_pool;
    use ltf_serve::{Service, ServiceConfig};

    /// A pool key the reference schedules, and one it rejects.
    fn keys(pool: &[Distinct]) -> (usize, usize) {
        let ok = (0..pool.len())
            .find(|&k| matches!(reference(&pool[k]), Ok(Expect::Ok(_))))
            .expect("some request schedules");
        let bad = (0..pool.len())
            .find(|&k| matches!(reference(&pool[k]), Ok(Expect::Err(_))))
            .expect("some request is infeasible");
        (ok, bad)
    }

    fn check_line(checker: &mut Checker, key: usize, id: u64, line: &str) -> Verdict {
        let (payload, tail) = classify(line);
        if let (Payload::Ok { hash, .. }, Some((_, tail))) = (&payload, tail) {
            checker.learn_tail(key, *hash, &tail);
        }
        checker.check(key, id, &payload)
    }

    #[test]
    fn genuine_daemon_replies_pass() {
        let pool: Vec<Distinct> = zipf_pool(3, 2).into_iter().take(24).collect();
        let (ok, bad) = keys(&pool);
        let mut svc = Service::new(ServiceConfig::default());
        let mut checker = Checker::new(&pool, &[ok, bad], 1);
        for (id, key) in [(1, ok), (2, ok), (3, bad)] {
            let reply = svc.handle_line(&pool[key].line(id));
            let v = check_line(&mut checker, key, id, &reply);
            assert!(!matches!(v, Verdict::Fail(_)), "{v:?} for {reply:.200}");
        }
    }

    #[test]
    fn tampered_replies_are_caught() {
        let pool: Vec<Distinct> = zipf_pool(3, 2).into_iter().take(24).collect();
        let (ok, bad) = keys(&pool);
        let mut svc = Service::new(ServiceConfig::default());
        let good = svc.handle_line(&pool[ok].line(9));
        let mut checker = Checker::new(&pool, &[ok, bad], 1);

        // A different guaranteed latency: the schedule still rebuilds
        // (metrics are recomputed), but it is not the reference answer.
        let at = good.find("\"latency_upper_bound\":").unwrap() + 22;
        let end = at + good[at..].find([',', '}']).unwrap();
        let forged = format!("{}1{}", &good[..at], &good[end..]);
        assert!(matches!(
            check_line(&mut checker, ok, 9, &forged),
            Verdict::Fail(_)
        ));

        // A corrupted schedule payload.
        let at = good
            .find("\"start\":[")
            .expect("schedules carry start times")
            + 9;
        let corrupted = format!("{}9{}", &good[..at], &good[at..]);
        assert!(matches!(
            check_line(&mut checker, ok, 9, &corrupted),
            Verdict::Fail(_)
        ));

        // The wrong correlation id, a truncated line, and an error reply
        // for a request the reference schedules.
        assert!(matches!(
            check_line(&mut checker, ok, 10, &good),
            Verdict::Fail(_)
        ));
        let cut = &good[..good.len() / 2];
        assert!(matches!(
            check_line(&mut checker, ok, 9, cut),
            Verdict::Fail(_)
        ));
        let infeasible = svc.handle_line(&pool[bad].line(9));
        assert!(matches!(
            check_line(&mut checker, ok, 9, &infeasible),
            Verdict::Fail(_)
        ));
        assert!(matches!(
            checker.check(ok, 9, &Payload::Missing),
            Verdict::Fail(_)
        ));

        // The untouched reply still passes.
        assert!(matches!(
            check_line(&mut checker, ok, 9, &good),
            Verdict::Schedule
        ));
        assert_eq!(
            check_line(&mut checker, bad, 9, &infeasible),
            Verdict::Infeasible
        );
    }

    #[test]
    fn split_ok_reads_the_daemon_shape() {
        let (id, tail) =
            split_ok(r#"{"id":12,"status":"ok","cached":true,"solution":{"x":1}}"#).unwrap();
        assert_eq!((id, tail), (12, r#""solution":{"x":1}}"#));
        assert!(split_ok(r#"{"id":null,"status":"error","kind":"parse"}"#).is_none());
    }
}
