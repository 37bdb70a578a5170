//! Streamed, resumable JSON-lines journals, and [`run_journalled`], the
//! one runner every journalled command goes through.
//!
//! The `fig3`/`fig4`, `scaling`, `pareto` and `slo` commands and every
//! campaign shard journal their per-work-item results to a
//! `--checkpoint FILE` as they go: one JSON object per line, `{"key":
//! "<work item>", "record": <payload>}`, flushed after every write.
//! Restarting the same command with the same file **replays** the
//! completed records and recomputes only the missing work items, so a
//! killed thousand-instance sweep loses at most one window of work, and
//! resume equals rerun for every journalled command.
//!
//! Robustness against kills: a process killed mid-write leaves a
//! truncated final line. [`Checkpoint::open`] detects it, warns, truncates
//! the file back to the last complete record and resumes from there — the
//! journal is always a clean prefix of the uninterrupted run.
//!
//! Memory stays bounded by construction: replay is streamed line by line
//! (nothing is retained here), and pending items are computed one window
//! at a time, each window recorded and handed on before the next starts.

use ltf_core::par::parallel_map;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, BufWriter, Seek, Write};
use std::path::{Path, PathBuf};

/// An append-only JSON-lines journal of completed work items.
///
/// ```
/// use ltf_experiments::checkpoint::Checkpoint;
/// use serde::Deserialize;
///
/// let path = std::env::temp_dir().join(format!("ckpt-doc-{}.jsonl", std::process::id()));
/// let _ = std::fs::remove_file(&path);
///
/// // First run: journal two completed items, then stop (crash, kill…).
/// let mut ckpt = Checkpoint::open(&path, |_, _| unreachable!("fresh journal")).unwrap();
/// ckpt.record("item=0", &7u64).unwrap();
/// ckpt.record("item=1", &8u64).unwrap();
/// drop(ckpt);
///
/// // Resume: the completed records replay instead of recomputing.
/// let mut replayed = Vec::new();
/// let ckpt = Checkpoint::open(&path, |key, record| {
///     replayed.push((key.to_string(), u64::from_value(record).unwrap()));
///     true // accepted → the key joins the done-set
/// }).unwrap();
/// assert_eq!(replayed, [("item=0".to_string(), 7), ("item=1".to_string(), 8)]);
/// assert!(ckpt.contains("item=0"));
/// assert_eq!(ckpt.len(), 2);
/// # std::fs::remove_file(ckpt.path()).unwrap();
/// ```
pub struct Checkpoint {
    path: PathBuf,
    out: BufWriter<File>,
    done: HashSet<String>,
}

impl Checkpoint {
    /// Open (creating if absent) the journal at `path`, streaming every
    /// complete record already in it through `replay(key, record)`.
    ///
    /// `replay` returns whether it **accepted** the record. Only accepted
    /// keys enter the done-set (and are skipped by [`run_journalled`]):
    /// a record the caller cannot decode — schema drift, or a record
    /// belonging to a different run configuration sharing the journal —
    /// stays pending and is simply recomputed (and re-appended; on later
    /// opens the first *accepted* occurrence of a key wins and duplicates
    /// are not replayed again).
    ///
    /// An **unterminated** trailing line — the signature of a kill
    /// between a record reaching the OS and its newline (or mid-record) —
    /// is dropped with a warning and truncated away, even if its bytes
    /// happen to parse: the writer always terminates lines, so a missing
    /// newline proves the write was torn. A malformed *terminated* line
    /// is a hard error (the journal is corrupt, not merely interrupted).
    pub fn open(path: &Path, mut replay: impl FnMut(&str, &Value) -> bool) -> io::Result<Self> {
        let mut done = HashSet::new();
        let mut keep: u64 = 0;
        if path.exists() {
            let mut reader = BufReader::new(File::open(path)?);
            let mut buf: Vec<u8> = Vec::new();
            loop {
                buf.clear();
                let n = reader.read_until(b'\n', &mut buf)? as u64;
                if n == 0 {
                    break;
                }
                let terminated = buf.last() == Some(&b'\n');
                if !terminated {
                    // read_until only stops short of '\n' at EOF, so this
                    // is the final line; `keep` already excludes it.
                    eprintln!(
                        "warning: checkpoint {}: dropping torn trailing record \
                         ({n} bytes, no newline) — resuming from the last complete one",
                        path.display()
                    );
                    break;
                }
                let parsed = std::str::from_utf8(&buf[..buf.len() - 1])
                    .ok()
                    .and_then(|line| serde_json::from_str(line).ok());
                let Some(Line { key, record }) = parsed else {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "checkpoint {}: malformed record at byte {keep}",
                            path.display()
                        ),
                    ));
                };
                if !done.contains(&key) && replay(&key, &record) {
                    done.insert(key);
                }
                keep += n;
            }
        }
        // Neither truncate (we are resuming) nor append (we may need
        // set_len to drop a torn record): plain write + explicit seek.
        let mut file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(path)?;
        file.set_len(keep)?;
        file.seek(io::SeekFrom::End(0))?;
        Ok(Self {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            done,
        })
    }

    /// Whether `key` was already completed by a previous (or this) run.
    pub fn contains(&self, key: &str) -> bool {
        self.done.contains(key)
    }

    /// Number of completed work items.
    pub fn len(&self) -> usize {
        self.done.len()
    }

    /// True when nothing has been journalled yet.
    pub fn is_empty(&self) -> bool {
        self.done.is_empty()
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one completed work item and flush it to the OS, so a kill
    /// directly after costs nothing.
    pub fn record<T: Serialize + ?Sized>(&mut self, key: &str, payload: &T) -> io::Result<()> {
        let line = serde_json::to_string(&Line {
            key: key.to_string(),
            record: payload.to_value(),
        })
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()?;
        self.done.insert(key.to_string());
        Ok(())
    }
}

/// One journal line. Read back, the payload stays a [`Value`] until the
/// run decodes it as its own record type.
#[derive(Serialize, Deserialize)]
struct Line {
    key: String,
    record: Value,
}

/// Work items in flight per window: enough to keep every worker busy,
/// small enough to bound both memory and the work a kill can lose. A
/// serial run gains nothing from batching, so it journals every item as
/// soon as it completes.
pub fn window_for(threads: usize) -> usize {
    if threads > 1 {
        (threads * 4).max(16)
    } else {
        1
    }
}

/// Run `compute` over `items`, journalled to `journal` when one is given,
/// and hand each result to `emit(key, record)` once per distinct key.
/// Returns the number of records emitted.
///
/// * **Replay.** A journal record replays when its key is one of
///   `items`' keys and its payload decodes as `T`; replayed records are
///   emitted first, in journal order. A record under another key (another
///   sweep, configuration or shard sharing the file) is skipped; one that
///   does not decode draws a warning and its item is recomputed.
/// * **Compute.** The remaining items run in windows of
///   [`window_for`]`(threads)` on `threads` workers; each window is
///   journalled and emitted in item order before the next starts, so the
///   journal and the emitted stream are a deterministic prefix of the
///   uninterrupted run wherever a kill lands.
/// * **Shared keys.** Items with equal keys are one unit of work,
///   computed and journalled once; callers look the record up by key.
///
/// With `journal = None` this is a windowed parallel map with the same
/// emitted stream.
pub fn run_journalled<I, T>(
    items: &[I],
    key: impl Fn(&I) -> String,
    threads: usize,
    journal: Option<&Path>,
    compute: impl Fn(&I) -> T + Sync,
    mut emit: impl FnMut(&str, T),
) -> io::Result<usize>
where
    I: Sync,
    T: Serialize + Deserialize + Send,
{
    let keys: Vec<String> = items.iter().map(key).collect();
    let mut emitted = 0usize;
    let mut ckpt = match journal {
        Some(path) => {
            let ours: HashSet<&str> = keys.iter().map(String::as_str).collect();
            Some(Checkpoint::open(path, |key, record| {
                if !ours.contains(key) {
                    return false;
                }
                match T::from_value(record) {
                    Ok(t) => {
                        emitted += 1;
                        emit(key, t);
                        true
                    }
                    Err(e) => {
                        eprintln!(
                            "warning: checkpoint {}: record {key} does not decode ({e}); \
                             recomputing",
                            path.display()
                        );
                        false
                    }
                }
            })?)
        }
        None => None,
    };
    let mut seen: HashSet<&str> = HashSet::new();
    let pending: Vec<(&I, &str)> = items
        .iter()
        .zip(keys.iter().map(String::as_str))
        .filter(|&(_, k)| !ckpt.as_ref().is_some_and(|c| c.contains(k)) && seen.insert(k))
        .collect();
    for window in pending.chunks(window_for(threads)) {
        let outs = parallel_map(window, threads, |&(item, _)| compute(item));
        for (&(_, k), t) in window.iter().zip(outs) {
            if let Some(c) = ckpt.as_mut() {
                c.record(k, &t)?;
            }
            emitted += 1;
            emit(k, t);
        }
    }
    Ok(emitted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("ltf-ckpt-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    #[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
    struct Row {
        seed: u64,
        val: f64,
    }

    #[test]
    fn journal_roundtrip_and_resume() {
        let path = tmp("roundtrip");
        {
            let mut ck = Checkpoint::open(&path, |_, _| panic!("fresh file")).unwrap();
            ck.record("a", &Row { seed: 1, val: 0.5 }).unwrap();
            ck.record("b", &Row { seed: 2, val: 1.5 }).unwrap();
            assert_eq!(ck.len(), 2);
        }
        let mut seen = Vec::new();
        let ck = Checkpoint::open(&path, |k, v| {
            let row = Row::from_value(v).unwrap();
            seen.push((k.to_string(), row.seed, row.val));
            true
        })
        .unwrap();
        assert_eq!(seen, vec![("a".into(), 1, 0.5), ("b".into(), 2, 1.5)]);
        assert!(ck.contains("a") && ck.contains("b") && !ck.contains("c"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped_and_overwritten() {
        let path = tmp("truncated");
        {
            let mut ck = Checkpoint::open(&path, |_, _| true).unwrap();
            ck.record("a", &Row { seed: 1, val: 0.5 }).unwrap();
            ck.record("b", &Row { seed: 2, val: 1.5 }).unwrap();
        }
        // Simulate a kill mid-write: chop the journal inside record "b".
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &text[..text.len() - 9]).unwrap();
        let mut keys = Vec::new();
        {
            let mut ck = Checkpoint::open(&path, |k, _| {
                keys.push(k.to_string());
                true
            })
            .unwrap();
            assert_eq!(keys, vec!["a"]);
            assert!(!ck.contains("b"), "truncated record must not count");
            ck.record("b", &Row { seed: 2, val: 1.5 }).unwrap();
        }
        // The re-written journal must be fully parseable again.
        let mut replayed = Vec::new();
        Checkpoint::open(&path, |k, _| {
            replayed.push(k.to_string());
            true
        })
        .unwrap();
        assert_eq!(replayed, vec!["a", "b"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn unterminated_tail_is_torn_even_if_it_parses() {
        // Regression: a kill between the record write and its newline
        // used to make `keep` count the missing '\n' — set_len then
        // *extended* the file with a NUL byte, corrupting the journal.
        // An unterminated line is torn by definition (the writer always
        // terminates), so it must be dropped and truncated away.
        let path = tmp("unterminated");
        {
            let mut ck = Checkpoint::open(&path, |_, _| true).unwrap();
            ck.record("a", &Row { seed: 1, val: 0.5 }).unwrap();
            ck.record("b", &Row { seed: 2, val: 1.5 }).unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap(); // strip only the final '\n'
        let mut keys = Vec::new();
        {
            let mut ck = Checkpoint::open(&path, |k, _| {
                keys.push(k.to_string());
                true
            })
            .unwrap();
            assert_eq!(keys, vec!["a"], "parseable torn tail must not replay");
            assert!(!ck.contains("b"));
            ck.record("b", &Row { seed: 2, val: 1.5 }).unwrap();
        }
        // No NUL bytes, fully parseable, both records present.
        let healed = std::fs::read(&path).unwrap();
        assert!(!healed.contains(&0u8), "set_len must never extend the file");
        let mut replayed = Vec::new();
        Checkpoint::open(&path, |k, _| {
            replayed.push(k.to_string());
            true
        })
        .unwrap();
        assert_eq!(replayed, vec!["a", "b"]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rejected_records_stay_pending_and_recompute() {
        // Regression: a record the caller could not decode used to be
        // marked done anyway, so the work item was neither replayed nor
        // recomputed (a panic or silently missing rows downstream).
        let path = tmp("rejected");
        {
            let mut ck = Checkpoint::open(&path, |_, _| true).unwrap();
            ck.record("a", &Row { seed: 1, val: 0.5 }).unwrap();
        }
        // A decoder that rejects everything: "a" must stay pending.
        let ck = Checkpoint::open(&path, |_, _| false).unwrap();
        assert!(!ck.contains("a"));
        drop(ck);
        // Recompute appends a duplicate "a"; a later open must replay the
        // first *accepted* occurrence only, once.
        {
            let mut ck = Checkpoint::open(&path, |_, _| false).unwrap();
            ck.record("a", &Row { seed: 1, val: 9.5 }).unwrap();
        }
        let mut vals = Vec::new();
        let ck = Checkpoint::open(&path, |_, v| {
            vals.push(Row::from_value(v).unwrap().val);
            true
        })
        .unwrap();
        assert_eq!(vals, vec![0.5], "duplicates of an accepted key replay once");
        assert!(ck.contains("a"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn malformed_middle_is_a_hard_error() {
        let path = tmp("corrupt");
        std::fs::write(&path, "not json\n{\"key\":\"a\",\"record\":1}\n").unwrap();
        assert!(Checkpoint::open(&path, |_, _| true).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_chunks_skips_done_items() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let path = tmp("chunks");
        // 40 items on 4 threads: three windows of `window_for(4)` = 16.
        let items: Vec<u64> = (0..40).collect();
        assert!(items.len() > 2 * window_for(4));
        let row = |i: &u64| Row {
            seed: *i,
            val: *i as f64,
        };
        let want: Vec<Row> = items.iter().map(row).collect();
        // One run over the journal: (items computed, records emitted).
        let run = || {
            let computed = AtomicUsize::new(0);
            let mut out = Vec::new();
            let compute = |i: &u64| {
                computed.fetch_add(1, Ordering::Relaxed);
                row(i)
            };
            let key = |i: &u64| format!("item-{i}");
            let emitted =
                run_journalled(&items, key, 4, Some(&path), compute, |_, r| out.push(r)).unwrap();
            assert_eq!(emitted, out.len());
            (computed.into_inner(), out)
        };
        // First run: compute everything.
        let (computed, order) = run();
        assert_eq!(computed, 40);
        assert_eq!(order, want, "consume order must match item order");
        // Interrupt after the first window: only the rest is recomputed,
        // the emitted stream is still the items in order, and the journal
        // ends up as the uninterrupted run's.
        let full = std::fs::read_to_string(&path).unwrap();
        let first_window: String = full.split_inclusive('\n').take(16).collect();
        std::fs::write(&path, &first_window).unwrap();
        let (computed, resumed) = run();
        assert_eq!(computed, 24, "only the pending windows recompute");
        assert_eq!(resumed, want, "resumed order must match item order");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        // Third run: everything is replayed, nothing recomputed.
        let (computed, replayed) = run();
        assert_eq!(computed, 0, "no pending work after a full run");
        assert_eq!(replayed, want, "replayed in journal order");
        std::fs::remove_file(&path).unwrap();
    }
}
