//! `ltf-perfbench`: the repository benchmark harness.
//!
//! ```text
//! ltf-perfbench run --workload W --seed N --seconds S --trace 0|1
//!               --bin-dir DIR --work-dir DIR [--digests FILE] [--commit ID]
//! ltf-perfbench digests --workload W --seeds A..B     (print digest table lines)
//! ltf-perfbench campaign-worker ...                   (spawned by ltf-campaign)
//! ```
//!
//! `run` drives one workload against the release binaries in
//! `--bin-dir` and prints its configuration block, its results and, as
//! the last line, the JSON result object (see `perfbench/README.md`).
//! It exits 1 when any output fails its reference check, and exits 1
//! without a result line when the run is invalid (a lagging generator).

mod campaign;
mod check;
mod gen;
mod load;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;

/// The workloads, by name.
pub const WORKLOADS: &[&str] = &[
    "serve-zipf",
    "serve-cold-routed",
    "campaign-pareto",
    "campaign-slo",
];

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    bin_dir: PathBuf,
    /// Scratch directory for specs, outputs and spans.
    pub work: PathBuf,
    /// Stored campaign digests (`workload seed hex` lines).
    pub digests: Option<PathBuf>,
    commit: String,
}

impl Ctx {
    /// Path of a release binary.
    pub fn bin(&self, name: &str) -> PathBuf {
        self.bin_dir.join(name)
    }

    /// Print the icarus-style configuration block of a workload.
    pub fn config(&self, workload: &str, entries: &[(&str, String)]) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        println!("WORKLOAD {workload}:");
        println!("  CONFIGURATION:");
        println!(
            "   * run -> seed: {}, seconds: {}, trace: {}",
            self.seed, self.seconds, self.trace as u8
        );
        for (k, v) in entries {
            println!("   * {k} -> {v}");
        }
        println!("   * host -> nproc: {nproc}, commit: {}", self.commit);
    }
}

fn take(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag}: missing value"))
}

fn parse_run(args: impl IntoIterator<Item = String>) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 10.0,
        trace: false,
        bin_dir: PathBuf::new(),
        work: PathBuf::new(),
        digests: None,
        commit: "unknown".into(),
    };
    let mut args = args.into_iter();
    while let Some(a) = args.next() {
        let v = take(&mut args, &a)?;
        let bad = |what: &str| format!("{a}: got '{v}', expected {what}");
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seed" => ctx.seed = v.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                ctx.seconds = v.parse().map_err(|_| bad("a number of seconds"))?;
                if !(ctx.seconds > 0.0 && ctx.seconds <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
            }
            "--trace" => {
                ctx.trace = match v.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--bin-dir" => ctx.bin_dir = v.into(),
            "--work-dir" => ctx.work = v.into(),
            "--digests" => ctx.digests = Some(v.into()),
            "--commit" => ctx.commit = v,
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (one of {})",
            WORKLOADS.join(", ")
        ));
    }
    if ctx.bin_dir.as_os_str().is_empty() || ctx.work.as_os_str().is_empty() {
        return Err("--bin-dir and --work-dir are required".into());
    }
    Ok((workload, ctx))
}

fn run(workload: &str, ctx: &Ctx) -> i32 {
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("ltf-perfbench: {}: {e}", ctx.work.display());
        return 2;
    }
    let result = match workload {
        "serve-zipf" => serve::run(&serve::ZIPF, ctx),
        "serve-cold-routed" => serve::run(&serve::COLD, ctx),
        "campaign-pareto" => campaign::run(&campaign::PARETO, ctx),
        _ => campaign::run(&campaign::SLO, ctx),
    };
    let rep = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("ltf-perfbench: {workload}: {e}");
            return 1;
        }
    };
    if !rep.invalid.is_empty() {
        println!("  INVALID: {}", rep.invalid.join("; "));
        eprintln!("ltf-perfbench: {workload}: invalid run, no result reported");
        return 1;
    }
    let names = if ctx.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if ctx.trace {
        println!("  LAYERS:");
        for (name, unit) in names {
            println!("   * {name}: {:.4} {unit}", rep.get(name).unwrap_or(0.0));
        }
    }
    match rep.json_line(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("ltf-perfbench: {workload}: {e}");
            return 1;
        }
    }
    if rep.correct() {
        0
    } else {
        eprintln!(
            "ltf-perfbench: {workload}: {} of {} operations failed the reference check",
            rep.failed, rep.attempted
        );
        1
    }
}

/// Print `workload signature digest` lines for the specs of a seed range
/// (the stored campaign digest table, `perfbench/digests.txt`).
fn digests(args: &[String]) -> Result<(), String> {
    let (mut workload, mut seeds) = (None, None);
    let mut it = args.iter().cloned();
    while let Some(a) = it.next() {
        let v = take(&mut it, &a)?;
        match a.as_str() {
            "--workload" => workload = Some(v),
            "--seeds" => {
                let (a, b) = v.split_once("..").ok_or("--seeds: expected A..B")?;
                let p = |s: &str| {
                    s.parse::<u64>()
                        .map_err(|_| format!("--seeds: bad bound {s}"))
                };
                seeds = Some(p(a)?..p(b)?);
            }
            _ => return Err(format!("unknown argument {a}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let kind = match workload.as_str() {
        "campaign-pareto" => campaign::Kind::Pareto,
        "campaign-slo" => campaign::Kind::Slo,
        _ => return Err(format!("{workload} is not a campaign workload")),
    };
    let mut seen = Vec::new();
    for seed in seeds.ok_or("--seeds is required")? {
        let spec = ltf_experiments::campaign::CampaignSpec::parse(&campaign::spec_json(kind, seed))
            .map_err(|e| e.to_string())?;
        let sig = format!("{:016x}", spec.signature());
        if seen.contains(&sig) {
            continue;
        }
        let out = campaign::serial_output(&spec, campaign::WORKERS)?;
        println!("{workload} {sig} {:016x}", check::fnv(out.as_bytes()));
        seen.push(sig);
    }
    Ok(())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("campaign-worker") => campaign::tap_worker(&args),
        Some("run") => match parse_run(args[1..].iter().cloned()) {
            Ok((workload, ctx)) => run(&workload, &ctx),
            Err(e) => {
                eprintln!("ltf-perfbench: {e}");
                2
            }
        },
        Some("digests") => match digests(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("ltf-perfbench: {e}");
                2
            }
        },
        _ => {
            eprintln!("usage: ltf-perfbench run|digests|campaign-worker ...");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(String, Ctx), String> {
        parse_run(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn run_arguments_parse() {
        let (w, ctx) = parse(&[
            "--workload",
            "serve-zipf",
            "--seed",
            "4",
            "--seconds",
            "10",
            "--trace",
            "1",
            "--bin-dir",
            "b",
            "--work-dir",
            "w",
        ])
        .unwrap();
        assert_eq!(w, "serve-zipf");
        assert_eq!((ctx.seed, ctx.seconds, ctx.trace), (4, 10.0, true));
        assert!(parse(&["--workload", "nope", "--bin-dir", "b", "--work-dir", "w"]).is_err());
        assert!(parse(&["--workload", "serve-zipf", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "serve-zipf"]).is_err());
    }
}
