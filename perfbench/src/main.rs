//! `hero-perfbench`: one workload of the HERO benchmark in a fresh
//! process. See `README.md` beside this crate for the workloads, the
//! metrics, and how to read them; `run.py` builds and invokes it.

mod layers;
mod report;
mod serve;
mod setup;
mod stats;
mod sys;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

const USAGE: &str = "\
usage: hero-perfbench --workload train_table1|train_fleet|serve_act --seed N
                      --seconds S --trace 0|1 --scratch DIR --serve-bin PATH

--trace 0 times the workload end to end. --trace 1 profiles every layer of
every workload (the training replays, the serving daemon, standalone
kernels); its output names each layer metric after the workload it times.";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scratch: PathBuf,
    serve_bin: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut scratch, mut serve_bin) =
        (None, None, None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(|| bad("positive seconds"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--scratch" => scratch = Some(PathBuf::from(value)),
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["train_table1", "train_fleet", "serve_act"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scratch: scratch.ok_or("--scratch is required")?,
        serve_bin: serve_bin.ok_or("--serve-bin is required")?,
    })
}

/// Every layer metric comes from one traced run, whichever workload it
/// names: each section takes half the run length for each of its timed
/// phases.
fn traced(args: &Args, report: &mut Report) -> Result<(), String> {
    sys::set_counting(true);
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    train::trace_table1(args.seed, half, report)?;
    train::trace_fleet(args.seed, half, report)?;
    serve::trace(&args.scratch, &args.serve_bin, args.seed, half, report)?;
    layers::standalone(args.seed, report);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hero-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    let outcome = if args.trace {
        traced(&args, &mut report)
    } else {
        match args.workload.as_str() {
            "train_table1" => train::run_table1(args.seed, args.seconds, &mut report),
            "train_fleet" => train::run_fleet(args.seed, args.seconds, &mut report),
            _ => serve::run(
                &args.scratch,
                &args.serve_bin,
                args.seed,
                args.seconds,
                &mut report,
            ),
        }
    };
    if let Err(e) = outcome {
        eprintln!("hero-perfbench: {} failed: {e}", args.workload);
        return ExitCode::FAILURE;
    }
    let attempted = report.attempted;
    report.check(attempted > 0, || "no operation was attempted".into());
    report.print();
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
