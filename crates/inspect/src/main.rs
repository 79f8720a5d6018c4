//! `hero-inspect` — terminal analyzer for telemetry dumps.
//!
//! ```text
//! hero-inspect summarize RUN
//! hero-inspect diff BASELINE CANDIDATE [--rtol F] [--atol F] [--rtol-prefix P:F]...
//!                  [--atol-prefix P:F]... [--ignore PREFIX]...
//!                  [--fail-on-regression] [--verbose]
//! hero-inspect doctor RUN
//! hero-inspect watch URL|RUN [--interval-ms N] [--frames N]
//! ```
//!
//! `RUN` is a `telemetry.jsonl` file or a directory containing one.
//! `diff --fail-on-regression` exits 1 when any compared quantity leaves
//! tolerance or a metric disappears; `--ignore PREFIX` (repeatable)
//! excludes metrics by name prefix, e.g. `--ignore checkpoint/` (resumed
//! vs. uninterrupted) or `--ignore live/` (scraped vs. unscraped).
//! Without tolerance flags the diff uses the golden gate's default
//! tolerances. Passing any of `--rtol`, `--atol`, `--rtol-prefix`,
//! `--atol-prefix` switches it into tolerance mode
//! (`|b-a| <= atol + rtol*scale`; `--rtol 0 --atol 0` demands bit
//! equality, fast-math runs are gated against their golden with looser
//! bounds); the prefix forms override the base pair for qualified
//! quantity names (longest prefix wins), e.g. `--rtol-prefix counter/:0`
//! pins event counts exact. `doctor` exits 1 when a critical pathology
//! (watchdog events, dropped checkpoints) is found, and reports recorded
//! matmul GFLOP/s when a `BENCH_train_throughput.json` sits next to the
//! run (or in the current directory), plus serving throughput and tail
//! latency when a `BENCH_serve_latency.json` is found the same way
//! (warning when batch occupancy shows micro-batching never engaged).
//! `watch` is "hero-top": it renders a refreshing
//! terminal view of a run from either a live exporter address (anything
//! that is not an existing path — e.g. `127.0.0.1:9464`, scraped via
//! `GET /snapshot`) or a finished telemetry file/directory; `--frames N`
//! stops after N frames (0 = forever, the default), `--interval-ms`
//! defaults to 1000. Usage errors exit 2.

use std::path::Path;
use std::process::ExitCode;

use hero_inspect::{
    bench_report, diff_tolerance, diff_with, doctor, load_run, parse_run, queue_depth_report,
    render_findings, render_top, serve_report, summarize, throughput_report, PrefixTolerance,
    Severity, Tolerances,
};

const USAGE: &str = "usage: hero-inspect <summarize RUN | diff BASELINE CANDIDATE \
                     [--rtol F] [--atol F] [--rtol-prefix P:F]... [--atol-prefix P:F]... \
                     [--ignore PREFIX]... [--fail-on-regression] [--verbose] | doctor RUN \
                     | watch URL|RUN [--interval-ms N] [--frames N]>";

fn fail(msg: &str) -> ExitCode {
    eprintln!("hero-inspect: {msg}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return fail("missing subcommand");
    };
    match cmd.as_str() {
        "summarize" => {
            let [run] = rest else { return fail("summarize takes exactly one RUN") };
            match load_run(Path::new(run)) {
                Ok(run) => {
                    print!("{}", summarize(&run));
                    ExitCode::SUCCESS
                }
                Err(e) => fail(&e),
            }
        }
        "diff" => run_diff(rest),
        "doctor" => {
            let [run] = rest else { return fail("doctor takes exactly one RUN") };
            match load_run(Path::new(run)) {
                Ok(loaded) => {
                    print!("{}", throughput_report(&loaded));
                    print!("{}", bench_report(Path::new(run)));
                    let (serve_text, serve_findings) = serve_report(Path::new(run));
                    print!("{serve_text}");
                    print!("{}", queue_depth_report(&loaded));
                    let mut findings = doctor(&loaded);
                    findings.extend(serve_findings);
                    print!("{}", render_findings(&findings));
                    if findings.iter().any(|f| f.severity == Severity::Critical) {
                        ExitCode::FAILURE
                    } else {
                        ExitCode::SUCCESS
                    }
                }
                Err(e) => fail(&e),
            }
        }
        "watch" => run_watch(rest),
        other => fail(&format!("unknown subcommand {other:?}")),
    }
}

fn run_watch(rest: &[String]) -> ExitCode {
    let mut source: Option<String> = None;
    let mut interval = std::time::Duration::from_millis(1000);
    let mut frames = 0u64; // 0 = forever
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--interval-ms" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(ms)) if ms > 0 => interval = std::time::Duration::from_millis(ms),
                _ => return fail("--interval-ms requires a positive integer"),
            },
            "--frames" => match it.next().map(|v| v.parse::<u64>()) {
                Some(Ok(n)) => frames = n,
                _ => return fail("--frames requires a non-negative integer"),
            },
            other if other.starts_with('-') => return fail(&format!("unknown flag {other:?}")),
            other if source.is_none() => source = Some(other.to_owned()),
            _ => return fail("watch takes exactly one URL or RUN"),
        }
    }
    let Some(source) = source else { return fail("watch takes exactly one URL or RUN") };
    // An existing path is a finished run; anything else is a live
    // exporter address to scrape.
    let from_disk = Path::new(&source).exists();
    let mut rendered = 0u64;
    loop {
        let run = if from_disk {
            load_run(Path::new(&source))
        } else {
            hero_telemetry::exporter::http_get(&source)
                .map_err(|e| format!("scrape {source}: {e}"))
                .and_then(|body| parse_run(&body).map_err(|e| format!("{source}: {e}")))
        };
        let run = match run {
            Ok(run) => run,
            Err(e) => return fail(&e),
        };
        if rendered > 0 || frames != 1 {
            // Home + clear so the view refreshes in place; a single-frame
            // render (tests, piping) stays plain text.
            print!("\x1b[H\x1b[2J");
        }
        print!("{}", render_top(&run));
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        rendered += 1;
        if frames != 0 && rendered >= frames {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

/// Parses a `--rtol-prefix`/`--atol-prefix` operand of the form
/// `PREFIX:F` into an override on `overrides` (merging with an existing
/// entry for the same prefix, so both knobs can target one prefix).
fn parse_prefix_override(
    flag: &str,
    operand: Option<&String>,
    overrides: &mut Vec<PrefixTolerance>,
) -> Result<(), String> {
    let bad = || format!("{flag} requires PREFIX:F with F a non-negative number");
    let Some((prefix, value)) = operand.and_then(|v| v.rsplit_once(':')) else {
        return Err(bad());
    };
    let value: f64 = value.parse().map_err(|_| bad())?;
    if prefix.is_empty() || !(value >= 0.0) {
        return Err(bad());
    }
    let entry = match overrides.iter_mut().find(|o| o.prefix == prefix) {
        Some(entry) => entry,
        None => {
            overrides.push(PrefixTolerance { prefix: prefix.to_owned(), ..Default::default() });
            overrides.last_mut().expect("just pushed")
        }
    };
    match flag {
        "--rtol-prefix" => entry.rtol = Some(value),
        _ => entry.atol = Some(value),
    }
    Ok(())
}

fn run_diff(rest: &[String]) -> ExitCode {
    let mut paths = Vec::new();
    let mut rtol: Option<f64> = None;
    let mut atol: Option<f64> = None;
    let mut overrides: Vec<PrefixTolerance> = Vec::new();
    let mut ignore_prefixes: Vec<String> = Vec::new();
    let mut fail_on_regression = false;
    let mut verbose = false;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        let mut tol_flag = |slot: &mut f64| match it.next().map(|v| v.parse::<f64>()) {
            Some(Ok(v)) if v >= 0.0 => {
                *slot = v;
                Ok(())
            }
            _ => Err(format!("{arg} requires a non-negative number")),
        };
        let parsed = match arg.as_str() {
            "--rtol" => {
                let mut v = 0.0;
                tol_flag(&mut v).map(|()| rtol = Some(v))
            }
            "--atol" => {
                let mut v = 0.0;
                tol_flag(&mut v).map(|()| atol = Some(v))
            }
            "--rtol-prefix" | "--atol-prefix" => {
                parse_prefix_override(arg, it.next(), &mut overrides)
            }
            "--ignore" => match it.next() {
                Some(prefix) if !prefix.is_empty() => {
                    ignore_prefixes.push(prefix.clone());
                    Ok(())
                }
                _ => Err("--ignore requires a non-empty metric-name prefix".into()),
            },
            "--fail-on-regression" => {
                fail_on_regression = true;
                Ok(())
            }
            "--verbose" => {
                verbose = true;
                Ok(())
            }
            other if other.starts_with('-') => Err(format!("unknown flag {other:?}")),
            other => {
                paths.push(other.to_owned());
                Ok(())
            }
        };
        if let Err(e) = parsed {
            return fail(&e);
        }
    }
    let [baseline, candidate] = paths.as_slice() else {
        return fail("diff takes exactly BASELINE and CANDIDATE");
    };
    let tolerance_mode = rtol.is_some() || atol.is_some() || !overrides.is_empty();
    let (a, b) = match (load_run(Path::new(baseline)), load_run(Path::new(candidate))) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return fail(&e),
    };
    let report = if tolerance_mode {
        diff_tolerance(&a, &b, rtol.unwrap_or(0.0), atol.unwrap_or(0.0), &overrides, &ignore_prefixes)
    } else {
        diff_with(&a, &b, &Tolerances::default(), &ignore_prefixes)
    };
    print!("{}", report.render(verbose));
    if fail_on_regression && report.is_regression() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
