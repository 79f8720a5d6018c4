//! The `serve_act` workload: the `hero-serve` binary on a Table I
//! checkpoint written in set-up, driven by this module's own load
//! generator (at most two threads, one connection each at a time).
//!
//! Phases:
//! * open loop at `OPEN_LOOP_RATE` requests/s (three vehicles at 100 Hz);
//!   each request is timed from when it was due, and the generator records
//!   how late it sent;
//! * closed loop: both connections send their next request as soon as
//!   the last one answers.
//!
//! Every answer is checked against `HeroAgent::batch_logits` (the autograd
//! graph forward) on a team loaded from the same checkpoint through
//! `HeroTeam::load_state` — a separate code path from the daemon's
//! inference-only forward.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hero_autograd::TensorPool;
use hero_baselines::sac::SacConfig;
use hero_core::checkpoint::{load_latest, TrainerSnapshot};
use hero_core::skills::SkillLibrary;
use hero_core::trainer::{train_team_checkpointed, CheckpointConfig, HeroTeam, TrainOptions};
use hero_serve::policy::ServePolicy;
use hero_sim::scenario;
use hero_sim::vehicle::VehicleCommand;

use crate::report::Report;
use crate::setup::{self, sub_seed};
use crate::stats::{median, percentile, Blocks};
use crate::sys;

/// Requests per second offered in the open-loop phase.
pub const OPEN_LOOP_RATE: f64 = 300.0;
/// Load-generator threads; each holds at most one connection at a time.
const CONNECTIONS: usize = 2;
/// Stage-2 episodes trained before the checkpoint is written.
const CHECKPOINT_EPISODES: usize = 4;
const SETUP_REPEATS: usize = 3;
const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Shortest stretch of the closed-loop phase one throughput sample covers.
const BLOCK_SECS: f64 = 0.5;

/// A running `hero-serve`; dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Starts `hero-serve` on `ckpt_dir` with an ephemeral port and waits
/// until it answers `GET /info`.
fn start_daemon(bin: &Path, ckpt_dir: &Path, out_dir: &Path) -> Result<Daemon, String> {
    let child = Command::new(bin)
        .arg("--checkpoint-dir")
        .arg(ckpt_dir)
        .arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--out")
        .arg(out_dir)
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let mut daemon = Daemon {
        child,
        addr: String::new(),
    };
    let discovery = out_dir.join("serve_addr");
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        if let Some(status) = daemon.child.try_wait().map_err(|e| e.to_string())? {
            return Err(format!("hero-serve exited during start-up: {status}"));
        }
        if let Ok(addr) = std::fs::read_to_string(&discovery) {
            if addr.ends_with('\n') {
                daemon.addr = addr.trim().to_string();
                if let Ok((200, _)) = http(&daemon.addr, "GET", "/info", "") {
                    return Ok(daemon);
                }
            }
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("hero-serve did not become ready within 30 s".into())
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon closes every
/// connection after one response). Returns the status and the body. The
/// load generator keeps its own client and answer parser, rather than the
/// program's `hero_telemetry::http` helpers, so that a change to those
/// helpers cannot move the measurement or the check.
pub fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    let req = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes())
        .map_err(|e| format!("send {path}: {e}"))?;
    let mut raw = Vec::new();
    s.read_to_end(&mut raw)
        .map_err(|e| format!("read {path}: {e}"))?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{path}: no header end"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| format!("{path}: bad status line"))?;
    Ok((status, body.to_string()))
}

/// The raw text of field `key` in a one-line JSON object: a string's
/// contents, or a number as written.
fn json_field<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let at = body.find(&format!("\"{key}\":"))? + key.len() + 3;
    let rest = body[at..].trim_start();
    match rest.strip_prefix('"') {
        Some(s) => s.split('"').next(),
        None => rest.split([',', '}']).next().map(str::trim),
    }
}

/// Checks one `/act` answer: its logits must equal `expected` bit for bit,
/// and its option must be their argmax (first maximum).
pub fn check_act(body: &str, expected: &[f32]) -> Result<(), String> {
    let logits = json_field(body, "logits").ok_or("answer has no logits")?;
    let got: Vec<f32> = logits
        .split_whitespace()
        .map(|t| t.parse().map_err(|_| format!("bad logit {t:?}")))
        .collect::<Result<_, _>>()?;
    let same = got.len() == expected.len()
        && got
            .iter()
            .zip(expected)
            .all(|(a, b)| a.to_bits() == b.to_bits());
    if !same {
        return Err(format!(
            "logits {got:?} differ from the graph forward's {expected:?}"
        ));
    }
    let option: usize = json_field(body, "option")
        .and_then(|o| o.parse().ok())
        .ok_or("answer has no option")?;
    let best = expected
        .iter()
        .enumerate()
        .fold(0, |best, (i, &v)| if v > expected[best] { i } else { best });
    if option != best {
        return Err(format!(
            "option {option} is not the argmax {best} of the logits"
        ));
    }
    Ok(())
}

/// The generated inputs: observation rows taken from the congestion
/// scenario, the request sequence over them, and the logits each
/// `(agent, row)` pair must produce.
struct Inputs {
    rows: Vec<String>,
    raw_rows: Vec<Vec<f32>>,
    /// `(agent, row)` of request `i` is `sequence[i % len]`.
    sequence: Vec<(usize, usize)>,
    expected: Vec<Vec<Vec<f32>>>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let mut env = scenario::congestion(setup::env_config(), sub_seed(seed, 100));
        let learners = env.learner_indices();
        let idle = vec![VehicleCommand::default(); env.num_vehicles()];
        let mut raw_rows = Vec::new();
        for _ in 0..32 {
            let start = env.reset();
            let next = env.step(&idle).observations;
            for obs in [start, next] {
                raw_rows.extend(learners.iter().map(|&v| obs[v].high_vec()));
            }
        }
        let rows = raw_rows
            .iter()
            .map(|r| r.iter().map(f32::to_string).collect::<Vec<_>>().join(" "))
            .collect();
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 101));
        let sequence = (0..4096)
            .map(|i| (i % setup::N_AGENTS, rng.gen_range(0..raw_rows.len())))
            .collect();
        Inputs {
            rows,
            raw_rows,
            sequence,
            expected: Vec::new(),
        }
    }

    fn request(&self, i: usize) -> (String, &[f32]) {
        let (agent, row) = self.sequence[i % self.sequence.len()];
        (
            format!("{{\"agent\": {agent}, \"obs\": \"{}\"}}", self.rows[row]),
            &self.expected[agent][row],
        )
    }

    /// Computes the expected logits on a team restored from the newest
    /// checkpoint in `dir` via `HeroTeam::load_state`.
    fn expect_from(&mut self, dir: &Path) -> Result<(), String> {
        let loaded = load_latest(dir)
            .map_err(|e| e.to_string())?
            .ok_or("no checkpoint written")?;
        let snap = TrainerSnapshot::from_sections(&loaded.sections).map_err(|e| e.to_string())?;
        // Checkpoints hold only the high-level team; the skills they were
        // trained with play no part in the logits.
        let untrained = SkillLibrary::untrained(setup::env_config(), SacConfig::default(), 0);
        let mut team = serving_team(Arc::new(untrained), 0);
        team.load_state(&snap.team_sections)
            .map_err(|e| format!("load_state: {e}"))?;
        self.expected = team
            .agents()
            .iter()
            .map(|a| {
                self.raw_rows
                    .iter()
                    .map(|r| a.batch_logits(&[r.as_slice()]).remove(0))
                    .collect()
            })
            .collect();
        Ok(())
    }
}

/// A Table I team over `skills`.
fn serving_team(skills: Arc<SkillLibrary>, seed: u64) -> HeroTeam {
    let env_cfg = setup::env_config();
    HeroTeam::new(
        setup::N_AGENTS,
        env_cfg.high_dim(),
        skills,
        setup::hero_config(setup::TABLE1_BATCH),
        sub_seed(seed, 2),
    )
}

/// Trains the skills and then the Table I team for a few episodes, and
/// writes the team's checkpoint.
fn write_checkpoint(dir: &Path, seed: u64) -> Result<(), String> {
    let (skills, _) = setup::train_skills(seed);
    let mut team = serving_team(skills, seed);
    let mut env = scenario::congestion(setup::env_config(), sub_seed(seed, 3));
    let opts = TrainOptions {
        episodes: CHECKPOINT_EPISODES,
        update_every: 1,
        seed: sub_seed(seed, 90),
    };
    let ckpt = CheckpointConfig {
        every: CHECKPOINT_EPISODES,
        dir: Some(dir.to_path_buf()),
        ..CheckpointConfig::default()
    };
    train_team_checkpointed(&mut team, &mut env, &opts, &ckpt).map_err(|e| e.to_string())?;
    Ok(())
}

/// One set-up: a checkpoint in a fresh directory and a ready daemon on it.
fn set_up(scratch: &Path, rep: usize, seed: u64, bin: &Path) -> Result<(Daemon, PathBuf), String> {
    let ckpt_dir = scratch.join(format!("serve{rep}/checkpoints"));
    let out_dir = scratch.join(format!("serve{rep}/out"));
    write_checkpoint(&ckpt_dir, seed)?;
    Ok((start_daemon(bin, &ckpt_dir, &out_dir)?, ckpt_dir))
}

/// What one load phase observed.
#[derive(Default)]
struct Load {
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    failures: Vec<String>,
    answered: u64,
    /// Seconds from the start of the phase to each answer.
    answered_at: Vec<f64>,
}

impl Load {
    fn merge(&mut self, other: Load) {
        self.latency_us.extend(other.latency_us);
        self.late_us.extend(other.late_us);
        self.failures.extend(other.failures);
        self.answered += other.answered;
        self.answered_at.extend(other.answered_at);
    }

    /// Answers per second: the median over stretches of at least
    /// `BLOCK_SECS` of the phase.
    fn rate(&self) -> f64 {
        let mut at = self.answered_at.clone();
        at.sort_by(f64::total_cmp);
        let mut blocks = Blocks::new(BLOCK_SECS);
        let mut last = 0.0;
        for t in at {
            blocks.add(1.0, t - last);
            last = t;
        }
        blocks.median_rate()
    }
}

fn act(addr: &str, inputs: &Inputs, i: usize, load: &mut Load) {
    let (body, expected) = inputs.request(i);
    match http(addr, "POST", "/act", &body) {
        Ok((200, answer)) => match check_act(&answer, expected) {
            Ok(()) => load.answered += 1,
            Err(e) => load.failures.push(format!("request {i}: {e}")),
        },
        Ok((status, answer)) => load
            .failures
            .push(format!("request {i}: status {status}: {}", answer.trim())),
        Err(e) => load.failures.push(format!("request {i}: {e}")),
    }
}

/// Offers `n` requests at `OPEN_LOOP_RATE`, request `i` due at
/// `i / rate` and sent by thread `i % CONNECTIONS`.
fn open_loop(addr: &str, inputs: &Inputs, n: usize) -> Load {
    let period = Duration::from_secs_f64(1.0 / OPEN_LOOP_RATE);
    let t0 = Instant::now() + Duration::from_millis(10);
    let mut total = Load::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    for i in (c..n).step_by(CONNECTIONS) {
                        let due = t0 + period * i as u32;
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        load.late_us
                            .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                        act(addr, inputs, i, &mut load);
                        load.latency_us
                            .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
                    }
                    load
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    total
}

/// Every connection sends its next request as soon as the last one
/// answers, for `budget`.
fn closed_loop(addr: &str, inputs: &Inputs, budget: Duration) -> Load {
    let start = Instant::now();
    let mut total = Load::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut i = c;
                    while start.elapsed() < budget {
                        act(addr, inputs, i, &mut load);
                        load.answered_at.push(start.elapsed().as_secs_f64());
                        i += CONNECTIONS;
                    }
                    load
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("load thread panicked"));
        }
    });
    total
}

fn record_failures(report: &mut Report, load: &Load) {
    report.attempted += load.answered + load.failures.len() as u64;
    report.failed += load.failures.len() as u64;
    for f in load.failures.iter().take(5) {
        report.fail(f.clone());
    }
}

/// `(batches, rows_batched)` from `GET /stats`.
fn batch_counts(addr: &str) -> Result<(f64, f64), String> {
    let (_, body) = http(addr, "GET", "/stats", "")?;
    let num = |k| {
        json_field(&body, k)
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or(format!("/stats has no {k}"))
    };
    Ok((num("batches")?, num("rows_batched")?))
}

pub fn run(
    scratch: &Path,
    bin: &Path,
    seed: u64,
    seconds: f64,
    report: &mut Report,
) -> Result<(), String> {
    let mut setups = Vec::new();
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        drop(last.take()); // stop the previous daemon first
        let t = Instant::now();
        last = Some(set_up(scratch, rep, seed, bin)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (daemon, ckpt_dir) = last.expect("at least one set-up ran");
    report.metric("setup_s", median(&setups), "s");

    let mut inputs = Inputs::generate(seed);
    inputs.expect_from(&ckpt_dir)?;
    let open = open_loop(
        &daemon.addr,
        &inputs,
        (OPEN_LOOP_RATE * seconds / 2.0).round() as usize,
    );
    let closed = closed_loop(
        &daemon.addr,
        &inputs,
        Duration::from_secs_f64(seconds / 2.0),
    );
    record_failures(report, &open);
    record_failures(report, &closed);
    report.check(!open.latency_us.is_empty() && closed.answered > 0, || {
        "no request was answered".into()
    });
    report.metric("ops_per_s", closed.rate(), "1/s");
    report.metric("op_p50_us", percentile(&open.latency_us, 50.0), "us");
    let rss =
        sys::rss_kb_of(&daemon.pid().to_string()).ok_or("cannot read hero-serve's resident set")?;
    report.metric("rss_mb", rss as f64 / 1024.0, "MiB");
    Ok(())
}

/// The traced serving section: the same set-up and open-loop phase, with
/// the daemon's layers timed around it.
pub fn trace(
    scratch: &Path,
    bin: &Path,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<(), String> {
    let (daemon, ckpt_dir) = set_up(scratch, 0, seed, bin)?;
    let mut inputs = Inputs::generate(seed);
    inputs.expect_from(&ckpt_dir)?;

    let mut loads = Vec::new();
    let mut policy = None;
    for _ in 0..3 {
        let t = Instant::now();
        let loaded = ServePolicy::load_newest(&ckpt_dir).map_err(|e| e.to_string())?;
        loads.push(t.elapsed().as_secs_f64());
        policy = loaded.map(|(p, _)| p);
    }
    report.metric("checkpoint.load_s", median(&loads), "s");
    let policy = policy.ok_or("ServePolicy::load_newest found no checkpoint")?;
    let mut pool = TensorPool::new();
    let one = [inputs.raw_rows[0].as_slice()];
    let two = [inputs.raw_rows[0].as_slice(), inputs.raw_rows[1].as_slice()];
    let infer1 = crate::layers::time_us(Duration::from_millis(100), || {
        std::hint::black_box(policy.infer(0, &one, &mut pool));
    });
    let infer2 = crate::layers::time_us(Duration::from_millis(100), || {
        std::hint::black_box(policy.infer(0, &two, &mut pool));
    });
    report.metric("serve.infer_1row_us", infer1, "us");
    report.metric("serve.infer_2row_us", infer2, "us");

    let mut info = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        let (status, _) = http(&daemon.addr, "GET", "/info", "")?;
        info.push(t.elapsed().as_secs_f64() * 1e6);
        report.check(status == 200, || format!("GET /info answered {status}"));
    }
    let info_us = median(&info);
    report.metric("http.info_roundtrip_us", info_us, "us");

    let (b0, r0) = batch_counts(&daemon.addr)?;
    let ticks0 = sys::cpu_ticks_of(daemon.pid()).ok_or("cannot read hero-serve's CPU time")?;
    let open = open_loop(
        &daemon.addr,
        &inputs,
        (OPEN_LOOP_RATE * budget.as_secs_f64()).round() as usize,
    );
    let ticks1 = sys::cpu_ticks_of(daemon.pid()).ok_or("cannot read hero-serve's CPU time")?;
    let (b1, r1) = batch_counts(&daemon.addr)?;
    record_failures(report, &open);
    report.check(!open.latency_us.is_empty(), || {
        "no request was answered".into()
    });
    let p50 = percentile(&open.latency_us, 50.0);
    report.metric("serve.act_p50_us", p50, "us");
    report.metric("serve.act_p99_us", percentile(&open.latency_us, 99.0), "us");
    report.metric("load.late_p99_us", percentile(&open.late_us, 99.0), "us");
    report.metric("serve.batch_wait_us", p50 - info_us - infer1, "us");
    report.metric(
        "serve.rows_per_batch",
        (r1 - r0) / (b1 - b0).max(1.0),
        "rows",
    );
    report.metric(
        "serve.server_cpu_us_per_act",
        (ticks1 - ticks0) as f64 * 10_000.0 / open.answered.max(1) as f64,
        "us",
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const ANSWER: &str =
        "{\"option\":2,\"logits\":\"0.5 -1.25 3.0000002 0.1\",\"checkpoint\":4,\"batch\":1}\n";

    #[test]
    fn accepts_an_answer_equal_to_the_graph_forward() {
        let expected = [0.5f32, -1.25, 3.000_000_2, 0.1];
        assert_eq!(check_act(ANSWER, &expected), Ok(()));
    }

    #[test]
    fn rejects_an_answer_with_one_perturbed_logit() {
        // One ulp off in the third logit: same argmax, different bits.
        let mut expected = [0.5f32, -1.25, 3.000_000_2, 0.1];
        expected[2] = f32::from_bits(expected[2].to_bits() + 1);
        assert!(check_act(ANSWER, &expected).is_err());
    }

    #[test]
    fn rejects_an_option_that_is_not_the_argmax() {
        let answer = ANSWER.replace("\"option\":2", "\"option\":0");
        assert!(check_act(&answer, &[0.5, -1.25, 3.000_000_2, 0.1]).is_err());
    }

    #[test]
    fn reads_string_and_number_fields() {
        assert_eq!(json_field(ANSWER, "checkpoint"), Some("4"));
        assert_eq!(json_field(ANSWER, "batch"), Some("1"));
        assert_eq!(
            json_field(ANSWER, "logits"),
            Some("0.5 -1.25 3.0000002 0.1")
        );
        assert_eq!(json_field(ANSWER, "missing"), None);
    }
}
