//! The two training workloads.
//!
//! `train_table1` times `train_team` (Algorithm 1) at the Table I shapes;
//! `train_fleet` times `train_team_actor_learner` with batched worlds at
//! the experiment binaries' default shapes. The traced sections replay
//! each loop from outside, call for call, with a timer around every call
//! into a layer.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_baselines::common::UpdateStats;
use hero_core::agent::PreparedUpdate;
use hero_core::rollout::{train_team_actor_learner, RolloutOptions};
use hero_core::trainer::{train_team, CheckpointConfig, HeroTeam, TeamCursor, TrainOptions};
use hero_rl::metrics::Recorder;
use hero_rl::telemetry;
use hero_sim::batch::BatchWorld;
use hero_sim::env::{LaneChangeEnv, Observation};
use hero_sim::scenario;
use hero_sim::vehicle::VehicleState;

use crate::report::Report;
use crate::setup::{self, steps_recorded, sub_seed, Trainee};
use crate::stats::{median, Blocks, Breakdown};
use crate::sys;

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Shortest stretch of training one throughput sample covers.
const BLOCK_SECS: f64 = 1.0;

/// Runs set-up `SETUP_REPEATS` times, keeping the last trainee, and
/// reports the median set-up time.
fn set_up_repeatedly(batch: usize, seed: u64, report: &mut Report) -> Result<Trainee, String> {
    let mut times = Vec::new();
    let mut trainee = None;
    for _ in 0..SETUP_REPEATS {
        drop(trainee.take()); // free the previous team before building the next
        let t = Instant::now();
        trainee = Some(Trainee::set_up(batch, seed)?);
        times.push(t.elapsed().as_secs_f64());
    }
    report.metric("setup_s", median(&times), "s");
    Ok(trainee.expect("at least one set-up ran"))
}

fn report_rss(report: &mut Report) -> Result<(), String> {
    let kb = sys::trimmed_rss_kb().ok_or("cannot read this process's resident set")?;
    report.metric("rss_mb", kb as f64 / 1024.0, "MiB");
    Ok(())
}

fn series(rec: &Recorder, name: &str) -> Vec<f32> {
    rec.series(name).map(<[f32]>::to_vec).unwrap_or_default()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn opponent_trace_lens(team: &HeroTeam) -> Vec<Vec<usize>> {
    team.agents()
        .iter()
        .map(|a| a.opponent_loss_traces().iter().map(Vec::len).collect())
        .collect()
}

/// What a timed `train_team` phase produced.
struct Table1Phase {
    blocks: Blocks,
    steps: u64,
    secs: f64,
    episode_seeds: Vec<u64>,
    critic: Vec<f32>,
    actor: Vec<f32>,
    /// Episodes whose update count differed from their step count.
    update_mismatches: Vec<String>,
    opp_start: Vec<Vec<usize>>,
}

/// `train_team`, one episode per call, for `budget`.
fn timed_table1(tr: &mut Trainee, seed: u64, budget: Duration) -> Result<Table1Phase, String> {
    let mut p = Table1Phase {
        blocks: Blocks::new(BLOCK_SECS),
        steps: 0,
        secs: 0.0,
        episode_seeds: Vec::new(),
        critic: Vec::new(),
        actor: Vec::new(),
        update_mismatches: Vec::new(),
        opp_start: opponent_trace_lens(&tr.team),
    };
    let start = Instant::now();
    while start.elapsed() < budget {
        let ep_seed = sub_seed(seed, 10_000 + p.episode_seeds.len() as u64);
        let opts = TrainOptions {
            episodes: 1,
            update_every: 1,
            seed: ep_seed,
        };
        let before = steps_recorded(&tr.team)?;
        let t = Instant::now();
        let rec = train_team(&mut tr.team, &mut tr.env, &opts);
        let dt = t.elapsed().as_secs_f64();
        let steps = steps_recorded(&tr.team)? - before;
        let critic = series(&rec, "critic_loss");
        if critic.len() != steps {
            p.update_mismatches.push(format!(
                "episode seed {ep_seed}: {steps} steps but {} learner updates",
                critic.len()
            ));
        }
        p.blocks.add(steps as f64, dt);
        p.steps += steps as u64;
        p.secs += dt;
        p.critic.extend(critic);
        p.actor.extend(series(&rec, "actor_loss"));
        p.episode_seeds.push(ep_seed);
    }
    Ok(p)
}

/// The output checks of a timed Table I phase: one learner update per
/// step, finite losses, and an opponent model that beats a uniform guess
/// over the four options by the last tenth of the phase.
fn check_table1(report: &mut Report, team: &HeroTeam, p: &Table1Phase) {
    for m in &p.update_mismatches {
        report.fail(m.clone());
    }
    report.check(p.steps > 0, || "no timed step ran".into());
    report.check(
        p.critic.iter().chain(&p.actor).all(|l| l.is_finite()),
        || "a high-level loss is not finite".into(),
    );
    let mut tail = Vec::new();
    for (agent, starts) in team.agents().iter().zip(&p.opp_start) {
        for (trace, &s) in agent.opponent_loss_traces().iter().zip(starts) {
            let timed = &trace[s..];
            if !timed.iter().all(|l| l.is_finite()) {
                report.fail("an opponent-model loss is not finite");
            }
            tail.extend(
                timed[timed.len() - timed.len() / 10..]
                    .iter()
                    .map(|&l| f64::from(l)),
            );
        }
    }
    let uniform = (hero_sim::options::DrivingOption::COUNT as f64).ln();
    if tail.is_empty() {
        report.fail("no opponent-model loss in the last tenth of the timed phase");
    } else {
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        eprintln!("opponent-model loss over the last tenth of the timed phase: {mean:.4} (ln 4 = {uniform:.4})");
        report.check(mean < uniform, || {
            format!("opponent-model loss {mean:.4} over the last tenth is not below ln 4 = {uniform:.4}")
        });
    }
}

pub fn run_table1(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let mut tr = set_up_repeatedly(setup::TABLE1_BATCH, seed, report)?;
    let p = timed_table1(&mut tr, seed, Duration::from_secs_f64(seconds))?;
    check_table1(report, &tr.team, &p);
    report.attempted += p.steps;
    report.metric("ops_per_s", p.blocks.median_rate(), "1/s");
    report.metric("op_p50_us", p.blocks.median_secs_per_unit() * 1e6, "us");
    report_rss(report)
}

/// What a timed `train_team_actor_learner` phase produced.
struct FleetPhase {
    blocks: Blocks,
    steps: u64,
    secs: f64,
}

fn fleet_rollout() -> RolloutOptions {
    RolloutOptions {
        actors: setup::FLEET_ACTORS,
        batch_worlds: setup::FLEET_WORLDS_PER_ACTOR,
        ..RolloutOptions::default()
    }
}

/// `train_team_actor_learner`, `FLEET_EPISODES_PER_CALL` episodes per
/// call, for `budget`. Checks that every requested episode completes, that
/// the learner ran one update per `FLEET_UPDATE_EVERY` steps, and that
/// every loss is finite.
fn timed_fleet(
    tr: &mut Trainee,
    seed: u64,
    budget: Duration,
    report: &mut Report,
) -> Result<FleetPhase, String> {
    let mut p = FleetPhase {
        blocks: Blocks::new(BLOCK_SECS),
        steps: 0,
        secs: 0.0,
    };
    let want = setup::FLEET_EPISODES_PER_CALL;
    let start = Instant::now();
    let mut call = 0u64;
    while start.elapsed() < budget {
        let opts = TrainOptions {
            episodes: want,
            update_every: setup::FLEET_UPDATE_EVERY,
            seed: sub_seed(seed, 20_000 + call),
        };
        let before = steps_recorded(&tr.team)?;
        let t = Instant::now();
        let out = train_team_actor_learner(
            &mut tr.team,
            &mut tr.env,
            &opts,
            &CheckpointConfig::default(),
            &fleet_rollout(),
        )
        .map_err(|e| format!("train_team_actor_learner: {e}"))?;
        let dt = t.elapsed().as_secs_f64();
        let steps = steps_recorded(&tr.team)? - before;
        let episodes = out.recorder.series("reward").map_or(0, <[f32]>::len);
        report.check(out.completed && out.episodes_run == want && episodes == want, || {
            format!(
                "call {call}: {want} episodes requested, completed={} episodes_run={} recorded={episodes}",
                out.completed, out.episodes_run
            )
        });
        let critic = series(&out.recorder, "critic_loss");
        let actor = series(&out.recorder, "actor_loss");
        report.check(critic.len() == steps / setup::FLEET_UPDATE_EVERY, || {
            format!(
                "call {call}: {steps} steps but {} learner updates",
                critic.len()
            )
        });
        report.check(critic.iter().chain(&actor).all(|l| l.is_finite()), || {
            format!("call {call}: a high-level loss is not finite")
        });
        p.blocks.add(steps as f64, dt);
        p.steps += steps as u64;
        p.secs += dt;
        call += 1;
    }
    for agent in tr.team.agents() {
        for trace in agent.opponent_loss_traces() {
            report.check(trace.iter().all(|l| l.is_finite()), || {
                "an opponent-model loss is not finite".into()
            });
        }
    }
    Ok(p)
}

pub fn run_fleet(seed: u64, seconds: f64, report: &mut Report) -> Result<(), String> {
    let mut tr = set_up_repeatedly(setup::FLEET_BATCH, seed, report)?;
    let p = timed_fleet(&mut tr, seed, Duration::from_secs_f64(seconds), report)?;
    report.attempted += p.steps;
    report.metric("ops_per_s", p.blocks.median_rate(), "1/s");
    report.metric("op_p50_us", p.blocks.median_secs_per_unit() * 1e6, "us");
    report_rss(report)
}

// ---------------------------------------------------------------------
// Traced replays
// ---------------------------------------------------------------------

/// Time spent in each layer during a traced replay, in seconds.
#[derive(Default)]
struct StepTimes {
    steps: u64,
    total: f64,
    decide: f64,
    env: f64,
    record: f64,
    update: f64,
    updates: u64,
    prepare: f64,
    apply_sum: f64,
    apply_max: f64,
    allocs: Vec<f64>,
    alloc_bytes: Vec<f64>,
}

impl StepTimes {
    fn report(&self, prefix: &str, report: &mut Report) {
        let per_step = |s: f64| s / self.steps as f64 * 1e6;
        let b = Breakdown::new(
            per_step(self.total),
            vec![
                ("trainer.decide_us", per_step(self.decide)),
                ("sim.env_step_us", per_step(self.env)),
                ("trainer.record_us", per_step(self.record)),
                ("trainer.update_us", per_step(self.update)),
            ],
        );
        report.metric(format!("{prefix}.trainer.step_us"), b.total, "us");
        for (name, v) in &b.parts {
            report.metric(format!("{prefix}.{name}"), *v, "us");
        }
        report.metric(
            format!("{prefix}.trainer.unattributed_us"),
            b.unattributed,
            "us",
        );
        let per_update = |s: f64| s / self.updates as f64 * 1e6;
        let u = Breakdown::new(
            per_update(self.update),
            vec![
                ("agent.prepare_update_us", per_update(self.prepare)),
                ("agent.apply_update_max_us", per_update(self.apply_max)),
            ],
        );
        for (name, v) in &u.parts {
            report.metric(format!("{prefix}.{name}"), *v, "us");
        }
        report.metric(
            format!("{prefix}.agent.apply_update_us"),
            per_update(self.apply_sum),
            "us",
        );
        report.metric(
            format!("{prefix}.trainer.update_overhead_us"),
            u.unattributed,
            "us",
        );
        report.metric(
            format!("{prefix}.alloc.per_update"),
            median(&self.allocs),
            "count",
        );
        report.metric(
            format!("{prefix}.alloc.bytes_per_update"),
            median(&self.alloc_bytes),
            "bytes",
        );
    }
}

/// `HeroTeam::update` replayed call for call from outside, for the
/// configuration both training workloads run (several agents,
/// `parallel_update` on): minibatches sampled on this thread in agent
/// order, then one scoped thread per agent for the compute half, joined in
/// agent order. Times each half and counts the allocations of the whole
/// update.
fn traced_update(team: &mut HeroTeam, rng: &mut StdRng, t: &mut StepTimes) -> Option<(f32, f32)> {
    assert!(
        team.config().parallel_update && team.agents().len() > 1,
        "the replay covers HeroTeam::update's parallel path only"
    );
    let (a0, b0) = sys::alloc_counts();
    let start = Instant::now();
    let prepared: Vec<PreparedUpdate> = team
        .agents()
        .iter()
        .map(|a| a.prepare_update(rng))
        .collect();
    t.prepare += start.elapsed().as_secs_f64();
    let outcomes: Vec<(Option<UpdateStats>, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = team
            .agents_mut()
            .iter_mut()
            .zip(prepared)
            .map(|(agent, batches)| {
                s.spawn(move || {
                    let t = Instant::now();
                    let stats = agent.apply_update(batches);
                    (stats, t.elapsed().as_secs_f64())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("agent update thread panicked"))
            .collect()
    });
    t.update += start.elapsed().as_secs_f64();
    let (a1, b1) = sys::alloc_counts();
    t.updates += 1;
    t.allocs.push((a1 - a0) as f64);
    t.alloc_bytes.push((b1 - b0) as f64);
    t.apply_sum += outcomes.iter().map(|o| o.1).sum::<f64>();
    t.apply_max += outcomes.iter().map(|o| o.1).fold(0.0, f64::max);
    let done: Vec<UpdateStats> = outcomes.into_iter().filter_map(|o| o.0).collect();
    let n = done.len() as f32;
    (!done.is_empty()).then(|| {
        (
            done.iter().map(|s| s.critic_loss).sum::<f32>() / n,
            done.iter().map(|s| s.actor_loss).sum::<f32>() / n,
        )
    })
}

/// Transitions one update samples, summed over agents, from the program's
/// own `transitions_sampled` counter. `prepare_update` only reads the
/// team, and the RNG is a throwaway, so counting perturbs nothing.
fn transitions_per_update(team: &HeroTeam, seed: u64) -> f64 {
    let guard = telemetry::scoped(telemetry::TelemetryConfig::default());
    let mut rng = StdRng::seed_from_u64(seed);
    for agent in team.agents() {
        let _ = agent.prepare_update(&mut rng);
    }
    let total = guard
        .snapshot()
        .counters
        .get("transitions_sampled")
        .map_or(0, |c| c.total);
    total as f64
}

/// Replays `train_team`'s step loop for the given episode seeds with a
/// timer around each call; returns the high-level loss series.
fn replay_table1(
    team: &mut HeroTeam,
    env: &mut LaneChangeEnv,
    seeds: &[u64],
    t: &mut StepTimes,
) -> (Vec<f32>, Vec<f32>) {
    let (mut critic, mut actor) = (Vec::new(), Vec::new());
    for &seed in seeds {
        let ep = Instant::now();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut obs = env.reset();
        team.begin_episode();
        let mut ep_reward = 0.0f32;
        while !env.is_done() {
            let t0 = Instant::now();
            let commands = team.decide(env, &obs, &mut rng, true);
            let t1 = Instant::now();
            let out = env.step(&commands);
            let t2 = Instant::now();
            team.record(env, &obs, &out.rewards, &out.observations, out.done);
            let t3 = Instant::now();
            t.decide += (t1 - t0).as_secs_f64();
            t.env += (t2 - t1).as_secs_f64();
            t.record += (t3 - t2).as_secs_f64();
            let learners = env.learner_indices();
            ep_reward +=
                learners.iter().map(|&v| out.rewards[v]).sum::<f32>() / learners.len() as f32;
            t.steps += 1;
            // update_every is 1 at Table I: one update per step.
            if let Some((c, a)) = traced_update(team, &mut rng, t) {
                critic.push(c);
                actor.push(a);
            }
            obs = out.observations;
        }
        std::hint::black_box(ep_reward);
        t.total += ep.elapsed().as_secs_f64();
    }
    (critic, actor)
}

/// The traced Table I section: an untraced `train_team` phase and its
/// traced replay on a twin of the same state, which must produce the same
/// losses bit for bit.
pub fn trace_table1(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let mut tr = Trainee::set_up(setup::TABLE1_BATCH, seed)?;
    report.metric("skills.train_s", tr.skills_s, "s");
    let (mut twin, mut twin_env) = tr.twin()?;

    let u0 = sys::usage();
    let p = timed_table1(&mut tr, seed, budget)?;
    let u1 = sys::usage();
    check_table1(report, &tr.team, &p);
    report.metric(
        "table1.proc.sys_cpu_s",
        (u1.sys - u0.sys).as_secs_f64(),
        "s",
    );
    report.metric(
        "table1.proc.cpu_per_wall",
        ((u1.user + u1.sys) - (u0.user + u0.sys)).as_secs_f64() / p.secs,
        "ratio",
    );

    let mut t = StepTimes::default();
    let (critic, actor) = replay_table1(&mut twin, &mut twin_env, &p.episode_seeds, &mut t);
    report.check(
        bits(&critic) == bits(&p.critic) && bits(&actor) == bits(&p.actor),
        || {
            format!(
                "traced replay diverged from train_team: {} vs {} critic losses",
                critic.len(),
                p.critic.len()
            )
        },
    );
    let opp = |team: &HeroTeam| -> Vec<Vec<u32>> {
        team.agents()
            .iter()
            .flat_map(|a| a.opponent_loss_traces().iter().map(|tr| bits(tr)))
            .collect()
    };
    report.check(opp(&twin) == opp(&tr.team), || {
        "traced replay's opponent-model losses diverged".into()
    });
    report.check(t.updates == t.steps, || {
        format!("replay ran {} updates in {} steps", t.updates, t.steps)
    });
    report.attempted += p.steps + t.steps;

    t.report("table1", report);
    report.metric(
        "table1.rl.transitions_sampled_per_update",
        transitions_per_update(&twin, seed),
        "count",
    );
    let untraced_us = p.secs / p.steps as f64 * 1e6;
    let traced_us = t.total / t.steps as f64 * 1e6;
    report.metric(
        "table1.trace.overhead_pct",
        (traced_us / untraced_us - 1.0) * 100.0,
        "%",
    );
    Ok(())
}

/// One world of the fleet replay: its cursor and the last observations
/// and vehicle states the learner holds for it.
struct WorldSlot {
    cursor: TeamCursor,
    obs: Vec<Observation>,
    states: Vec<VehicleState>,
}

/// Replays the batched actor/learner engine's learner loop on this thread
/// for `budget`: waves over `FLEET_ACTORS` shards of
/// `FLEET_WORLDS_PER_ACTOR` worlds, one batched policy forward per agent
/// over the deciding worlds, `BatchWorld::step_worlds` per shard, and the
/// update cadence counted in world steps.
fn replay_fleet(team: &mut HeroTeam, seed: u64, budget: Duration, t: &mut StepTimes) -> Vec<f64> {
    let env_cfg = setup::env_config();
    let per = setup::FLEET_WORLDS_PER_ACTOR;
    let mut shards: Vec<BatchWorld> = (0..setup::FLEET_ACTORS)
        .map(|a| {
            BatchWorld::replicate(
                &scenario::congestion(env_cfg, sub_seed(seed, 40 + a as u64)),
                per,
            )
        })
        .collect();
    let total = shards.len() * per;
    let learners = shards[0].learner_indices();
    let n_vehicles = shards[0].num_vehicles();
    let track = env_cfg.track;
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 50));
    let mut step_counter = 0usize;
    let mut shard_step_us = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget {
        let wave = Instant::now();
        let mut worlds: Vec<WorldSlot> = (0..total)
            .map(|g| {
                let shard = &mut shards[g / per];
                let obs = shard.reset_world(g % per);
                let states = (0..n_vehicles)
                    .map(|i| shard.vehicle_state(g % per, i))
                    .collect();
                let mut cursor = team.new_cursor();
                cursor.begin_episode();
                WorldSlot {
                    cursor,
                    obs,
                    states,
                }
            })
            .collect();
        let mut running: Vec<usize> = (0..total).collect();
        while !running.is_empty() {
            let t0 = Instant::now();
            let mut logits: Vec<Vec<Option<Vec<f32>>>> =
                vec![vec![None; learners.len()]; running.len()];
            if running.len() > 1 {
                for (k, &v) in learners.iter().enumerate() {
                    let sel: Vec<usize> = (0..running.len())
                        .filter(|&pos| {
                            worlds[running[pos]].cursor.agents()[k]
                                .current_option()
                                .is_none()
                        })
                        .collect();
                    if sel.len() > 1 {
                        let rows_owned: Vec<Vec<f32>> = sel
                            .iter()
                            .map(|&pos| worlds[running[pos]].obs[v].high_vec())
                            .collect();
                        let rows: Vec<&[f32]> = rows_owned.iter().map(Vec::as_slice).collect();
                        let batched = team.agents()[k].batch_logits(&rows);
                        for (row, &pos) in batched.into_iter().zip(&sel) {
                            logits[pos][k] = Some(row);
                        }
                    }
                }
            }
            let mut commands = Vec::with_capacity(running.len());
            for (pos, &g) in running.iter().enumerate() {
                let w = &mut worlds[g];
                commands.push(team.decide_in_with_logits(
                    &mut w.cursor,
                    &track,
                    &learners,
                    n_vehicles,
                    &w.states,
                    &w.obs,
                    &logits[pos],
                    &mut rng,
                    true,
                ));
            }
            let t1 = Instant::now();
            let mut outcomes = Vec::with_capacity(running.len());
            for (a, shard) in shards.iter_mut().enumerate() {
                let (local, cmds): (Vec<usize>, Vec<_>) = running
                    .iter()
                    .zip(&commands)
                    .filter(|(&g, _)| g / per == a)
                    .map(|(&g, c)| (g % per, c.clone()))
                    .unzip();
                if local.is_empty() {
                    continue;
                }
                let s0 = Instant::now();
                let outs = shard.step_worlds(&local, &cmds);
                if local.len() == per {
                    shard_step_us.push(s0.elapsed().as_secs_f64() * 1e6);
                }
                for (w, out) in local.iter().zip(outs) {
                    let states: Vec<VehicleState> = (0..n_vehicles)
                        .map(|i| shard.vehicle_state(*w, i))
                        .collect();
                    outcomes.push((a * per + w, out, states));
                }
            }
            t.env += t1.elapsed().as_secs_f64();
            t.decide += (t1 - t0).as_secs_f64();
            let mut still = Vec::new();
            for (g, out, states) in outcomes {
                let w = &mut worlds[g];
                let r0 = Instant::now();
                team.record_in(
                    &mut w.cursor,
                    &track,
                    &learners,
                    &states,
                    &w.obs,
                    &out.rewards,
                    &out.observations,
                    out.done,
                );
                t.record += r0.elapsed().as_secs_f64();
                t.steps += 1;
                step_counter += 1;
                if step_counter.is_multiple_of(setup::FLEET_UPDATE_EVERY) {
                    traced_update(team, &mut rng, t);
                }
                w.obs = out.observations;
                w.states = states;
                if !out.done {
                    still.push(g);
                }
            }
            running = still;
        }
        t.total += wave.elapsed().as_secs_f64();
    }
    shard_step_us
}

/// The traced fleet section: an untraced `train_team_actor_learner` phase,
/// then the single-threaded replay of its learner loop on the same team.
pub fn trace_fleet(seed: u64, budget: Duration, report: &mut Report) -> Result<(), String> {
    let mut tr = Trainee::set_up(setup::FLEET_BATCH, seed)?;
    let p = timed_fleet(&mut tr, seed, budget, report)?;
    let mut t = StepTimes::default();
    let shard_steps = replay_fleet(&mut tr.team, seed, budget, &mut t);
    report.attempted += p.steps + t.steps;
    t.report("fleet", report);
    report.metric(
        "fleet.rl.transitions_sampled_per_update",
        transitions_per_update(&tr.team, seed),
        "count",
    );
    report.metric("fleet.sim.batch_world_step_us", median(&shard_steps), "us");
    let engine_us = p.secs / p.steps as f64 * 1e6;
    let replay_us = t.total / t.steps as f64 * 1e6;
    report.metric(
        "fleet.trace.slowdown_pct",
        (replay_us / engine_us - 1.0) * 100.0,
        "%",
    );

    // One batched policy forward over a shard's worth of rows.
    let mut env = scenario::congestion(setup::env_config(), sub_seed(seed, 60));
    let learner = env.learner_indices()[0];
    let rows_owned: Vec<Vec<f32>> = (0..setup::FLEET_WORLDS_PER_ACTOR)
        .map(|_| env.reset()[learner].high_vec())
        .collect();
    let rows: Vec<&[f32]> = rows_owned.iter().map(Vec::as_slice).collect();
    let agent = &tr.team.agents()[0];
    let us = crate::layers::time_us(Duration::from_millis(200), || {
        std::hint::black_box(agent.batch_logits(std::hint::black_box(&rows)));
    });
    report.metric("fleet.agent.batch_logits_us", us, "us");
    Ok(())
}
