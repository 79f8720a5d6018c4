//! Algorithm 1's training loop, written once against a [`WorldHost`].
//!
//! The loop chooses options, steps worlds, closes SMDP segments, and
//! updates the learners. Everything about *where* a world lives is behind
//! the host: [`InProcess`] steps the caller's world by direct call on this
//! thread, and the supervised actor fleet
//! ([`crate::rollout::train_team_actor_learner`]) steps world replicas on
//! actor threads. Resume, the `kill@ep:N` check, the update cadence,
//! snapshot saves, episode recording, and the emergency checkpoint of a
//! lost fleet exist only here, so both entry points share them.
//!
//! Episodes run in *waves*: every live world runs one episode, and a wave
//! never crosses the remaining-episode count, a scheduled kill, or a
//! checkpoint boundary. A one-world host runs one-episode waves, which is
//! exactly the sequential loop; several worlds decide in world order with
//! the policy forwards of all deciding worlds batched into one matmul per
//! agent ([`crate::agent::HeroAgent::batch_logits`]).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use hero_faultplan::KillMode;
use hero_rl::metrics::Recorder;
use hero_rl::telemetry::{self, FlightEventKind};
use hero_sim::env::{CooperativeWorld, Observation};
use hero_sim::track::Track;
use hero_sim::vehicle::{VehicleCommand, VehicleState};

use crate::checkpoint::{self, CheckpointStore, TrainerSnapshot, WorkerStates};
use crate::trainer::{
    CheckpointConfig, HeroTeam, TeamCursor, TrainError, TrainOptions, TrainOutcome,
};

/// What the loop sees of one world after a reset or a step.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorldView {
    pub observations: Vec<Observation>,
    pub states: Vec<VehicleState>,
}

/// One world's step result.
pub(crate) struct StepReply {
    pub view: WorldView,
    pub rewards: Vec<f32>,
    pub done: bool,
    pub mean_speed: f32,
}

/// Per-vehicle episode-outcome flags, read when an episode ends.
#[derive(Clone, Debug, Default)]
pub(crate) struct WorldFlags {
    pub collided: Vec<bool>,
    pub needs_merge: Vec<bool>,
    pub has_merged: Vec<bool>,
}

impl WorldFlags {
    /// The flags of vehicles `0..n`, read through per-vehicle queries.
    pub fn read(
        n: usize,
        collided: impl Fn(usize) -> bool,
        needs_merge: impl Fn(usize) -> bool,
        has_merged: impl Fn(usize) -> bool,
    ) -> Self {
        Self {
            collided: (0..n).map(collided).collect(),
            needs_merge: (0..n).map(needs_merge).collect(),
            has_merged: (0..n).map(has_merged).collect(),
        }
    }
}

/// Every actor is gone and the respawn budget is exhausted.
pub(crate) struct FleetLost;

/// Where the loop's worlds live: resets and steps them on request. World
/// `g`'s environment RNG stream is part of the host's state, so the loop
/// can checkpoint and restore it.
pub(crate) trait WorldHost {
    /// How many worlds the host runs; world 0 continues the caller's
    /// environment stream.
    fn world_count(&self) -> usize;
    /// World `g`'s environment RNG stream position.
    fn rng_state(&self, world: usize) -> Vec<u64>;
    /// Seats world `g`'s environment RNG stream (checkpoint restore).
    fn set_rng_state(&mut self, world: usize, state: &[u64]);
    /// Heals what failed since the last wave and lists the worlds able to
    /// run the next one, ascending.
    fn live_worlds(&mut self) -> Result<Vec<usize>, FleetLost>;
    /// Starts one episode in each of `worlds` (the wave's first episode is
    /// `episode`). Returns the worlds that reset, ascending; a world left
    /// out is not run this wave.
    fn reset(&mut self, worlds: &[usize], episode: usize) -> Vec<(usize, WorldView)>;
    /// Steps each of `worlds` with its commands. Replies come in `worlds`
    /// order; `None` marks a world whose episode was abandoned.
    fn step(
        &mut self,
        worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<StepReply>>, FleetLost>;
    /// The outcome flags of world `g`'s current episode.
    fn flags(&self, world: usize) -> WorldFlags;
}

/// The track, learner slots, and vehicle count every world shares.
pub(crate) struct Shape {
    pub track: Track,
    pub learners: Vec<usize>,
    pub vehicles: usize,
}

impl Shape {
    pub fn of<W: CooperativeWorld>(env: &W) -> Self {
        Self {
            track: env.config().track,
            learners: env.learner_indices(),
            vehicles: env.num_vehicles(),
        }
    }
}

/// Every vehicle's kinematic state in `env`.
pub(crate) fn vehicle_states<W: CooperativeWorld>(env: &W) -> Vec<VehicleState> {
    (0..env.num_vehicles())
        .map(|i| env.vehicle_state(i))
        .collect()
}

/// The zero-thread host: one world, the caller's, stepped by direct call.
pub(crate) struct InProcess<'e, W>(pub &'e mut W);

impl<W: CooperativeWorld> WorldHost for InProcess<'_, W> {
    fn world_count(&self) -> usize {
        1
    }

    fn rng_state(&self, _world: usize) -> Vec<u64> {
        self.0.rng_state()
    }

    fn set_rng_state(&mut self, _world: usize, state: &[u64]) {
        self.0.set_rng_state(state);
    }

    fn live_worlds(&mut self) -> Result<Vec<usize>, FleetLost> {
        Ok(vec![0])
    }

    fn reset(&mut self, _worlds: &[usize], _episode: usize) -> Vec<(usize, WorldView)> {
        let observations = self.0.reset();
        let states = vehicle_states(&*self.0);
        vec![(
            0,
            WorldView {
                observations,
                states,
            },
        )]
    }

    fn step(
        &mut self,
        _worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<StepReply>>, FleetLost> {
        // The loop passes one command vector per running world, and this
        // host runs exactly one world.
        let out = self.0.step(&commands[0]);
        let states = vehicle_states(&*self.0);
        Ok(vec![Some(StepReply {
            view: WorldView {
                observations: out.observations,
                states,
            },
            rewards: out.rewards,
            done: self.0.is_done(),
            mean_speed: out.mean_speed,
        })])
    }

    fn flags(&self, _world: usize) -> WorldFlags {
        let env = &*self.0;
        WorldFlags::read(
            env.num_vehicles(),
            |i| env.has_collided(i),
            |i| env.needs_merge(i),
            |i| env.has_merged(i),
        )
    }
}

/// Trains `team` on `host`'s worlds (Algorithm 1). World 0's cursor is
/// folded back into the team when the run ends, however it ends.
pub(crate) fn run<H: WorldHost>(
    team: &mut HeroTeam,
    host: &mut H,
    shape: Shape,
    opts: &TrainOptions,
    ckpt: &CheckpointConfig,
) -> Result<TrainOutcome, TrainError> {
    let mut t = Trainer {
        team,
        host,
        shape,
        opts,
        ckpt,
        rng: StdRng::seed_from_u64(opts.seed),
        rec: Recorder::new(),
        step_counter: 0,
        update_counter: 0,
        cursors: Vec::new(),
        store: None,
        episodes_run: 0,
    };
    let (start, workers) = t.resume()?;
    let worlds = t.host.world_count();
    t.cursors = (0..worlds).map(|_| t.team.new_cursor()).collect();
    if let Some(w) = workers {
        if w.rngs.len() == worlds {
            for (g, (rng, last)) in w.rngs.iter().zip(w.last_options).enumerate() {
                t.host.set_rng_state(g, rng);
                t.cursors[g].set_last_options(last);
            }
        } else {
            telemetry::progress(&format!(
                "checkpoint has {} world streams, this run has {worlds}; \
                 worlds past the first start fresh",
                w.rngs.len()
            ));
        }
    }
    t.store = ckpt.open_store();
    let result = t.train(start);
    t.team.absorb_cursor(&t.cursors[0]);
    result.map(|completed| TrainOutcome {
        recorder: t.rec,
        completed,
        episodes_run: t.episodes_run,
    })
}

struct Trainer<'a, H> {
    team: &'a mut HeroTeam,
    host: &'a mut H,
    shape: Shape,
    opts: &'a TrainOptions,
    ckpt: &'a CheckpointConfig,
    rng: StdRng,
    rec: Recorder,
    step_counter: usize,
    update_counter: usize,
    /// One cursor per world; world 0's is the team's own state.
    cursors: Vec<TeamCursor>,
    store: Option<CheckpointStore>,
    /// Episodes completed in this invocation (not restored ones).
    episodes_run: usize,
}

impl<H: WorldHost> Trainer<'_, H> {
    /// Restores the newest valid checkpoint when asked to. Returns the
    /// episode to continue from and the checkpoint's per-world state.
    fn resume(&mut self) -> Result<(usize, Option<WorkerStates>), TrainError> {
        let fresh = Ok((0, None));
        let Some(dir) = self.ckpt.dir.as_ref().filter(|_| self.ckpt.resume) else {
            return fresh;
        };
        let loaded = match checkpoint::load_latest(dir) {
            Ok(Some(loaded)) => loaded,
            Ok(None) => return fresh,
            Err(e) => {
                telemetry::progress(&format!("checkpoint dir unreadable, starting fresh: {e}"));
                return fresh;
            }
        };
        let snap = match TrainerSnapshot::from_sections(&loaded.sections)
            .and_then(|snap| snap.verify_kernel_mode().map(|()| snap))
            .and_then(|snap| self.team.load_state(&snap.team_sections).map(|()| snap))
        {
            Ok(snap) => snap,
            Err(e @ hero_autograd::CheckpointError::KernelModeMismatch { .. }) => {
                // A cross-mode resume would diverge from every golden while
                // looking healthy; starting fresh would silently discard
                // the run. Refuse with a typed error the binary turns into
                // exit 1.
                telemetry::progress(&format!("refusing to resume: {e}"));
                let _ = telemetry::flush();
                return Err(TrainError::ResumeRefused(e));
            }
            Err(e) => {
                telemetry::counter_add("checkpoint/corrupt_skipped", 1);
                telemetry::progress(&format!("resume failed, starting fresh: {e}"));
                return fresh;
            }
        };
        self.host.set_rng_state(0, &snap.env_rng);
        if let Some(state) = &snap.telemetry {
            let _ = telemetry::restore_state(state);
        }
        // Counters AFTER the telemetry restore, which would otherwise wipe
        // them.
        telemetry::counter_add("checkpoint/loaded", 1);
        telemetry::flight_event(FlightEventKind::CheckpointLoaded {
            index: loaded.index,
        });
        telemetry::counter_add("checkpoint/corrupt_skipped", loaded.corrupt_skipped as u64);
        if loaded.corrupt_skipped > 0 {
            telemetry::counter_add("checkpoint/fallback", 1);
        }
        self.rng = StdRng::from_state(snap.trainer_rng);
        self.step_counter = snap.step_counter;
        self.update_counter = snap.update_counter;
        self.rec = snap.recorder;
        Ok((snap.next_episode, snap.workers))
    }

    /// The wave loop. Returns whether every episode ran (`false` after an
    /// injected kill).
    fn train(&mut self, start: usize) -> Result<bool, TrainError> {
        let worlds = self.host.world_count();
        let mut completed = start;
        let mut views = vec![WorldView::default(); worlds];
        // (reward sum, speed sum, steps) of each world's running episode.
        let mut episode = vec![(0.0f32, 0.0f32, 0usize); worlds];
        while completed < self.opts.episodes {
            if self.kill_check(completed) {
                return Ok(false);
            }
            let live = match self.host.live_worlds() {
                Ok(live) => live,
                Err(FleetLost) => return Err(self.fleet_lost(Some(completed))),
            };
            let mut wave = live.len().min(self.opts.episodes - completed);
            if let Some(k) = self.ckpt.fault_plan.kill_episode() {
                if k > completed {
                    wave = wave.min(k - completed);
                }
            }
            if self.ckpt.every > 0 {
                wave = wave.min(self.ckpt.every - completed % self.ckpt.every);
            }
            let wave_no = completed as u64;
            let wave_t0 = Instant::now();
            telemetry::flight_event(FlightEventKind::WaveDispatched {
                wave: wave_no,
                worlds: wave as u64,
            });
            let mut running = Vec::with_capacity(wave);
            for (g, view) in self.host.reset(&live[..wave], completed) {
                views[g] = view;
                episode[g] = (0.0, 0.0, 0);
                self.cursors[g].begin_episode();
                running.push(g);
            }
            if running.is_empty() {
                // Every reset failed: heal the fleet and plan the wave again.
                continue;
            }
            let wave_episodes = running.len() as u64;
            while !running.is_empty() {
                // The rollout span covers deciding, stepping, and recording;
                // an update between two worlds' records closes it.
                let mut rollout = Some(telemetry::span("rollout"));
                let logits = self.batch_logits(&running, &views);
                let mut commands = Vec::with_capacity(running.len());
                for (pos, &g) in running.iter().enumerate() {
                    commands.push(self.team.decide_in_with_logits(
                        &mut self.cursors[g],
                        &self.shape.track,
                        &self.shape.learners,
                        self.shape.vehicles,
                        &views[g].states,
                        &views[g].observations,
                        logits.get(pos).map_or(&[][..], Vec::as_slice),
                        &mut self.rng,
                        true,
                    ));
                }
                let replies = match self.host.step(&running, commands) {
                    Ok(replies) => replies,
                    Err(FleetLost) => {
                        drop(rollout);
                        return Err(self.fleet_lost(None));
                    }
                };
                let mut still = Vec::with_capacity(running.len());
                for (&g, reply) in running.iter().zip(replies) {
                    // An abandoned world's episode is re-run as a fresh one.
                    let Some(reply) = reply else { continue };
                    if rollout.is_none() {
                        rollout = Some(telemetry::span("rollout"));
                    }
                    self.team.record_in(
                        &mut self.cursors[g],
                        &self.shape.track,
                        &self.shape.learners,
                        &reply.view.states,
                        &views[g].observations,
                        &reply.rewards,
                        &reply.view.observations,
                        reply.done,
                    );
                    let learners = &self.shape.learners;
                    let ep = &mut episode[g];
                    ep.0 += learners.iter().map(|&v| reply.rewards[v]).sum::<f32>()
                        / learners.len() as f32;
                    ep.1 += reply.mean_speed;
                    ep.2 += 1;
                    self.step_counter += 1;
                    if self.step_counter % self.opts.update_every == 0 {
                        rollout = None;
                        self.update();
                    }
                    views[g] = reply.view;
                    if reply.done {
                        completed += 1;
                        self.episodes_run += 1;
                        telemetry::counter_add("episodes", 1);
                        telemetry::progress(&format!("ep {completed}"));
                        let (reward, speed, steps) = episode[g];
                        let flags = self.host.flags(g);
                        let learners = &self.shape.learners;
                        record_episode(&mut self.rec, learners, &flags, reward, speed, steps);
                    } else {
                        still.push(g);
                    }
                }
                running = still;
            }
            telemetry::flight_event(FlightEventKind::WaveCompleted {
                wave: wave_no,
                episodes: wave_episodes,
            });
            if !telemetry::disabled() {
                telemetry::live_observe("live/wave_us", wave_t0.elapsed().as_secs_f64() * 1e6);
            }
            if self.ckpt.every > 0 && completed.is_multiple_of(self.ckpt.every) {
                self.save_checkpoint(completed);
            }
        }
        Ok(true)
    }

    /// Honors a `kill@ep:N` fault: `true` when the run must stop here.
    fn kill_check(&self, episode: usize) -> bool {
        if !self.ckpt.fault_plan.should_kill(episode) {
            return false;
        }
        telemetry::counter_add("checkpoint/fault_kill", 1);
        telemetry::flight_event(FlightEventKind::KillInjected {
            episode: episode as u64,
        });
        telemetry::mark_faulted();
        let _ = telemetry::flush();
        match self.ckpt.kill_mode {
            KillMode::Exit => std::process::exit(137),
            KillMode::Return => true,
        }
    }

    /// Policy logits for every agent that selects an option in more than
    /// one running world, from one batched forward pass per agent;
    /// `logits[pos][k]` belongs to `running[pos]`. Empty when one world
    /// runs (the scalar path decides it).
    fn batch_logits(&self, running: &[usize], views: &[WorldView]) -> Vec<Vec<Option<Vec<f32>>>> {
        if running.len() < 2 {
            return Vec::new();
        }
        let agents = self.team.agents();
        let mut logits = vec![vec![None; agents.len()]; running.len()];
        for (k, agent) in agents.iter().enumerate() {
            let v = self.shape.learners[k];
            let sel: Vec<usize> = (0..running.len())
                .filter(|&pos| {
                    self.cursors[running[pos]].agents()[k]
                        .current_option()
                        .is_none()
                })
                .collect();
            if sel.len() < 2 {
                continue;
            }
            let rows_owned: Vec<Vec<f32>> = sel
                .iter()
                .map(|&pos| views[running[pos]].observations[v].high_vec())
                .collect();
            let rows: Vec<&[f32]> = rows_owned.iter().map(Vec::as_slice).collect();
            for (row, &pos) in agent.batch_logits(&rows).into_iter().zip(&sel) {
                logits[pos][k] = Some(row);
            }
        }
        logits
    }

    /// One learning pass over the team (call after counting the step).
    fn update(&mut self) {
        let _update = telemetry::span("update");
        let live_t0 = (!telemetry::disabled()).then(Instant::now);
        if self.ckpt.fault_plan.nan_grad_at(self.update_counter) {
            // Poison one gradient so the optimizer watchdog must catch and
            // skip it (counted under watchdog/*).
            if let Some(agent) = self.team.agents_mut().first_mut() {
                agent.poison_gradients();
            }
        }
        self.update_counter += 1;
        if let Some((c, a)) = self.team.update(&mut self.rng) {
            telemetry::counter_add("grad_updates", 1);
            telemetry::observe("critic_loss", c as f64);
            telemetry::observe("actor_loss", a as f64);
            self.rec.push("critic_loss", c);
            self.rec.push("actor_loss", a);
        }
        if let Some(t0) = live_t0 {
            telemetry::live_observe("live/learner_update_us", t0.elapsed().as_secs_f64() * 1e6);
        }
    }

    /// Snapshots the whole trainer at an episode boundary. Returns whether
    /// the snapshot reached disk.
    fn save_checkpoint(&mut self, next_episode: usize) -> bool {
        let Some(store) = self.store.as_mut() else {
            return false;
        };
        self.team.absorb_cursor(&self.cursors[0]);
        // Per-world streams only when several worlds run, so a one-world
        // snapshot is the same bytes whichever host wrote it.
        let workers = (self.cursors.len() > 1).then(|| WorkerStates {
            rngs: (0..self.cursors.len())
                .map(|g| self.host.rng_state(g))
                .collect(),
            last_options: self
                .cursors
                .iter()
                .map(|c| c.last_options().to_vec())
                .collect(),
        });
        let snap = TrainerSnapshot {
            next_episode,
            step_counter: self.step_counter,
            update_counter: self.update_counter,
            trainer_rng: self.rng.state(),
            env_rng: self.host.rng_state(0),
            recorder: self.rec.clone(),
            telemetry: telemetry::export_state(),
            workers,
            kernel_mode: hero_autograd::kernel_mode(),
            team_sections: self.team.save_state(),
        };
        store.save(&snap.to_sections(), &self.ckpt.fault_plan)
    }

    /// The supervision ladder's last rung: no live actor remains. Saves an
    /// emergency checkpoint when at a clean episode boundary (`boundary`
    /// is the next episode); mid-episode state is half-ingested and would
    /// poison a resume, so it is never saved.
    fn fleet_lost(&mut self, boundary: Option<usize>) -> TrainError {
        telemetry::counter_add("supervisor/fleet_lost", 1);
        telemetry::mark_faulted();
        let saved = match boundary {
            Some(next_episode) => self.save_checkpoint(next_episode),
            None => {
                telemetry::counter_add("supervisor/emergency_skipped", 1);
                false
            }
        };
        if saved {
            telemetry::counter_add("supervisor/emergency_saved", 1);
        }
        let episodes_run = self.episodes_run;
        telemetry::flight_event(FlightEventKind::EmergencyCheckpoint {
            episodes: episodes_run as u64,
            saved: saved as u64,
        });
        telemetry::progress(&format!(
            "actor fleet lost after {episodes_run} episode(s); emergency checkpoint {}",
            if saved { "saved" } else { "not saved" }
        ));
        let _ = telemetry::flush();
        TrainError::FleetLost {
            episodes_run,
            emergency_checkpoint_saved: saved,
        }
    }
}

/// Appends one episode's metrics: `reward` (mean per-step learner reward),
/// `collision` (0/1), `success` (merge success rate, only for episodes
/// with a blocked learner), and `mean_speed`.
fn record_episode(
    rec: &mut Recorder,
    learners: &[usize],
    flags: &WorldFlags,
    ep_reward: f32,
    ep_speed: f32,
    steps: usize,
) {
    rec.push("reward", ep_reward / steps.max(1) as f32);
    let collided = learners.iter().any(|&v| flags.collided[v]);
    rec.push("collision", if collided { 1.0 } else { 0.0 });
    let candidates: Vec<usize> = learners
        .iter()
        .copied()
        .filter(|&v| flags.needs_merge[v])
        .collect();
    if !candidates.is_empty() {
        let merged = candidates.iter().filter(|&&v| flags.has_merged[v]).count();
        rec.push("success", merged as f32 / candidates.len() as f32);
    }
    rec.push("mean_speed", ep_speed / steps.max(1) as f32);
}
