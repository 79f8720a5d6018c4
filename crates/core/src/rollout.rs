//! The supervised actor fleet: the training loop's host for worlds stepped
//! on dedicated actor threads.
//!
//! [`train_team_actor_learner`] runs the one training loop (the same one
//! [`crate::trainer::train_team_checkpointed`] runs in process) on a
//! fleet host. Each actor owns a seeded [`BatchWorld`] shard and does
//! nothing but reset/step worlds on request; all decisions, replay
//! ingestion, updates, telemetry, and checkpoints happen on the learner
//! thread. Messages flow over bounded channels (backpressure, stall
//! detection via `recv_timeout`).
//!
//! Two modes, selected by [`RolloutOptions::batch_worlds`]:
//!
//! * **Serial** (`batch_worlds == 1`): one world, hosted round-robin
//!   across actors, one episode at a time. The learner owns the world's
//!   environment RNG stream and ships it with every `Reset`, so the run is
//!   **bit-identical to [`crate::trainer::train_team`]** — same metric
//!   series, same telemetry totals, same checkpoint bytes — for any actor
//!   count, and a checkpoint written by either resumes on the other.
//! * **Batched** (`batch_worlds > 1`): `actors × batch_worlds` world
//!   replicas (independent streams via [`hero_sim::env::replica_seed`]),
//!   world `g` pinned to local slot `g % batch_worlds` of actor
//!   `g / batch_worlds`, run waves of episodes concurrently. Batched runs
//!   are self-reproducible (same seeds → same bits, and kill/resume is
//!   bit-identical via the checkpoint `workers` section) but not
//!   step-for-step equal to sequential training: matmul accumulation
//!   order differs across batch shapes and episodes interleave.
//!
//! ## Supervision
//!
//! The host supervises the fleet. Each actor slot keeps its thread's
//! [`JoinHandle`], so a failure is classified at detection time: a
//! `recv_timeout` **timeout** is a stall (`actor/stalled`), a
//! **disconnect** means the thread exited — joining the handle harvests
//! the panic payload (`actor/panicked`). Failed slots climb an escalation
//! ladder:
//!
//! 1. **Respawn** — while `respawns_used < max_respawns`, the slot gets a
//!    fresh thread, shard, and channels after a deterministic exponential
//!    backoff (`respawn_backoff_ms << respawns_used`, capped). Because the
//!    learner owns every world's RNG stream, each episode's start stream,
//!    and the per-episode command log, a world lost mid-episode is
//!    rebuilt bit-identically on a live actor (any actor in serial mode,
//!    the respawned slot in batched mode): reset with the episode-start
//!    stream, replay the logged commands (discarding already-ingested
//!    replies and telemetry), and ingest only the missing reply. Counted
//!    under `actor/respawned` and `actor/replayed_steps`.
//! 2. **Degrade** — a slot that exhausts its budget is retired for good
//!    (`supervisor/degraded`); the run continues on fewer actors, which in
//!    serial mode cannot perturb a single bit of the output. In batched
//!    mode the retired slot's in-flight episodes are abandoned
//!    (`supervisor/abandoned_worlds`) and re-run as fresh episodes.
//! 3. **Abort** — when no live actor remains, the loop writes an
//!    emergency checkpoint if it is at a clean episode boundary, then
//!    fails typed with [`TrainError::FleetLost`] instead of deadlocking or
//!    returning a silent partial run.
//!
//! Fault-plan actor faults (`stall@actor:N`, `panic@actor:N`,
//! `slow@actor:N:MS`) apply to generation 0 of a slot only, so a chaos
//! run's respawned fleet is healthy and the final series, counter totals
//! (ignoring `actor/` and `supervisor/`), and checkpoint bytes match a
//! fault-free twin.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;
use hero_rl::telemetry;
use hero_rl::telemetry::{CapturedEvent, FlightEventKind};
use hero_sim::batch::BatchWorld;
use hero_sim::env::{CooperativeWorld, EnvConfig, LaneChangeEnv, VehicleSpawn};
use hero_sim::vehicle::VehicleCommand;

use crate::engine::{self, FleetLost, Shape, StepReply, WorldFlags, WorldHost, WorldView};
use crate::trainer::{CheckpointConfig, HeroTeam, TrainError, TrainOptions, TrainOutcome};

/// Knobs of the actor/learner rollout engine.
#[derive(Clone, Copy, Debug)]
pub struct RolloutOptions {
    /// Number of actor threads stepping environments.
    pub actors: usize,
    /// World replicas per actor. `1` selects serial mode (bit-identical to
    /// sequential training); `> 1` selects batched mode.
    pub batch_worlds: usize,
    /// Bounded-channel capacity per actor (raised to `batch_worlds` when
    /// smaller, so a full wave of resets never deadlocks).
    pub channel_capacity: usize,
    /// How long the learner waits on an actor before declaring it stalled.
    pub stall_timeout: Duration,
    /// How many times the supervisor respawns a failed actor slot before
    /// retiring it permanently (the escalation ladder's first rung).
    pub max_respawns: usize,
    /// Base of the deterministic exponential respawn backoff
    /// (`respawn_backoff_ms << respawns_used`, capped at 4096 ms). Zero
    /// disables the sleep entirely; the schedule is wall-clock only and
    /// never consulted by any training decision.
    pub respawn_backoff_ms: u64,
}

impl Default for RolloutOptions {
    fn default() -> Self {
        Self {
            actors: 1,
            batch_worlds: 1,
            channel_capacity: 4,
            stall_timeout: Duration::from_secs(30),
            max_respawns: 2,
            respawn_backoff_ms: 10,
        }
    }
}

impl RolloutOptions {
    /// Whether these options ask for anything beyond the plain sequential
    /// loop (more than one actor thread or world replica).
    pub fn is_distributed(&self) -> bool {
        self.actors > 1 || self.batch_worlds > 1
    }
}

enum ToActor {
    /// Reset local world `world`, first seating its RNG stream at `rng`
    /// (the learner owns every stream; actors are stateless compute).
    Reset { world: usize, rng: Vec<u64> },
    /// Step the listed local worlds in one batched `step_worlds` call.
    Step {
        worlds: Vec<usize>,
        commands: Vec<Vec<VehicleCommand>>,
    },
}

/// One stepped world as an actor ships it.
struct WorldStepMsg {
    reply: StepReply,
    flags: WorldFlags,
}

enum FromActor {
    /// The reset world's start state and its RNG stream after the reset.
    ResetDone {
        view: WorldView,
        flags: WorldFlags,
        rng: Vec<u64>,
    },
    /// One result per requested world, in request order.
    StepDone(Vec<WorldStepMsg>),
}

/// A reply plus the telemetry the actor captured while serving it.
type Reply = (FromActor, Vec<CapturedEvent>);

fn view_of(
    shard: &BatchWorld,
    w: usize,
    observations: Vec<hero_sim::env::Observation>,
) -> WorldView {
    let states = (0..shard.num_vehicles())
        .map(|i| shard.vehicle_state(w, i))
        .collect();
    WorldView {
        observations,
        states,
    }
}

fn flags_of(shard: &BatchWorld, w: usize) -> WorldFlags {
    WorldFlags::read(
        shard.num_vehicles(),
        |i| shard.has_collided(w, i),
        |i| shard.needs_merge(w, i),
        |i| shard.has_merged(w, i),
    )
}

/// Fault-plan behavior injected into one actor incarnation. Only
/// generation 0 of a slot ever carries a fault; respawned incarnations
/// are always healthy.
#[derive(Clone, Copy, Debug, Default)]
struct ActorFault {
    stall: bool,
    panic: bool,
    slow_ms: Option<u64>,
}

/// One supervised actor slot: the live incarnation's channels and join
/// handle plus the slot's position on the escalation ladder.
struct ActorSlot {
    tx: channel::Sender<ToActor>,
    rx: channel::Receiver<Reply>,
    /// Taken when the thread is joined (panic harvest or teardown).
    handle: Option<JoinHandle<()>>,
    /// Incarnation counter; generation 0 is the original spawn.
    generation: u64,
    respawns_used: usize,
    /// Permanently degraded: the respawn budget is exhausted and the
    /// supervisor will never revive this slot.
    retired: bool,
}

/// Everything needed to (re)spawn an actor incarnation. Owned data only,
/// so respawned threads are `'static` and outlive any borrow the learner
/// holds.
struct ActorSpawner {
    env_cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    worlds: usize,
    cap: usize,
    capture: bool,
    shutdown: Arc<AtomicBool>,
}

impl ActorSpawner {
    fn spawn(&self, index: usize, generation: u64, fault: ActorFault) -> ActorSlot {
        let (tx_cmd, rx_cmd) = channel::bounded::<ToActor>(self.cap);
        let (tx_res, rx_res) = channel::bounded::<Reply>(self.cap);
        let cfg = self.env_cfg;
        let spawns = self.spawns.clone();
        let (seed, worlds, capture) = (self.seed, self.worlds, self.capture);
        let shutdown = Arc::clone(&self.shutdown);
        let handle = std::thread::Builder::new()
            .name(format!("hero-actor-{index}-gen{generation}"))
            .spawn(move || {
                actor_loop(
                    cfg, spawns, seed, worlds, rx_cmd, tx_res, capture, fault, shutdown,
                )
            })
            // Thread creation fails only when the OS is out of threads or
            // memory, which no training run can recover from.
            .expect("spawn actor thread");
        ActorSlot {
            tx: tx_cmd,
            rx: rx_res,
            handle: Some(handle),
            generation,
            respawns_used: 0,
            retired: false,
        }
    }
}

/// The body of one actor thread: build the world shard, then serve
/// reset/step requests until the command channel closes. Telemetry emitted
/// while serving a request is captured and shipped back for the learner to
/// replay in deterministic order; telemetry from shard construction is
/// captured and discarded (the learner already owns the canonical
/// environment).
#[allow(clippy::too_many_arguments)]
fn actor_loop(
    cfg: EnvConfig,
    spawns: Vec<VehicleSpawn>,
    seed: u64,
    worlds: usize,
    rx: channel::Receiver<ToActor>,
    tx: channel::Sender<Reply>,
    capture: bool,
    fault: ActorFault,
    shutdown: Arc<AtomicBool>,
) {
    if fault.panic {
        // Injected fault: die before serving anything. The learner sees
        // the disconnect and harvests this payload off the join handle.
        panic!("fault plan: injected actor panic");
    }
    if fault.stall {
        // Injected fault: freeze before serving anything, but stay
        // responsive to shutdown so engine teardown cannot deadlock.
        while !shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(Duration::from_millis(2));
        }
        return;
    }
    telemetry::begin_capture();
    let proto = LaneChangeEnv::new(cfg, spawns, seed);
    let mut shard = BatchWorld::replicate(&proto, worlds);
    let _ = telemetry::take_capture();
    while let Ok(msg) = rx.recv() {
        if capture {
            telemetry::begin_capture();
        }
        let reply = match msg {
            ToActor::Reset { world, rng } => {
                shard.set_rng_state(world, &rng);
                let observations = shard.reset_world(world);
                FromActor::ResetDone {
                    view: view_of(&shard, world, observations),
                    flags: flags_of(&shard, world),
                    rng: shard.rng_state(world),
                }
            }
            ToActor::Step { worlds, commands } => {
                let outs = shard.step_worlds(&worlds, &commands);
                let steps = worlds
                    .iter()
                    .zip(outs)
                    .map(|(&w, out)| WorldStepMsg {
                        reply: StepReply {
                            view: view_of(&shard, w, out.observations),
                            rewards: out.rewards,
                            done: out.done,
                            mean_speed: out.mean_speed,
                        },
                        flags: flags_of(&shard, w),
                    })
                    .collect();
                FromActor::StepDone(steps)
            }
        };
        let events = if capture {
            telemetry::take_capture()
        } else {
            Vec::new()
        };
        if let Some(ms) = fault.slow_ms {
            // Injected fault: delay every reply (wall-clock only; the
            // reply bytes are untouched, so data stays bit-identical).
            std::thread::sleep(Duration::from_millis(ms));
        }
        if tx.send((reply, events)).is_err() {
            break;
        }
    }
}

/// Pre-built metric names for the `live/` rollout plane, so the
/// per-step instrumentation sites don't allocate.
struct LiveNames {
    queue_now: Vec<String>,
    queue_depth: Vec<String>,
    blocked_send: Vec<String>,
    heartbeat: Vec<String>,
    util: Vec<String>,
}

impl LiveNames {
    fn new(actors: usize) -> Self {
        let per = |prefix: &str| -> Vec<String> {
            (0..actors).map(|a| format!("{prefix}/actor{a}")).collect()
        };
        Self {
            queue_now: per("live/queue_depth_now"),
            queue_depth: per("live/queue_depth"),
            blocked_send: per("live/blocked_send_us"),
            heartbeat: per("live/heartbeat_s"),
            util: per("live/actor_util"),
        }
    }
}

/// The supervised fleet host: owns the actor threads, their channels, the
/// respawn ladder, every world's environment RNG stream, and the
/// per-episode replay log that rebuilds a world lost mid-episode.
struct FleetHost<'e> {
    /// The caller's environment; its stream continues as world 0's.
    env: &'e mut LaneChangeEnv,
    rollout: RolloutOptions,
    /// One world, placed round-robin per episode (serial mode), instead of
    /// worlds pinned to actor shards (batched mode).
    serial: bool,
    world_rng: Vec<Vec<u64>>,
    /// Each world's stream at the start of its running episode, and the
    /// commands stepped since: enough to replay the episode anywhere.
    ep_rng0: Vec<Vec<u64>>,
    cmd_log: Vec<Vec<Vec<VehicleCommand>>>,
    flags: Vec<WorldFlags>,
    /// The actor hosting each world's running episode.
    host_of: Vec<usize>,
    /// The first episode of the running wave (serial placement).
    episode: usize,
    slots: Vec<ActorSlot>,
    dead: Vec<bool>,
    spawner: ActorSpawner,
    /// Joined at teardown: threads of replaced incarnations that may
    /// still be sleeping on the shutdown flag (stalled generation 0s).
    zombies: Vec<JoinHandle<()>>,
    // The `live/` observability plane: wall-clock process state feeding
    // the metrics exporter and `hero-top`. Never consulted by any
    // training decision, so it cannot perturb determinism.
    engine_start: Instant,
    outstanding: Vec<u64>,
    busy_us: Vec<u64>,
    names: LiveNames,
}

impl<'e> FleetHost<'e> {
    fn spawn(
        env: &'e mut LaneChangeEnv,
        ckpt: &CheckpointConfig,
        rollout: &RolloutOptions,
    ) -> Self {
        let actors = rollout.actors;
        let per_actor = rollout.batch_worlds;
        let serial = per_actor == 1;
        let worlds = if serial { 1 } else { actors * per_actor };
        // World 0 is the caller's env stream (so serial mode continues it
        // exactly); worlds g > 0 get independent replica streams. Replica
        // construction senses each world once purely to read its RNG
        // stream; capture and discard that telemetry, because a resumed
        // run imports the checkpoint's totals (which already counted the
        // original construction) and then rebuilds the replicas again —
        // without the discard its sensor counters would exceed an
        // uninterrupted run's.
        telemetry::begin_capture();
        let world_rng: Vec<Vec<u64>> = (0..worlds)
            .map(|g| {
                if g == 0 {
                    env.rng_state()
                } else {
                    env.replica(g).rng_state()
                }
            })
            .collect();
        let _ = telemetry::take_capture();
        let spawner = ActorSpawner {
            env_cfg: *env.config(),
            spawns: env.spawns().to_vec(),
            seed: env.seed(),
            worlds: per_actor,
            cap: rollout.channel_capacity.max(per_actor).max(1),
            capture: telemetry::is_enabled(),
            shutdown: Arc::new(AtomicBool::new(false)),
        };
        // Generation 0 carries the fault plan's actor faults; respawned
        // incarnations are always healthy.
        let slots = (0..actors)
            .map(|a| {
                let fault = ActorFault {
                    stall: ckpt.fault_plan.stall_actor(a),
                    panic: ckpt.fault_plan.panic_actor(a),
                    slow_ms: ckpt.fault_plan.slow_actor_ms(a),
                };
                spawner.spawn(a, 0, fault)
            })
            .collect();
        Self {
            env,
            rollout: *rollout,
            serial,
            world_rng,
            ep_rng0: vec![Vec::new(); worlds],
            cmd_log: vec![Vec::new(); worlds],
            flags: vec![WorldFlags::default(); worlds],
            host_of: vec![0; worlds],
            episode: 0,
            slots,
            dead: vec![false; actors],
            spawner,
            zombies: Vec::new(),
            engine_start: Instant::now(),
            outstanding: vec![0; actors],
            busy_us: vec![0; actors],
            names: LiveNames::new(actors),
        }
    }

    /// Teardown: wakes any stalled (sleeping) incarnations, closes every
    /// command channel, and joins all threads — current slots and the
    /// zombies left behind by respawns — so no actor outlives the run.
    /// Then advances the caller's env to world 0's stream, so downstream
    /// evaluation behaves exactly as after an in-process run.
    fn shutdown(self) {
        self.spawner.shutdown.store(true, Ordering::Relaxed);
        for slot in self.slots {
            let ActorSlot { tx, rx, handle, .. } = slot;
            drop(tx);
            drop(rx);
            if let Some(h) = handle {
                // An injected panic that was never observed mid-run still
                // surfaces here; the payload is intentionally discarded.
                let _ = h.join();
            }
        }
        for h in self.zombies {
            let _ = h.join();
        }
        self.env.set_rng_state(&self.world_rng[0]);
    }

    /// Local slot of world `g` on its actor's shard.
    fn local(&self, g: usize) -> usize {
        g % self.rollout.batch_worlds
    }

    /// The actor world `g` runs on in its `offset`-th placement, if that
    /// placement exists: serial mode tries every actor round-robin from
    /// the episode index, batched worlds have only their own shard.
    fn placement(&self, g: usize, offset: usize) -> Option<usize> {
        let actors = self.slots.len();
        if self.serial {
            (offset < actors).then(|| (self.episode + offset) % actors)
        } else {
            (offset == 0).then(|| g / self.rollout.batch_worlds)
        }
    }

    fn live_actors(&self) -> usize {
        self.dead.iter().filter(|d| !**d).count()
    }

    fn mark_stalled(&mut self, a: usize) {
        if !self.dead[a] {
            self.dead[a] = true;
            telemetry::counter_add("actor/stalled", 1);
            telemetry::flight_event(FlightEventKind::StallDetected { actor: a as u64 });
            // A stall is a fault: leave the flight recorder behind for
            // post-mortem even when the surviving actors finish the run.
            telemetry::mark_faulted();
            telemetry::progress(&format!("actor {a} stalled; re-dispatching its work"));
        }
    }

    /// Marks actor `a` dead after its reply channel disconnected, joining
    /// the thread to harvest the panic payload (a disconnect means the
    /// thread already exited, so the join cannot block).
    fn mark_disconnected(&mut self, a: usize) {
        if self.dead[a] {
            return;
        }
        self.dead[a] = true;
        let detail = match self.slots[a].handle.take().map(JoinHandle::join) {
            Some(Err(payload)) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_string());
                format!("panicked: {msg}")
            }
            Some(Ok(())) => "exited unexpectedly".to_string(),
            None => "disconnected".to_string(),
        };
        telemetry::counter_add("actor/panicked", 1);
        telemetry::flight_event(FlightEventKind::ActorPanicked { actor: a as u64 });
        telemetry::mark_faulted();
        telemetry::progress(&format!("actor {a} {detail}; harvesting its work"));
    }

    /// The supervisor's ladder, applied to every failed slot: respawn
    /// while budget remains (fresh thread/shard/channels after a
    /// deterministic exponential backoff), else retire the slot for good.
    /// Only called at points where no request is in flight to the slot.
    fn supervise_failed(&mut self) {
        for a in 0..self.slots.len() {
            if !self.dead[a] || self.slots[a].retired {
                continue;
            }
            let used = self.slots[a].respawns_used;
            if used >= self.rollout.max_respawns {
                self.slots[a].retired = true;
                let remaining = self.live_actors() as u64;
                telemetry::counter_add("supervisor/degraded", 1);
                telemetry::flight_event(FlightEventKind::SupervisorDegraded {
                    actor: a as u64,
                    remaining,
                });
                telemetry::progress(&format!(
                    "actor {a} exhausted its respawn budget; \
                     continuing degraded on {remaining} actor(s)"
                ));
                continue;
            }
            let backoff = self
                .rollout
                .respawn_backoff_ms
                .saturating_mul(1u64 << (used as u32).min(12))
                .min(4096);
            if backoff > 0 {
                std::thread::sleep(Duration::from_millis(backoff));
            }
            let generation = self.slots[a].generation + 1;
            let mut fresh = self.spawner.spawn(a, generation, ActorFault::default());
            fresh.respawns_used = used + 1;
            let old = std::mem::replace(&mut self.slots[a], fresh);
            // Dropping the old channels lets a merely-slow thread exit on
            // its next send; a stalled one is still sleeping on the
            // shutdown flag, so park its handle for teardown.
            if let Some(h) = old.handle {
                self.zombies.push(h);
            }
            self.dead[a] = false;
            self.outstanding[a] = 0;
            telemetry::counter_add("actor/respawned", 1);
            telemetry::flight_event(FlightEventKind::ActorRespawned {
                actor: a as u64,
                generation,
            });
            telemetry::progress(&format!("actor {a} respawned (generation {generation})"));
        }
    }

    /// Refreshes the aggregate queue/actor gauges. Only called from
    /// instrumentation sites that already checked a sink is active.
    fn refresh_live_gauges(&self) {
        let mut total = 0u64;
        let mut busy = 0usize;
        for (a, &o) in self.outstanding.iter().enumerate() {
            telemetry::gauge_set(&self.names.queue_now[a], o as f64);
            if !self.dead[a] {
                total += o;
                if o > 0 {
                    busy += 1;
                }
            }
        }
        telemetry::gauge_set("live/queue_depth_total", total as f64);
        telemetry::gauge_set("live/actors_busy", busy as f64);
        telemetry::gauge_set("live/actors_total", self.live_actors() as f64);
    }

    /// Sends a request to actor `a`, timing how long the bounded channel
    /// blocked and maintaining the queue-depth plane. A disconnect marks
    /// the actor dead and returns `false`.
    fn send_to(&mut self, a: usize, msg: ToActor) -> bool {
        let t0 = (!telemetry::disabled()).then(Instant::now);
        let ok = self.slots[a].tx.send(msg).is_ok();
        if let Some(t0) = t0 {
            telemetry::live_observe(
                &self.names.blocked_send[a],
                t0.elapsed().as_secs_f64() * 1e6,
            );
            if ok {
                self.outstanding[a] += 1;
                telemetry::live_observe(&self.names.queue_depth[a], self.outstanding[a] as f64);
            }
            self.refresh_live_gauges();
        }
        if !ok {
            self.mark_disconnected(a);
        }
        ok
    }

    /// Receives one reply from actor `a`. A timeout marks the actor
    /// stalled, a disconnect joins the thread and harvests its panic;
    /// either returns `None`.
    fn recv(&mut self, a: usize) -> Option<Reply> {
        let t0 = (!telemetry::disabled()).then(Instant::now);
        match self.slots[a].rx.recv_timeout(self.rollout.stall_timeout) {
            Ok((reply, events)) => {
                if let Some(t0) = t0 {
                    // The learner's wait for this reply approximates the
                    // actor's busy time (request/reply protocol); its
                    // ratio against engine wall-clock is the utilization
                    // gauge.
                    self.busy_us[a] += t0.elapsed().as_micros() as u64;
                    let elapsed_us = self.engine_start.elapsed().as_micros().max(1) as u64;
                    telemetry::gauge_set(
                        &self.names.util[a],
                        (self.busy_us[a] as f64 / elapsed_us as f64).min(1.0),
                    );
                    telemetry::gauge_set(
                        &self.names.heartbeat[a],
                        telemetry::elapsed_s().unwrap_or_default(),
                    );
                    self.outstanding[a] = self.outstanding[a].saturating_sub(1);
                    self.refresh_live_gauges();
                }
                Some((reply, events))
            }
            Err(channel::RecvTimeoutError::Timeout) => {
                self.mark_stalled(a);
                None
            }
            Err(channel::RecvTimeoutError::Disconnected) => {
                self.mark_disconnected(a);
                None
            }
        }
    }

    fn take_step(&mut self, g: usize, msg: WorldStepMsg) -> StepReply {
        self.flags[g] = msg.flags;
        msg.reply
    }

    /// Rebuilds the running episodes of `group` (worlds that were on a
    /// failed actor) on a live actor: reseat each episode-start stream,
    /// replay the logged commands, and return the replies to the last
    /// logged step — the ones the failure lost. Replies and telemetry of
    /// steps already ingested are discarded. `Ok(None)` abandons the
    /// group (its actor is retired and others survive).
    fn recover(&mut self, group: &[usize]) -> Result<Option<Vec<StepReply>>, FleetLost> {
        loop {
            self.supervise_failed();
            let candidates: Vec<usize> = (0..self.slots.len())
                .filter_map(|offset| self.placement(group[0], offset))
                .filter(|&c| !self.dead[c])
                .collect();
            if candidates.is_empty() {
                if self.live_actors() == 0 {
                    return Err(FleetLost);
                }
                telemetry::counter_add("supervisor/abandoned_worlds", group.len() as u64);
                telemetry::progress(&format!(
                    "abandoning {} in-flight episode(s) of a retired actor",
                    group.len()
                ));
                return Ok(None);
            }
            for c in candidates {
                if let Some(replies) = self.replay_onto(c, group) {
                    return Ok(Some(replies));
                }
            }
            // Every candidate failed while replaying; climb the ladder
            // again (respawn budget permitting) or report the fleet lost.
        }
    }

    /// Replays `group`'s running episodes on actor `c`; `None` when `c`
    /// fails too.
    fn replay_onto(&mut self, c: usize, group: &[usize]) -> Option<Vec<StepReply>> {
        let mut replies = Vec::with_capacity(group.len());
        let mut replayed = 0u64;
        for &g in group {
            let reset = ToActor::Reset {
                world: self.local(g),
                rng: self.ep_rng0[g].clone(),
            };
            if !self.send_to(c, reset) {
                return None;
            }
            // Telemetry of the replayed reset and of every replayed step
            // but the last was ingested with the original replies.
            let Some((FromActor::ResetDone { rng, .. }, _)) = self.recv(c) else {
                return None;
            };
            // The replayed reset must land exactly where the original did
            // — the learner still holds that stream.
            debug_assert_eq!(rng, self.world_rng[g]);
            let steps = self.cmd_log[g].len();
            for i in 0..steps {
                let step = ToActor::Step {
                    worlds: vec![self.local(g)],
                    commands: vec![self.cmd_log[g][i].clone()],
                };
                if !self.send_to(c, step) {
                    return None;
                }
                let Some((FromActor::StepDone(mut msgs), events)) = self.recv(c) else {
                    return None;
                };
                if i + 1 < steps {
                    replayed += 1;
                    continue;
                }
                telemetry::replay(events);
                // A step request naming one world is answered with exactly
                // one world's result.
                let msg = msgs.pop().expect("exactly one world stepped");
                replies.push(self.take_step(g, msg));
            }
            self.host_of[g] = c;
        }
        telemetry::counter_add("actor/replayed_steps", replayed);
        telemetry::flight_event(FlightEventKind::Redispatched {
            actor: c as u64,
            wave: self.episode as u64,
        });
        telemetry::progress(&format!(
            "recovered {} world(s) on actor {c} after replaying {replayed} step(s)",
            group.len()
        ));
        Some(replies)
    }
}

impl WorldHost for FleetHost<'_> {
    fn world_count(&self) -> usize {
        self.world_rng.len()
    }

    fn rng_state(&self, world: usize) -> Vec<u64> {
        self.world_rng[world].clone()
    }

    fn set_rng_state(&mut self, world: usize, state: &[u64]) {
        self.world_rng[world] = state.to_vec();
    }

    fn live_worlds(&mut self) -> Result<Vec<usize>, FleetLost> {
        self.supervise_failed();
        if self.live_actors() == 0 {
            return Err(FleetLost);
        }
        let per_actor = self.rollout.batch_worlds;
        Ok((0..self.world_count())
            .filter(|&g| self.serial || !self.dead[g / per_actor])
            .collect())
    }

    /// Sends every world's reset to its placement, then collects the
    /// replies in send order (deterministic whatever the thread timing).
    /// A world whose actor fails tries its next placement; nothing of an
    /// episode is ingested before its reset succeeds, so retrying is
    /// side-effect free.
    fn reset(&mut self, worlds: &[usize], episode: usize) -> Vec<(usize, WorldView)> {
        self.episode = episode;
        let mut pending = worlds.to_vec();
        let mut started = Vec::with_capacity(worlds.len());
        for offset in 0..self.slots.len() {
            let mut sent = Vec::with_capacity(pending.len());
            for &g in &pending {
                let Some(a) = self.placement(g, offset).filter(|&a| !self.dead[a]) else {
                    continue;
                };
                let msg = ToActor::Reset {
                    world: self.local(g),
                    rng: self.world_rng[g].clone(),
                };
                if self.send_to(a, msg) {
                    sent.push((g, a));
                }
            }
            for (g, a) in sent {
                if self.dead[a] {
                    continue;
                }
                let Some((FromActor::ResetDone { view, flags, rng }, events)) = self.recv(a) else {
                    continue;
                };
                telemetry::replay(events);
                if offset > 0 {
                    // The preferred host was dead or failed: this actor
                    // took the episode over.
                    telemetry::flight_event(FlightEventKind::Redispatched {
                        actor: a as u64,
                        wave: episode as u64,
                    });
                }
                self.ep_rng0[g] = std::mem::replace(&mut self.world_rng[g], rng);
                self.cmd_log[g].clear();
                self.flags[g] = flags;
                self.host_of[g] = a;
                pending.retain(|&p| p != g);
                started.push((g, view));
            }
            if pending.is_empty() {
                break;
            }
        }
        // Ascending: batched worlds have one placement each and serial
        // mode runs one world.
        started
    }

    fn step(
        &mut self,
        worlds: &[usize],
        commands: Vec<Vec<VehicleCommand>>,
    ) -> Result<Vec<Option<StepReply>>, FleetLost> {
        let actors = self.slots.len();
        // Placement is fixed before any reply: recovery may move a world.
        let hosts: Vec<usize> = worlds.iter().map(|&g| self.host_of[g]).collect();
        let mut groups: Vec<(Vec<usize>, Vec<Vec<VehicleCommand>>)> =
            vec![(Vec::new(), Vec::new()); actors];
        for ((&g, &a), cmds) in worlds.iter().zip(&hosts).zip(commands) {
            self.cmd_log[g].push(cmds.clone());
            groups[a].0.push(self.local(g));
            groups[a].1.push(cmds);
        }
        let mut sent = vec![false; actors];
        for (a, (local, commands)) in groups.into_iter().enumerate() {
            if !local.is_empty() {
                sent[a] = self.send_to(
                    a,
                    ToActor::Step {
                        worlds: local,
                        commands,
                    },
                );
            }
        }
        let mut replies: Vec<Option<StepReply>> = worlds.iter().map(|_| None).collect();
        for (a, &sent) in sent.iter().enumerate() {
            let positions: Vec<usize> = (0..worlds.len()).filter(|&i| hosts[i] == a).collect();
            if positions.is_empty() {
                continue;
            }
            let reply = if sent && !self.dead[a] {
                self.recv(a)
            } else {
                None
            };
            if let Some((FromActor::StepDone(msgs), events)) = reply {
                telemetry::replay(events);
                for (&i, msg) in positions.iter().zip(msgs) {
                    replies[i] = Some(self.take_step(worlds[i], msg));
                }
                continue;
            }
            // The host failed mid-episode. Steps already ingested stay
            // valid: the learner owns each episode's start stream and
            // command log, so a fresh shard replays it bit-identically.
            let group: Vec<usize> = positions.iter().map(|&i| worlds[i]).collect();
            if let Some(recovered) = self.recover(&group)? {
                for (&i, reply) in positions.iter().zip(recovered) {
                    replies[i] = Some(reply);
                }
            }
        }
        Ok(replies)
    }

    fn flags(&self, world: usize) -> WorldFlags {
        self.flags[world].clone()
    }
}

/// [`crate::trainer::train_team_checkpointed`] with rollout split across
/// supervised actor threads (see the module docs for the serial/batched
/// contract and the escalation ladder).
///
/// After training, `env`'s RNG stream is advanced to world 0's position
/// and the team's joint last-options vector reflects world 0's cursor, so
/// downstream evaluation behaves exactly as after a sequential run.
///
/// # Errors
///
/// [`TrainError::ResumeRefused`] when `--resume` finds a checkpoint from
/// an incompatible kernel mode, and [`TrainError::FleetLost`] when every
/// actor slot is dead with the respawn budget exhausted.
///
/// # Panics
///
/// Panics when `rollout` asks for no actor or no world per actor.
pub fn train_team_actor_learner(
    team: &mut HeroTeam,
    env: &mut LaneChangeEnv,
    opts: &TrainOptions,
    ckpt: &CheckpointConfig,
    rollout: &RolloutOptions,
) -> Result<TrainOutcome, TrainError> {
    assert!(rollout.actors >= 1, "need at least one actor thread");
    assert!(
        rollout.batch_worlds >= 1,
        "need at least one world per actor"
    );
    let shape = Shape::of(env);
    let mut host = FleetHost::spawn(env, ckpt, rollout);
    let result = engine::run(team, &mut host, shape, opts, ckpt);
    host.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use hero_baselines::sac::SacConfig;
    use hero_rl::metrics::Recorder;
    use hero_sim::env::EnvConfig;
    use hero_sim::scenario;

    use crate::config::HeroConfig;
    use crate::skills::SkillLibrary;
    use crate::trainer::train_team;

    fn fixture(n: usize, env_seed: u64) -> (HeroTeam, LaneChangeEnv) {
        let env_cfg = EnvConfig {
            max_steps: 6,
            ..EnvConfig::default()
        };
        let env = scenario::congestion(env_cfg, env_seed);
        let skills = Arc::new(SkillLibrary::untrained(
            env_cfg,
            SacConfig {
                hidden: 8,
                ..SacConfig::default()
            },
            0,
        ));
        let cfg = HeroConfig {
            hidden: 8,
            batch_size: 8,
            warmup: 8,
            ..HeroConfig::default()
        };
        (HeroTeam::new(n, env_cfg.high_dim(), skills, cfg, 1), env)
    }

    fn series_bits(rec: &Recorder, name: &str) -> Vec<u32> {
        rec.series(name)
            .map(|s| s.iter().map(|v| v.to_bits()).collect())
            .unwrap_or_default()
    }

    #[test]
    fn one_actor_serial_matches_sequential_bitwise() {
        let opts = TrainOptions {
            episodes: 3,
            update_every: 2,
            seed: 9,
        };
        let (mut team_a, mut env_a) = fixture(3, 4);
        let rec_a = train_team(&mut team_a, &mut env_a, &opts);
        let (mut team_b, mut env_b) = fixture(3, 4);
        let out = train_team_actor_learner(
            &mut team_b,
            &mut env_b,
            &opts,
            &CheckpointConfig::default(),
            &RolloutOptions::default(),
        )
        .expect("fault-free run cannot lose its fleet");
        assert!(out.completed);
        assert_eq!(out.episodes_run, 3);
        for name in ["reward", "collision", "mean_speed", "critic_loss"] {
            assert_eq!(
                series_bits(&rec_a, name),
                series_bits(&out.recorder, name),
                "series `{name}` diverged from sequential"
            );
        }
        // The env stream advanced identically, so downstream evaluation
        // stays aligned too.
        assert_eq!(env_a.rng_state(), env_b.rng_state());
    }

    #[test]
    fn batched_mode_is_reproducible_run_to_run() {
        let opts = TrainOptions {
            episodes: 5,
            update_every: 2,
            seed: 3,
        };
        let rollout = RolloutOptions {
            actors: 2,
            batch_worlds: 2,
            ..RolloutOptions::default()
        };
        let run = || {
            let (mut team, mut env) = fixture(3, 11);
            train_team_actor_learner(
                &mut team,
                &mut env,
                &opts,
                &CheckpointConfig::default(),
                &rollout,
            )
            .expect("fault-free run cannot lose its fleet")
        };
        let a = run();
        let b = run();
        assert!(a.completed && b.completed);
        assert_eq!(a.episodes_run, 5);
        for name in ["reward", "collision", "mean_speed", "critic_loss"] {
            assert_eq!(
                series_bits(&a.recorder, name),
                series_bits(&b.recorder, name),
                "series `{name}` not reproducible"
            );
        }
    }
}
