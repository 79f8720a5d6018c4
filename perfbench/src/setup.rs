//! Shared set-up: the Table I team in the congestion scenario, its
//! stage-1 skills, and the rollout-only replay fill that puts every agent
//! past warm-up before a timed step runs.

use std::sync::Arc;
use std::time::Instant;

use hero_baselines::sac::SacConfig;
use hero_core::skills::{SkillLibrary, SkillTrainingConfig};
use hero_core::trainer::{train_team, HeroTeam, TrainOptions};
use hero_core::HeroConfig;
use hero_sim::env::{CooperativeWorld, EnvConfig, LaneChangeEnv};
use hero_sim::scenario;

/// Learners in the congestion scenario (Fig. 9).
pub const N_AGENTS: usize = 3;
/// Stage-1 skill episodes trained in every set-up.
pub const SKILL_EPISODES: usize = 300;
/// Skill minibatch, as in the experiment binaries' defaults.
pub const SKILL_BATCH: usize = 128;
/// Table I minibatch; one learner update per environment step.
pub const TABLE1_BATCH: usize = 1024;
/// The experiment binaries' default minibatch and update cadence, used by
/// the actor/learner workload.
pub const FLEET_BATCH: usize = 128;
pub const FLEET_UPDATE_EVERY: usize = 4;
pub const FLEET_ACTORS: usize = 2;
pub const FLEET_WORLDS_PER_ACTOR: usize = 8;
/// Episodes per `train_team_actor_learner` call: two waves of all worlds.
pub const FLEET_EPISODES_PER_CALL: usize = 2 * FLEET_ACTORS * FLEET_WORLDS_PER_ACTOR;
/// A fill that has not reached warm-up after this many episodes is a
/// fault, not a slow set-up.
const MAX_FILL_EPISODES: usize = 2_000;

/// Derives an independent seed for one use of the run's `--seed`.
pub fn sub_seed(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(tag.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

pub fn env_config() -> EnvConfig {
    EnvConfig::default()
}

/// Table I hyper-parameters at minibatch `batch`, with warm-up clamped to
/// one minibatch exactly as the experiment binaries build HERO.
pub fn hero_config(batch: usize) -> HeroConfig {
    let d = HeroConfig::default();
    HeroConfig {
        batch_size: batch,
        warmup: d.warmup.min(batch),
        ..d
    }
}

/// Trains the stage-1 skill library (Algorithm 2) and returns it with the
/// seconds it took.
pub fn train_skills(seed: u64) -> (Arc<SkillLibrary>, f64) {
    let defaults = SacConfig::default();
    let sac = SacConfig {
        batch_size: SKILL_BATCH,
        warmup: defaults.warmup.min(SKILL_BATCH),
        ..defaults
    };
    let t = Instant::now();
    let (lib, _) = SkillLibrary::train(
        env_config(),
        SkillTrainingConfig {
            vision: false,
            episodes: SKILL_EPISODES,
            updates_per_episode: 2,
            sac,
        },
        sub_seed(seed, 1),
    );
    (Arc::new(lib), t.elapsed().as_secs_f64())
}

/// A team ready for timed training: skills trained, buffers past warm-up.
pub struct Trainee {
    pub team: HeroTeam,
    pub env: LaneChangeEnv,
    pub skills: Arc<SkillLibrary>,
    pub cfg: HeroConfig,
    pub seed: u64,
    pub skills_s: f64,
}

impl Trainee {
    /// Trains skills, builds the team at minibatch `batch`, and fills the
    /// replay buffers with rollout-only episodes (no learner update) until
    /// every agent's high-level and opponent-model buffers can serve a
    /// minibatch.
    pub fn set_up(batch: usize, seed: u64) -> Result<Trainee, String> {
        let (skills, skills_s) = train_skills(seed);
        let cfg = hero_config(batch);
        let env_cfg = env_config();
        let team = HeroTeam::new(
            N_AGENTS,
            env_cfg.high_dim(),
            skills.clone(),
            cfg,
            sub_seed(seed, 2),
        );
        let env = scenario::congestion(env_cfg, sub_seed(seed, 3));
        let mut t = Trainee {
            team,
            env,
            skills,
            cfg,
            seed,
            skills_s,
        };
        t.fill()?;
        Ok(t)
    }

    fn past_warmup(&self) -> bool {
        let batch = self.cfg.batch_size;
        self.team
            .agents()
            .iter()
            .all(|a| a.buffer_len() >= batch && a.opponent_model().buffer_len() >= batch.min(64))
    }

    fn fill(&mut self) -> Result<(), String> {
        let mut episodes = 0;
        while !self.past_warmup() {
            if episodes == MAX_FILL_EPISODES {
                return Err(format!(
                    "replay buffers not past warm-up after {episodes} episodes"
                ));
            }
            let opts = TrainOptions {
                episodes: 1,
                update_every: usize::MAX,
                seed: sub_seed(self.seed, 1_000 + episodes as u64),
            };
            train_team(&mut self.team, &mut self.env, &opts);
            episodes += 1;
        }
        Ok(())
    }

    /// A second team and world in exactly this one's state (weights,
    /// optimizers, replay buffers, exploration counters, world RNG).
    pub fn twin(&self) -> Result<(HeroTeam, LaneChangeEnv), String> {
        let env_cfg = env_config();
        let mut team = HeroTeam::new(
            N_AGENTS,
            env_cfg.high_dim(),
            self.skills.clone(),
            self.cfg,
            sub_seed(self.seed, 2),
        );
        team.load_state(&self.team.save_state())
            .map_err(|e| format!("twin load_state: {e}"))?;
        let mut env = scenario::congestion(env_cfg, sub_seed(self.seed, 3));
        env.set_rng_state(&self.env.rng_state());
        Ok((team, env))
    }
}

/// Environment steps recorded so far: every step feeds each agent's
/// opponent model exactly one sample, so agent 0's buffer length counts
/// steps until the buffer wraps.
pub fn steps_recorded(team: &HeroTeam) -> Result<usize, String> {
    let len = team.agents()[0].opponent_model().buffer_len();
    if len >= HeroConfig::default().buffer_capacity {
        return Err("opponent-model buffer is full; it no longer counts steps".into());
    }
    Ok(len)
}
