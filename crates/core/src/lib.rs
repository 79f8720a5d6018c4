//! # hero-core
//!
//! HERO — **H**ierarchical r**E**inforcement learning with **R**einforced
//! **O**pponent modeling — the primary contribution of *"Hierarchical
//! Reinforcement Learning with Opponent Modeling for Distributed
//! Multi-agent Cooperation"* (ICDCS 2022), reproduced in Rust.
//!
//! Each agent's policy is decomposed into:
//!
//! * a **high-level cooperation layer** ([`highlevel::HighLevelLearner`])
//!   selecting discrete options (`keep lane` / `slow down` / `accelerate`
//!   / `lane change`) with a decentralized actor–critic whose actor and
//!   TD target condition on an **opponent model**
//!   ([`opponent::OpponentModel`]) of the other agents' option policies,
//!   and
//! * a **low-level individual-control layer**
//!   ([`skills::SkillLibrary`]) of SAC policies trained with per-option
//!   intrinsic rewards in parallel single-vehicle environments.
//!
//! Options terminate asynchronously per agent ([`options::ActiveOption`],
//! Sec. III-B); completed segments become SMDP transitions with
//! accumulated discounted rewards (`r_{h,t:t+c}`, `γ^c` bootstrap).
//! [`trainer`] drives the paper's two-stage pipeline (Fig. 2) and the
//! greedy evaluation protocol.
//!
//! ## Quickstart
//!
//! ```no_run
//! use std::sync::Arc;
//! use hero_core::config::HeroConfig;
//! use hero_core::skills::{SkillLibrary, SkillTrainingConfig};
//! use hero_core::trainer::{train_team, HeroTeam, TrainOptions};
//! use hero_sim::env::EnvConfig;
//! use hero_sim::scenario;
//!
//! let env_cfg = EnvConfig::default();
//! // Stage 1: learn the low-level skills (Algorithm 2).
//! let (skills, _curves) =
//!     SkillLibrary::train(env_cfg, SkillTrainingConfig::default(), 0);
//! // Stage 2: learn cooperation with opponent modeling (Algorithm 1).
//! let mut env = scenario::congestion(env_cfg, 0);
//! let mut team = HeroTeam::new(3, env_cfg.high_dim(), Arc::new(skills),
//!                              HeroConfig::default(), 0);
//! let curves = train_team(&mut team, &mut env, &TrainOptions::default());
//! println!("final reward: {:?}", curves.tail_mean("reward", 100));
//! ```

#![warn(missing_docs)]

pub mod agent;
pub mod checkpoint;
pub mod config;
mod engine;
pub mod highlevel;
pub mod opponent;
pub mod options;
pub mod rollout;
pub mod skills;
pub mod trainer;

pub use agent::{AgentCursor, HeroAgent};
pub use checkpoint::{CheckpointStore, TrainerSnapshot, WorkerStates};
pub use config::{HeroConfig, TerminationMode};
pub use highlevel::HighLevelLearner;
pub use opponent::OpponentModel;
pub use options::ActiveOption;
pub use rollout::{train_team_actor_learner, RolloutOptions};
pub use skills::{SkillLibrary, SkillTrainingConfig};
pub use trainer::{
    evaluate_team, train_team, train_team_checkpointed, CheckpointConfig, EvalStats, HeroTeam,
    TeamCursor, TrainError, TrainOptions, TrainOutcome,
};
