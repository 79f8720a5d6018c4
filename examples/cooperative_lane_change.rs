//! The full two-stage HERO pipeline on the paper's Fig. 6 scenario:
//! vehicle 2's lane is blocked by slow traffic and it must merge in
//! coordination with vehicle 1.
//!
//! Run with: `cargo run --release --example cooperative_lane_change -- [skill_eps] [coop_eps]`

use std::sync::Arc;

use hero::prelude::*;
use hero_baselines::sac::SacConfig;

fn main() {
    let mut args = std::env::args().skip(1);
    let skill_eps: usize = args.next().map(|s| s.parse().unwrap()).unwrap_or(300);
    let coop_eps: usize = args.next().map(|s| s.parse().unwrap()).unwrap_or(150);
    let env_cfg = EnvConfig::default();

    // Stage 1: low-level skills (Algorithm 2).
    println!("stage 1: training low-level skills for {skill_eps} episodes...");
    let (skills, skill_curves) = SkillLibrary::train(
        env_cfg,
        SkillTrainingConfig {
            vision: false,
            episodes: skill_eps,
            updates_per_episode: 2,
            sac: SacConfig {
                batch_size: 64,
                ..SacConfig::default()
            },
        },
        3,
    );
    println!(
        "  driving-in-lane last-50 reward: {:.2}",
        skill_curves.tail_mean("skill/driving-in-lane", 50).unwrap_or(0.0)
    );
    println!(
        "  lane-change     last-50 reward: {:.2}",
        skill_curves.tail_mean("skill/lane-change", 50).unwrap_or(0.0)
    );

    // Stage 2: high-level cooperation with opponent modeling (Algorithm 1).
    println!("\nstage 2: training cooperation for {coop_eps} episodes on the merge scenario...");
    let mut env = hero::sim::scenario::two_vehicle_merge(env_cfg, 3);
    let cfg = HeroConfig {
        batch_size: 64,
        warmup: 64,
        ..HeroConfig::default()
    };
    let mut team = HeroTeam::new(2, env_cfg.high_dim(), Arc::new(skills), cfg, 3);
    let curves = train_team(
        &mut team,
        &mut env,
        &TrainOptions {
            episodes: coop_eps,
            update_every: 4,
            seed: 3,
        },
    );
    let w = (coop_eps / 4).max(1);
    println!(
        "  final window: reward {:.3}, collision rate {:.2}, merge success {:.2}",
        curves.tail_mean("reward", w).unwrap_or(f32::NAN),
        curves.tail_mean("collision", w).unwrap_or(f32::NAN),
        curves.tail_mean("success", w).unwrap_or(f32::NAN),
    );

    // Watch one greedy episode, narrated through each agent's options.
    println!("\none greedy episode, narrated:");
    let mut rng = rand::SeedableRng::seed_from_u64(9);
    let mut obs = env.reset();
    team.begin_episode();
    let mut step = 0;
    while !env.is_done() {
        let cmds = team.decide(&env, &obs, &mut rng, false);
        let options: Vec<String> = team
            .cursor()
            .agents()
            .iter()
            .map(|a| {
                a.current_option()
                    .map(|o| o.to_string())
                    .unwrap_or_else(|| "-".into())
            })
            .collect();
        let out = env.step(&cmds);
        team.record(&env, &obs, &out.rewards, &out.observations, out.done);
        println!(
            "  step {step:>2}: v1={:<12} v2={:<12} reward={:>6.2}",
            options[0], options[1], out.rewards[1]
        );
        obs = out.observations;
        step += 1;
    }
    let merged = env.has_merged(1);
    let collided = env.learner_indices().iter().any(|&v| env.has_collided(v));
    println!(
        "\nepisode outcome: merged={merged}, collision={collided} \
         (more episodes in both stages improve this; see hero-bench for paper scale)"
    );
}
