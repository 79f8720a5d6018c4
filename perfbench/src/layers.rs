//! Standalone per-layer timings at each training workload's minibatch:
//! one opponent-model and one high-level update, one Adam step, and every
//! GEMM shape a learner update runs.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hero_autograd::nn::{Activation, Mlp, Module};
use hero_autograd::optim::{Adam, Optimizer};
use hero_autograd::{matmul_into, matmul_nt_into, matmul_tn_into, Tensor};
use hero_core::{HighLevelLearner, OpponentModel};
use hero_rl::transition::OptionTransition;
use hero_sim::options::DrivingOption;

use crate::report::Report;
use crate::setup::{self, sub_seed};
use crate::stats::median;

/// Calls `f` repeatedly for at least `budget` (and at least 5 times) and
/// returns the median call time in microseconds.
pub fn time_us(budget: Duration, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and arenas
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&samples)
}

/// A GEMM as the autograd kernels see it: `nn` is `A·B`, `nt` is `A·Bᵀ`
/// (input gradients), `tn` is `Aᵀ·B` (weight gradients); the output is
/// `m × n` with inner dimension `k`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Gemm {
    pub layout: &'static str,
    pub m: usize,
    pub k: usize,
    pub n: usize,
}

/// Every GEMM shape one learner update runs at minibatch `batch`: the
/// forward pass of each layer of the opponent, actor and critic networks
/// (`[in, hidden, hidden, out]` MLPs), the input gradient of every layer
/// but the first, and the weight gradient of every layer.
pub fn update_gemms(
    batch: usize,
    obs_dim: usize,
    hidden: usize,
    n_options: usize,
    n_opponents: usize,
) -> Vec<Gemm> {
    let opp = n_opponents * n_options;
    let nets = [
        [obs_dim, hidden, hidden, n_options],           // opponent model
        [obs_dim + opp, hidden, hidden, n_options],     // actor
        [obs_dim + n_options + opp, hidden, hidden, 1], // critic
    ];
    let mut shapes = BTreeSet::new();
    for dims in nets {
        for (layer, w) in dims.windows(2).enumerate() {
            let (fan_in, fan_out) = (w[0], w[1]);
            shapes.insert(Gemm {
                layout: "nn",
                m: batch,
                k: fan_in,
                n: fan_out,
            });
            if layer > 0 {
                shapes.insert(Gemm {
                    layout: "nt",
                    m: batch,
                    k: fan_out,
                    n: fan_in,
                });
            }
            shapes.insert(Gemm {
                layout: "tn",
                m: fan_in,
                k: batch,
                n: fan_out,
            });
        }
    }
    shapes.into_iter().collect()
}

fn time_gemm(g: Gemm, rng: &mut StdRng) -> f64 {
    let (a_shape, b_shape) = match g.layout {
        "nn" => (vec![g.m, g.k], vec![g.k, g.n]),
        "nt" => (vec![g.m, g.k], vec![g.n, g.k]),
        _ => (vec![g.k, g.m], vec![g.k, g.n]),
    };
    let a = Tensor::uniform(a_shape, -1.0, 1.0, rng);
    let b = Tensor::uniform(b_shape, -1.0, 1.0, rng);
    let mut out = Vec::new();
    let kernel = match g.layout {
        "nn" => matmul_into,
        "nt" => matmul_nt_into,
        _ => matmul_tn_into,
    };
    time_us(Duration::from_millis(40), || {
        kernel(std::hint::black_box(&a), std::hint::black_box(&b), &mut out);
        std::hint::black_box(&out);
    })
}

fn random_obs(rng: &mut StdRng, d: usize) -> Vec<f32> {
    (0..d).map(|_| rng.gen_range(0.0..1.0)).collect()
}

pub fn standalone(seed: u64, report: &mut Report) {
    let env_cfg = setup::env_config();
    let d = env_cfg.high_dim();
    let n_opt = DrivingOption::COUNT;
    let n_opp = setup::N_AGENTS - 1;
    for batch in [setup::TABLE1_BATCH, setup::FLEET_BATCH] {
        let cfg = setup::hero_config(batch);
        let mut rng = StdRng::seed_from_u64(sub_seed(seed, 30_000 + batch as u64));
        let mut opponent = OpponentModel::new(
            n_opp,
            d,
            n_opt,
            cfg.hidden,
            cfg.lr,
            cfg.opponent_entropy_weight,
            cfg.buffer_capacity,
            batch,
            &mut rng,
        );
        let mut high = HighLevelLearner::new(d, n_opt, n_opp, &cfg, &mut rng);
        for _ in 0..2 * batch {
            let options: Vec<usize> = (0..n_opp).map(|_| rng.gen_range(0..n_opt)).collect();
            opponent.observe(random_obs(&mut rng, d), options.clone());
            high.store(OptionTransition {
                obs: random_obs(&mut rng, d),
                option: rng.gen_range(0..n_opt),
                other_options: options,
                reward: rng.gen_range(-1.0..1.0),
                duration: rng.gen_range(1..cfg.lane_change_budget + 1),
                next_obs: random_obs(&mut rng, d),
                done: rng.gen_range(0..10) == 0,
            });
        }
        let ob = opponent
            .sample_batch(&mut rng)
            .expect("opponent buffer holds a minibatch");
        let hb = high
            .sample_batch(&mut rng)
            .expect("high-level buffer holds a minibatch");
        let budget = Duration::from_millis(150);
        let us = time_us(budget, || {
            std::hint::black_box(opponent.update_batch(&ob));
        });
        report.metric(format!("b{batch}.opponent.update_batch_us"), us, "us");
        let us = time_us(budget, || {
            std::hint::black_box(high.update_batch(&hb, &opponent));
        });
        report.metric(format!("b{batch}.highlevel.update_batch_us"), us, "us");
        for g in update_gemms(batch, d, cfg.hidden, n_opt, n_opp) {
            let us = time_gemm(g, &mut rng);
            report.metric(
                format!("autograd.gemm.{}.{}x{}x{}_us", g.layout, g.m, g.k, g.n),
                us,
                "us",
            );
        }
    }
    let cfg = setup::hero_config(setup::TABLE1_BATCH);
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 80));
    let critic = Mlp::new(
        "critic",
        &[d + n_opt + n_opp * n_opt, cfg.hidden, cfg.hidden, 1],
        Activation::Relu,
        &mut rng,
    );
    let mut adam = Adam::new(critic.parameters(), cfg.lr);
    let us = time_us(Duration::from_millis(100), || adam.step());
    report.metric("autograd.adam_step_us", us, "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_gemms_cover_forward_and_both_gradients() {
        // One [2, 3, 3, 1] critic-like net and friends at batch 5: every
        // forward is `nn` with m = batch, every weight gradient is `tn`
        // with k = batch, and the first layer has no input gradient.
        let shapes = update_gemms(5, 2, 3, 1, 0);
        let fmt: Vec<String> = shapes
            .iter()
            .map(|g| format!("{}.{}x{}x{}", g.layout, g.m, g.k, g.n))
            .collect();
        // Networks: opponent [2,3,3,1], actor [2,3,3,1], critic [3,3,3,1].
        assert_eq!(
            fmt,
            vec![
                "nn.5x2x3", "nn.5x3x1", "nn.5x3x3", "nt.5x1x3", "nt.5x3x3", "tn.2x5x3", "tn.3x5x1",
                "tn.3x5x3",
            ]
        );
    }
}
