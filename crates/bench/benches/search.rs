//! Outer-loop benchmarks: one UNICO MOBO iteration, one NSGA-II
//! generation, a full successive-halving run over a batch of hardware
//! sessions, and four doubling-budget advances on the persistent
//! mapping engine.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico_bench::microbench::MicroBench;
use unico_core::{Unico, UnicoConfig};
use unico_model::{Platform, SpatialPlatform};
use unico_search::sh::{self, ShConfig};
use unico_search::{
    advance_with_engine, run_nsga2, CoSearchEnv, EnvConfig, HwSession, MappingEngine, Nsga2Config,
    Telemetry,
};
use unico_workloads::zoo;

fn env(platform: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
    CoSearchEnv::new(
        platform,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 1,
            power_cap_mw: Some(2000.0),
            area_cap_mm2: None,
        },
    )
}

fn sessions<'e>(
    e: &'e CoSearchEnv<'e, SpatialPlatform>,
    n: usize,
    seed: u64,
) -> Vec<HwSession<'e, SpatialPlatform>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| e.session(e.platform().sample_hw(&mut rng), i as u64))
        .collect()
}

const WORKERS: usize = 8;

fn bench_sh_round(b: &mut MicroBench, e: &CoSearchEnv<'_, SpatialPlatform>) {
    let engine = MappingEngine::new(WORKERS);
    let telemetry = Telemetry::new();
    let mut seed = 0u64;
    b.run("msh_batch8_b64", || {
        seed += 1;
        let mut ss = sessions(e, 8, seed);
        sh::run(&mut ss, &ShConfig::modified(64), &engine, &telemetry, None)
    });
}

/// N=8 sessions through doubling rounds to b_max=64 on a pool spawned
/// once, outside the timed region.
fn bench_engine_rounds(b: &mut MicroBench, e: &CoSearchEnv<'_, SpatialPlatform>) {
    const ROUNDS: [u64; 4] = [8, 16, 32, 64];

    let engine = MappingEngine::new(WORKERS);
    let telemetry = Telemetry::new();
    let mut seed = 0u64;
    b.run("rounds_engine_n8_b64", || {
        seed += 1;
        let mut ss = sessions(e, 8, seed);
        let select = vec![true; 8];
        for budget in ROUNDS {
            advance_with_engine(&engine, &mut ss, &select, budget, None, &telemetry);
        }
    });
}

fn bench_unico_iteration(b: &mut MicroBench, e: &CoSearchEnv<'_, SpatialPlatform>) {
    let mut seed = 0u64;
    b.run("unico_1iter_batch8", || {
        seed += 1;
        Unico::new(UnicoConfig {
            max_iter: 1,
            batch: 8,
            b_max: 64,
            seed,
            candidate_pool: 64,
            ..UnicoConfig::default()
        })
        .run(e)
    });
}

fn bench_nsga_generation(b: &mut MicroBench, e: &CoSearchEnv<'_, SpatialPlatform>) {
    let mut seed = 0u64;
    b.run("nsga2_1gen_pop8", || {
        seed += 1;
        run_nsga2(
            e,
            &Nsga2Config {
                population: 8,
                generations: 1,
                inner_budget: 64,
                seed,
                ..Nsga2Config::default()
            },
        )
    });
}

fn main() {
    let platform = SpatialPlatform::edge();
    let e = env(&platform);
    let mut b = MicroBench::new();
    bench_sh_round(&mut b, &e);
    bench_engine_rounds(&mut b, &e);
    bench_unico_iteration(&mut b, &e);
    bench_nsga_generation(&mut b, &e);
    println!("\n{}", b.to_markdown());
}
