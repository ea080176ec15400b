//! Bit-exact pins of the full-budget baselines and of design
//! validation: HASCO, NSGA-II and `validate_on_network` on a small
//! seeded edge environment must keep producing exactly the fronts,
//! simulated wall clocks and assessments committed under
//! `tests/golden/baseline_fronts.txt`, whichever execution path runs
//! their mapping jobs.
//!
//! On a mismatch the test prints the rendering it computed; after an
//! intentional model change, paste that over the golden file and say
//! why in the change log.

use rand::rngs::StdRng;
use rand::SeedableRng;

use unico::prelude::*;
use unico_core::experiments::validate_on_network;
use unico_search::{run_hasco, run_nsga2, HascoConfig, Nsga2Config};

const GOLDEN: &str = include_str!("golden/baseline_fronts.txt");

fn env(platform: &SpatialPlatform) -> CoSearchEnv<'_, SpatialPlatform> {
    CoSearchEnv::new(
        platform,
        &[zoo::mobilenet_v1()],
        EnvConfig {
            max_layers_per_network: 2,
            power_cap_mw: Some(2_000.0),
            area_cap_mm2: None,
        },
    )
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render_front(name: &str, front: &[Vec<f64>], wall_clock_s: f64, hw_evals: usize) -> String {
    let mut out = format!(
        "{name} hw_evals={hw_evals} wall={} front={}\n",
        bits(wall_clock_s),
        front.len()
    );
    for point in front {
        let row: Vec<String> = point.iter().map(|&v| bits(v)).collect();
        out.push_str(&format!("  {}\n", row.join(" ")));
    }
    out
}

fn render() -> String {
    let platform = SpatialPlatform::edge();
    let e = env(&platform);
    let mut out = String::new();

    let hasco = run_hasco(
        &e,
        &HascoConfig {
            iterations: 8,
            inner_budget: 24,
            candidate_pool: 16,
            warmup: 3,
            seed: 11,
            workers: 2,
        },
    );
    out.push_str(&render_front(
        "hasco",
        &hasco.front.objectives(),
        hasco.wall_clock_s,
        hasco.hw_evals,
    ));

    let nsga = run_nsga2(
        &e,
        &Nsga2Config {
            population: 6,
            generations: 2,
            inner_budget: 24,
            mutation_rate: 0.3,
            seed: 12,
            workers: 2,
        },
    );
    out.push_str(&render_front(
        "nsga2",
        &nsga.front.objectives(),
        nsga.wall_clock_s,
        nsga.hw_evals,
    ));

    let mut rng = StdRng::seed_from_u64(13);
    for i in 0..6u64 {
        let hw = platform.sample_hw(&mut rng);
        let a = validate_on_network(&platform, hw, &zoo::mobilenet_v1(), 2, 24, 100 + i);
        match a {
            Some(a) => out.push_str(&format!(
                "validate {i} {} {} {}\n",
                bits(a.latency_s),
                bits(a.power_mw),
                bits(a.area_mm2)
            )),
            None => out.push_str(&format!("validate {i} infeasible\n")),
        }
    }
    out
}

#[test]
fn baselines_and_validation_match_the_committed_bits() {
    let got = render();
    assert!(
        got == GOLDEN,
        "baseline fronts drifted from tests/golden/baseline_fronts.txt; computed:\n{got}"
    );
}
