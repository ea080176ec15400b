//! Differential tests of kriging-believer batch selection: the memoized
//! path ([`select_batch`], [`GaussianProcess::predict_with`]) against a
//! reference that runs a fresh [`GaussianProcess::predict`] for every
//! unchosen candidate on every pick — the algorithm before per-candidate
//! forward solves were memoized.
//!
//! Picks and every scanned `(mean, variance)` must agree **bitwise**.
//! Cases include pools with exact and near duplicates of training points
//! at tiny noise, so hallucinations hit a non-positive pivot and fall
//! back to a from-scratch refactorization. That rebuild starts a new
//! factor generation, and a memo that ignored it would extend a forward
//! solve computed against the old factor.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unico_surrogate::{
    expected_improvement, select_batch, ucb, AcquisitionKind, GaussianProcess, KernelKind,
    PredictionMemo,
};

/// One generated selection problem.
struct Case {
    gp: GaussianProcess,
    pool: Vec<Vec<f64>>,
    best: f64,
    kind: AcquisitionKind,
    batch: usize,
}

/// Builds a case from `seed`. Noise levels go down to zero, and the
/// pool mixes fresh points with exact and near (`1e-9`) copies of
/// training points and of each other.
fn build_case(seed: u64) -> Case {
    let mut rng = StdRng::seed_from_u64(seed);
    let dim = rng.gen_range(1..4usize);
    let n = rng.gen_range(2..12usize);
    let xs: Vec<Vec<f64>> = (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|x| x.iter().map(|v| (3.0 * v).sin()).sum::<f64>())
        .collect();
    let kind = if rng.gen_bool(0.5) {
        KernelKind::Matern52
    } else {
        KernelKind::SquaredExponential
    };
    let noise = [0.0, 1e-12, 1e-6, 1e-3][rng.gen_range(0..4usize)];
    let length_scale = [0.1, 0.4, 1.5][rng.gen_range(0..3usize)];
    let mut gp = GaussianProcess::new(kind, dim);
    gp.fit_with_hypers(&xs, &ys, length_scale, 1.0, noise)
        .expect("jitter ladder factorizes the training set");

    let pool_len = rng.gen_range(3..24usize);
    let mut pool: Vec<Vec<f64>> = Vec::with_capacity(pool_len);
    while pool.len() < pool_len {
        let p = match rng.gen_range(0..4u32) {
            0 => xs[rng.gen_range(0..n)].clone(),
            1 => xs[rng.gen_range(0..n)].iter().map(|v| v + 1e-9).collect(),
            2 if !pool.is_empty() => pool[rng.gen_range(0..pool.len())].clone(),
            _ => (0..dim).map(|_| rng.gen_range(0.0..1.0)).collect(),
        };
        pool.push(p);
    }
    let best = ys.iter().copied().fold(f64::INFINITY, f64::min);
    let kind = if rng.gen_bool(0.5) {
        AcquisitionKind::ExpectedImprovement
    } else {
        AcquisitionKind::LowerConfidenceBound {
            beta: [0.0, 0.5, 2.0][rng.gen_range(0..3usize)],
        }
    };
    let batch = rng.gen_range(1..pool_len + 2);
    Case {
        gp,
        pool,
        best,
        kind,
        batch,
    }
}

fn score(kind: AcquisitionKind, mean: f64, var: f64, best: f64) -> f64 {
    match kind {
        AcquisitionKind::ExpectedImprovement => expected_improvement(mean, var, best),
        AcquisitionKind::LowerConfidenceBound { beta } => ucb(mean, var, beta),
    }
}

/// What one kriging-believer run saw: its picks, every scanned
/// prediction as bit patterns, and how many hallucinations rebuilt the
/// factor from scratch.
#[derive(Debug, PartialEq)]
struct Trace {
    picks: Vec<usize>,
    scans: Vec<(usize, u64, u64)>,
    rebuilds: usize,
}

/// Kriging believer with either a fresh `predict` per candidate per pick
/// (`memoized == false`, the reference) or one memo per candidate kept
/// across picks.
fn run(case: &Case, memoized: bool) -> Trace {
    let mut gp = case.gp.clone();
    let mut memos: Vec<PredictionMemo<'_>> =
        case.pool.iter().map(|x| PredictionMemo::new(x)).collect();
    let mut trace = Trace {
        picks: Vec::new(),
        scans: Vec::new(),
        rebuilds: 0,
    };
    for _ in 0..case.batch.min(case.pool.len()) {
        let mut winner = None;
        let mut best_score = f64::NEG_INFINITY;
        for (i, memo) in memos.iter_mut().enumerate() {
            if trace.picks.contains(&i) {
                continue;
            }
            let (mean, var) = if memoized {
                gp.predict_with(memo)
            } else {
                gp.predict(&case.pool[i])
            };
            trace.scans.push((i, mean.to_bits(), var.to_bits()));
            let s = score(case.kind, mean, var, case.best);
            if s > best_score {
                best_score = s;
                winner = Some(i);
            }
        }
        let idx = winner.expect("pool larger than chosen set");
        trace.picks.push(idx);
        let (mean, _) = gp.predict(&case.pool[idx]);
        let noise = gp.noise();
        let _ = gp.hallucinate(case.pool[idx].clone(), mean);
        // An append keeps the noise; only the jitter ladder raises it.
        if gp.noise() != noise {
            trace.rebuilds += 1;
        }
    }
    trace
}

fn check(seed: u64) -> usize {
    let case = build_case(seed);
    let reference = run(&case, false);
    let memoized = run(&case, true);
    assert_eq!(memoized, reference, "memoized scan diverged (seed {seed})");
    let picks = select_batch(
        case.gp.clone(),
        &case.pool,
        case.best,
        case.kind,
        case.batch,
    );
    assert_eq!(
        picks, reference.picks,
        "select_batch diverged (seed {seed})"
    );
    reference.rebuilds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `select_batch` picks, and every memoized `(mean, variance)`,
    /// match the fresh-predict reference bit for bit.
    #[test]
    fn memoized_selection_matches_fresh_predict(seed in 0u64..u64::MAX) {
        check(seed);
    }
}

/// The generated cases really do exercise the from-scratch fallback, so
/// the property above covers memo invalidation and not only appends.
#[test]
fn refactor_fallback_is_exercised() {
    let rebuilds: usize = (0..64).map(check).sum();
    assert!(rebuilds > 0, "no case hit the jitter-ladder fallback");
}

/// A memo outlives a full refit and a clone's divergent hallucination:
/// both re-solve from zero and still agree with a fresh `predict`.
#[test]
fn memo_survives_refit_and_clone() {
    let xs = vec![vec![0.1, 0.2], vec![0.7, 0.4], vec![0.4, 0.9]];
    let ys = vec![0.3, -0.2, 0.5];
    let x = vec![0.5, 0.5];
    let mut gp = GaussianProcess::new(KernelKind::Matern52, 2);
    gp.fit_with_hypers(&xs, &ys, 0.4, 1.0, 1e-4).unwrap();
    let mut memo = PredictionMemo::new(&x);
    let same = |a: (f64, f64), b: (f64, f64)| {
        a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits()
    };

    assert!(same(gp.predict_with(&mut memo), gp.predict(&x)));
    let mut other = gp.clone();
    gp.hallucinate(vec![0.45, 0.55], 0.0).unwrap();
    other.hallucinate(vec![0.9, 0.1], 1.0).unwrap();
    assert!(same(gp.predict_with(&mut memo), gp.predict(&x)));
    assert!(same(other.predict_with(&mut memo), other.predict(&x)));
    assert!(same(gp.predict_with(&mut memo), gp.predict(&x)));

    let mut rng = StdRng::seed_from_u64(9);
    gp.fit(&xs[..2], &ys[..2], &mut rng).unwrap();
    assert!(same(gp.predict_with(&mut memo), gp.predict(&x)));
}
