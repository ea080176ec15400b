//! The tail-percentile rule: report the highest percentile that still
//! leaves at least ten samples beyond it.

use unico_cosearch_bench::stats::{
    checked_percentile, percentile, samples_beyond, tail_percentile, MIN_BEYOND,
};

#[test]
fn p95_needs_two_hundred_samples() {
    assert_eq!(samples_beyond(200, 95), 10);
    assert_eq!(samples_beyond(199, 95), 9);
    assert_eq!(tail_percentile(200), Some(95));
    assert_eq!(tail_percentile(199), Some(94));
    assert_eq!(tail_percentile(1000), Some(99));
}

#[test]
fn small_samples_have_no_tail() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None);
    assert_eq!(tail_percentile(20), Some(50));
    // Thirty MOBO iterations support p66 and no higher.
    assert_eq!(tail_percentile(30), Some(66));
}

#[test]
fn the_chosen_percentile_always_leaves_enough_beyond() {
    for n in 20..2000 {
        let p = tail_percentile(n).expect("n >= 20 has a tail");
        assert!(samples_beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        if p < 99 {
            assert!(
                samples_beyond(n, p + 1) < MIN_BEYOND,
                "n={n}: p{} also qualifies",
                p + 1
            );
        }
    }
}

#[test]
fn checked_percentile_refuses_thin_tails() {
    let v: Vec<f64> = (1..=200).map(f64::from).collect();
    assert_eq!(checked_percentile(&v, 95), Some(190.0));
    assert_eq!(checked_percentile(&v[..199], 95), None);
    assert_eq!(percentile(&v, 50), 100.0);
}
