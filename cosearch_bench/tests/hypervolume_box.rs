//! Fixed-box hypervolume normalisation: the box, not the run, sets the
//! scale, so fronts compare across runs and seeds.

use unico_cosearch_bench::stats::RefBox;

fn unit_box() -> RefBox {
    RefBox {
        lo: [0.0, 0.0, 0.0],
        hi: [1.0, 1.0, 1.0],
    }
}

#[test]
fn box_corners_give_zero_and_one() {
    let b = RefBox {
        lo: [0.0, 100.0, 1.0],
        hi: [0.1, 2100.0, 5.0],
    };
    assert_eq!(b.hypervolume(&[vec![0.0, 100.0, 1.0]]), 1.0);
    assert_eq!(b.hypervolume(&[vec![0.1, 2100.0, 5.0]]), 0.0);
    let mid = b.hypervolume(&[vec![0.05, 1100.0, 3.0]]);
    assert!((mid - 0.125).abs() < 1e-12, "{mid}");
}

#[test]
fn points_outside_the_box_add_nothing_and_below_it_clamp() {
    let b = unit_box();
    let inside = vec![0.5, 0.5, 0.5];
    let base = b.hypervolume(std::slice::from_ref(&inside));
    let with_outside = b.hypervolume(&[inside.clone(), vec![2.0, 0.1, 0.1]]);
    assert_eq!(base, with_outside);
    assert_eq!(b.hypervolume(&[vec![-1.0, -3.0, 0.0]]), 1.0);
}

#[test]
fn normalisation_is_scale_free() {
    let front = vec![
        vec![0.2, 0.7, 0.4],
        vec![0.6, 0.1, 0.5],
        vec![0.3, 0.3, 0.9],
    ];
    let hv = unit_box().hypervolume(&front);
    let scale = [0.05, 2000.0, 8.0];
    let scaled: Vec<Vec<f64>> = front
        .iter()
        .map(|y| y.iter().zip(scale).map(|(v, s)| v * s).collect())
        .collect();
    let b = RefBox {
        lo: [0.0; 3],
        hi: scale,
    };
    assert!((b.hypervolume(&scaled) - hv).abs() < 1e-12);
}

#[test]
fn knee_is_the_point_nearest_the_utopia_corner() {
    let b = RefBox {
        lo: [0.0; 3],
        hi: [1.0, 1000.0, 1.0],
    };
    let front = vec![
        vec![0.1, 900.0, 0.1],
        vec![0.3, 300.0, 0.3],
        vec![0.9, 10.0, 0.9],
    ];
    assert_eq!(b.knee(&front), Some(&front[1][..]));
    assert_eq!(b.knee(&[]), None);
}
