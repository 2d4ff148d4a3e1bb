//! Randomized invariants across the workspace, driven by the in-repo
//! [`Rng`]: tensor algebra laws, replay-buffer semantics, STMixup
//! convexity, augmentation shape preservation and normalizer
//! round-trips. Each property runs over a deterministic seed sweep so
//! failures reproduce exactly.

use urcl::core::{st_mixup, Augmentation, ReplayBuffer};
use urcl::graph::random_geometric;
use urcl::stdata::{stack_samples, Normalizer, Sample};
use urcl::tensor::{Rng, Tensor};

/// Number of randomized cases per property (matches the old proptest
/// configuration).
const CASES: u64 = 64;

fn small_vec(rng: &mut Rng, len: usize) -> Vec<f32> {
    (0..len).map(|_| rng.uniform_range(-10.0, 10.0)).collect()
}

// ------------------------------------------------------ tensor laws

#[test]
fn tensor_add_commutes() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(100 + case);
        let a = small_vec(&mut rng, 12);
        let b = small_vec(&mut rng, 12);
        let ta = Tensor::from_vec(a, &[3, 4]);
        let tb = Tensor::from_vec(b, &[3, 4]);
        assert_eq!(ta.add(&tb), tb.add(&ta));
    }
}

#[test]
fn tensor_matmul_identity() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(200 + case);
        let t = Tensor::from_vec(small_vec(&mut rng, 16), &[4, 4]);
        let i = Tensor::eye(4);
        let left = i.matmul(&t);
        let right = t.matmul(&i);
        for (x, y) in left.data().iter().zip(t.data()) {
            assert!((x - y).abs() < 1e-4);
        }
        for (x, y) in right.data().iter().zip(t.data()) {
            assert!((x - y).abs() < 1e-4);
        }
    }
}

#[test]
fn tensor_transpose_involution() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(300 + case);
        let t = Tensor::from_vec(small_vec(&mut rng, 24), &[4, 6]);
        assert_eq!(t.transpose(0, 1).transpose(0, 1), t);
    }
}

#[test]
fn tensor_softmax_is_distribution() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(400 + case);
        let t = Tensor::from_vec(small_vec(&mut rng, 20), &[4, 5]);
        let s = t.softmax(1);
        for row in 0..4 {
            let sum: f32 = s.data()[row * 5..(row + 1) * 5].iter().sum();
            assert!((sum - 1.0).abs() < 1e-4);
        }
        assert!(s.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
    }
}

#[test]
fn tensor_flip_involution() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(500 + case);
        let t = Tensor::from_vec(small_vec(&mut rng, 24), &[2, 4, 3]);
        assert_eq!(t.flip(1).flip(1), t);
    }
}

#[test]
fn tensor_narrow_concat_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(600 + case);
        let t = Tensor::from_vec(small_vec(&mut rng, 24), &[2, 4, 3]);
        let cut = 1 + rng.below(2); // 1..3
        let left = t.narrow(1, 0, cut);
        let right = t.narrow(1, cut, 4 - cut);
        assert_eq!(Tensor::concat(&[&left, &right], 1), t);
    }
}

// --------------------------------------------------- replay buffer

#[test]
fn buffer_never_exceeds_capacity() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(700 + case);
        let cap = 1 + rng.below(15); // 1..16
        let pushes = rng.below(40); // 0..40
        let mut buf = ReplayBuffer::new(cap);
        for i in 0..pushes {
            buf.push(Sample {
                x: Tensor::full(&[2, 2, 1], i as f32),
                y: Tensor::full(&[1, 2], i as f32),
            });
        }
        assert!(buf.len() <= cap);
        assert_eq!(buf.len(), pushes.min(cap));
        if pushes > cap {
            // FIFO: the oldest surviving sample is `pushes - cap`.
            assert_eq!(buf.get(0).x.data()[0], (pushes - cap) as f32);
        }
    }
}

#[test]
fn buffer_uniform_sampling_within_bounds() {
    for case in 0..CASES {
        let mut seeder = Rng::seed_from_u64(800 + case);
        let k = seeder.below(20); // 0..20
        let seed = seeder.below(1000) as u64;
        let mut buf = ReplayBuffer::new(8);
        for i in 0..6 {
            buf.push(Sample {
                x: Tensor::full(&[2, 2, 1], i as f32),
                y: Tensor::full(&[1, 2], i as f32),
            });
        }
        let mut rng = Rng::seed_from_u64(seed);
        let got = buf.sample_uniform(k, &mut rng);
        assert_eq!(got.len(), k.min(6));
    }
}

// -------------------------------------------------------- mixup

#[test]
fn mixup_stays_within_convex_hull() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(900 + case);
        let cur = small_vec(&mut rng, 8);
        let rep = small_vec(&mut rng, 8);
        let alpha = rng.uniform_range(0.1, 5.0);
        let seed = rng.below(1000) as u64;
        let b = |v: &[f32]| {
            stack_samples(&[Sample {
                x: Tensor::from_vec(v.to_vec(), &[2, 2, 2]),
                y: Tensor::from_vec(v[..4].to_vec(), &[1, 4]),
            }])
        };
        let current = b(&cur);
        let replay = b(&rep);
        let mut mix_rng = Rng::seed_from_u64(seed);
        let (mixed, lambda) = st_mixup(&current, &replay, alpha, &mut mix_rng);
        assert!((0.5..=1.0).contains(&lambda), "current must dominate");
        for ((m, c), r) in mixed
            .x
            .data()
            .iter()
            .zip(current.x.data())
            .zip(replay.x.data())
        {
            let lo = c.min(*r) - 1e-4;
            let hi = c.max(*r) + 1e-4;
            assert!((lo..=hi).contains(m), "{m} outside [{lo}, {hi}]");
        }
    }
}

// -------------------------------------------------- augmentations

#[test]
fn augmentations_preserve_shape_and_finiteness() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(1000 + case);
        let net = random_geometric(8, 0.4, &mut rng);
        let x = rng.uniform_tensor(&[2, 6, 8, 2], 0.0, 1.0);
        for aug in Augmentation::default_set() {
            let view = aug.apply(&x, &net, 2, &mut rng);
            assert_eq!(view.x.shape(), x.shape());
            assert!(view.x.data().iter().all(|v| v.is_finite()));
            if let Some(s) = &view.supports {
                // Perturbed supports stay square and finite.
                for p in s.all() {
                    assert_eq!(p.shape(), &[8, 8]);
                    assert!(p.data().iter().all(|v| v.is_finite()));
                }
            }
        }
    }
}

// ---------------------------------------------------- normalizer

#[test]
fn normalizer_bounds_and_roundtrip() {
    for case in 0..CASES {
        let mut rng = Rng::seed_from_u64(1100 + case);
        let data = small_vec(&mut rng, 36);
        let offset = rng.uniform_range(-5.0, 5.0);
        let series = Tensor::from_vec(
            data.iter().map(|v| v + offset).collect::<Vec<f32>>(),
            &[6, 3, 2],
        );
        let norm = Normalizer::fit(&series);
        let t = norm.transform(&series);
        assert!(t.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        // Round-trip the target channel.
        let y = t.index_select(2, &[0]).reshape(&[6, 3]);
        let back = norm.inverse_target(&y, 0);
        let orig = series.index_select(2, &[0]).reshape(&[6, 3]);
        for (a, b) in back.data().iter().zip(orig.data()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
