//! Property tests for the workspace JSON reader: generated value trees
//! survive render → parse unchanged, and every prefix truncation and
//! single-byte flip of a rendered document comes back as a value or an
//! error, never a panic. The committed checkpoint and graph-form
//! fixtures round-trip through parse → render → parse as well.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use unico_workloads::json::{parse, Json};

/// Deepest container nesting the generator produces.
const MAX_DEPTH: usize = 8;

/// Tree generator over a splitmix64 stream seeded by the property's
/// input, with a node budget that keeps rendered documents small.
struct Gen {
    state: u64,
    budget: usize,
}

impl Gen {
    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Quotes, backslashes, every control character, and non-ASCII
    /// text up to the astral planes.
    fn string(&mut self) -> String {
        const POOL: [char; 10] = [
            'a', '"', '\\', '/', ' ', 'é', 'ü', '😀', '\u{2028}', '\u{fffd}',
        ];
        (0..self.below(8))
            .map(|_| match self.below(3) {
                0 => char::from_u32(self.below(0x20) as u32).expect("control char"),
                1 => POOL[self.below(POOL.len() as u64) as usize],
                _ => char::from_u32(self.below(0x11_0000) as u32).unwrap_or('z'),
            })
            .collect()
    }

    /// Numbers in the form [`parse`] yields them: plain unsigned
    /// integers as exact `UInt`s (up to `u64::MAX`), everything else —
    /// negatives, fractions, `-0.0`, magnitudes past `u64` — as `Num`.
    fn number(&mut self) -> Json {
        match self.below(5) {
            0 => Json::UInt(u64::MAX),
            1 => Json::UInt(self.next() >> self.below(64)),
            2 => Json::Num(-0.0),
            3 => Json::Num(-((self.below(1 << 20) as f64) + 0.5) / 64.0),
            _ => {
                let x = f64::from_bits(self.next());
                let plain_unsigned =
                    x >= 0.0 && x.fract() == 0.0 && x < 18_446_744_073_709_551_616.0;
                if x.is_finite() && !plain_unsigned {
                    Json::Num(x)
                } else {
                    Json::Num(-1.5e-300)
                }
            }
        }
    }

    fn value(&mut self, depth: usize) -> Json {
        self.budget = self.budget.saturating_sub(1);
        let scalar_only = depth == MAX_DEPTH || self.budget == 0;
        match self.below(if scalar_only { 5 } else { 7 }) {
            0 => Json::Null,
            1 => Json::Bool(self.below(2) == 1),
            2 | 3 => self.number(),
            4 => Json::Str(self.string()),
            5 => Json::Arr((0..self.below(5)).map(|_| self.value(depth + 1)).collect()),
            _ => Json::Obj(
                (0..self.below(5))
                    .map(|_| (self.string(), self.value(depth + 1)))
                    .collect(),
            ),
        }
    }
}

fn arb_tree(seed: u64) -> Json {
    let mut g = Gen {
        state: seed,
        budget: 48,
    };
    g.value(0)
}

fn depth(v: &Json) -> usize {
    match v {
        Json::Arr(items) => 1 + items.iter().map(depth).max().unwrap_or(0),
        Json::Obj(fields) => 1 + fields.iter().map(|(_, v)| depth(v)).max().unwrap_or(0),
        _ => 0,
    }
}

fn repo_file(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// render → parse gives back an equal tree.
    fn rendered_trees_parse_back_equal(seed in 0u64..u64::MAX) {
        let tree = arb_tree(seed);
        prop_assert!(depth(&tree) <= MAX_DEPTH);
        let text = tree.to_string();
        let back = parse(&text).unwrap_or_else(|e| panic!("{text:?} must parse: {e}"));
        prop_assert_eq!(back, tree, "{}", text);
    }

    /// Every prefix truncation and single-byte flip of a rendered tree
    /// is a value or an error, never a panic; every proper prefix of a
    /// container document is an error.
    fn truncations_and_byte_flips_never_panic(seed in 0u64..u64::MAX, mask in 1u8..=255) {
        let tree = arb_tree(seed);
        let bytes = tree.to_string().into_bytes();
        for cut in 0..bytes.len() {
            let prefix = String::from_utf8_lossy(&bytes[..cut]);
            let parsed = parse(&prefix);
            if matches!(tree, Json::Arr(_) | Json::Obj(_)) {
                prop_assert!(parsed.is_err(), "prefix {:?} must be rejected", prefix);
            }
        }
        for i in 0..bytes.len() {
            let mut flipped = bytes.clone();
            flipped[i] ^= mask;
            let _ = parse(&String::from_utf8_lossy(&flipped));
        }
    }
}

/// The committed checkpoint and both graph-form fixtures round-trip
/// through parse → render → parse.
#[test]
fn committed_documents_round_trip() {
    for rel in [
        "tests/golden/unico_resume.checkpoint",
        "tests/fixtures/mlp.graph.json",
        "tests/fixtures/tiny_cnn.graph.json",
    ] {
        let text = std::fs::read_to_string(repo_file(rel)).expect("fixture readable");
        let doc = parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let back = parse(&doc.to_string()).unwrap_or_else(|e| panic!("{rel} re-render: {e}"));
        assert_eq!(back, doc, "{rel}");
    }
}
