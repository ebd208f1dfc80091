//! Certificate golden pins over the benchmark suite.
//!
//! For every suite circuit with at most 2048 transitions (the set
//! `agreement.rs` covers), `optimize` must emit a byte-identical proof log:
//! its 64-bit FNV-1a digest, step count, and lemma count are pinned here.
//! A change to how the prover finds or orders facts — which constants it
//! certifies, which lemmas it cites, or the traces behind them — shows up
//! as a digest mismatch even when the checker still accepts the log.
//!
//! `SCANFT_CERT_GOLDEN_PRINT=1 cargo test -p scanft-opt --test
//! certificate_golden -- --nocapture` prints the current table instead of
//! asserting it.

#![allow(clippy::unwrap_used)]

use scanft_fsm::benchmarks;
use scanft_opt::optimize;
use scanft_synth::{synthesize, SynthConfig};

/// 64-bit FNV-1a over `bytes`.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// (circuit, FNV-1a digest of the certificate, steps, lemmas).
const GOLDEN: &[(&str, u64, usize, u32)] = &[
    ("bbara", 0xebda71b0eaef5d56, 183, 108),
    ("bbsse", 0xb1d95bf50cfcb3ae, 2922, 1584),
    ("bbtas", 0xae0df33215c16b4e, 2, 0),
    ("beecount", 0x0c1a0eb4565930a9, 41, 20),
    ("cse", 0x73ab35721ae01a9b, 1977, 1012),
    ("dk14", 0x3567306eee283e38, 14, 6),
    ("dk15", 0xc7351888fbcf3064, 5, 2),
    ("dk16", 0xa3c02b74182808d9, 437, 218),
    ("dk17", 0x39a2617623efca8b, 111, 74),
    ("dk27", 0x3506c150e585f038, 25, 12),
    ("dk512", 0xae478df3abd997c5, 134, 92),
    ("ex2", 0x7eacce1e82433a23, 489, 244),
    ("ex3", 0xa2ae66a1e9e7762a, 18, 8),
    ("ex4", 0x43129c994b4b0d5d, 809, 430),
    ("ex5", 0xb9217051f8727e20, 5, 2),
    ("ex6", 0xbec1a3ff7fa89a8e, 232, 130),
    ("ex7", 0x584231fa5707ad58, 41, 20),
    ("lion", 0x04e3a0f80301ac4b, 5, 2),
    ("lion9", 0xcd85ab582ef3ac36, 9, 4),
    ("mark1", 0x38a5855422d04d62, 1767, 1156),
    ("mc", 0x9096510e5f9dfc13, 79, 54),
    ("opus", 0x4b96982a8549e127, 721, 360),
    ("shiftreg", 0x39e34d39e06b3c07, 1, 0),
    ("tav", 0xb41e33269cd42542, 5, 0),
    ("train11", 0x7a5caf88adaa1b65, 97, 48),
];

/// Step and lemma counts read back from the certificate text.
fn counts(text: &str) -> (usize, u32) {
    let steps = text.lines().count();
    let lemmas = text.matches("\"step\":\"lemma\"").count() as u32;
    (steps, lemmas)
}

#[test]
fn certificates_are_byte_identical_to_the_pins() {
    let print = std::env::var_os("SCANFT_CERT_GOLDEN_PRINT").is_some();
    let mut seen = Vec::new();
    for spec in benchmarks::CIRCUITS {
        if spec.num_transitions() > 2048 {
            continue; // the release-mode opt_suite bench covers the rest
        }
        let table = benchmarks::build(spec.name).expect("registry circuit");
        let c = synthesize(&table, &SynthConfig::default());
        let opt = optimize(c.netlist());
        let got = (
            spec.name,
            fnv1a64(opt.certificate.as_bytes()),
            opt.stats.certificate_steps,
            opt.stats.certificate_lemmas,
        );
        assert_eq!(
            counts(&opt.certificate),
            (got.2, got.3),
            "{}: stats disagree with the certificate text",
            spec.name
        );
        if print {
            println!(
                "    (\"{}\", {:#018x}, {}, {}),",
                got.0, got.1, got.2, got.3
            );
        }
        seen.push(got);
    }
    if print {
        return;
    }
    assert_eq!(
        seen.iter().map(|g| g.0).collect::<Vec<_>>(),
        GOLDEN.iter().map(|g| g.0).collect::<Vec<_>>(),
        "pinned circuit set"
    );
    for (got, want) in seen.iter().zip(GOLDEN) {
        assert_eq!(got, want, "{}: certificate changed", want.0);
    }
}

#[test]
fn digest_is_fnv1a_64() {
    // Published FNV-1a test vectors.
    assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
}
