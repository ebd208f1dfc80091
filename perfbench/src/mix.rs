//! Seeded workload inputs. The seed is the benchmark's; the program only
//! ever sees the generated KISS2 text.
//!
//! Batch workloads repeat one fixed input set per run in passes (the order
//! reshuffled every pass), and the `serve` workload repeats one fixed job
//! multiset per round. Whole passes and rounds make every deterministic
//! metric (coverage, cycle share, exact counts) independent of how many of
//! them fit into the measured time.

use scanft_fsm::benchmarks;
use scanft_fsm::kiss;
use scanft_fsm::rng::SplitMix64;

/// One batch input: a machine as KISS2 text, plus how to run it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Input {
    /// Machine name (the program receives it next to the text).
    pub name: String,
    /// KISS2 text.
    pub kiss: String,
    /// Whether the `flow` workload runs the gate-level part on it.
    pub gate_level: bool,
    /// Whether it is one of the paper's suite machines. Only those are
    /// held to complete coverage of detectable faults: a random machine's
    /// chained tests may mask a detectable fault (the paper's Section 2
    /// caveat), which the default flow accepts.
    pub suite: bool,
}

/// Suite machines with their copies per pass (or round).
///
/// Each batch pass holds three job-size modes, on a 2-vCPU host roughly
/// under 10 ms (bottom, with the seeded random machines), tens to hundreds
/// of ms (middle) and over 250 ms (top). The batch percentiles count every
/// job at its machine's mean time over the run, so they read one
/// machine's time; the copies are weighted so that the median falls in the
/// middle of a block of machines of like times, and the 90th percentile
/// inside the top mode.
type Suite = &'static [(&'static str, usize)];

/// One batch workload's suite machines by mode.
#[derive(Debug, Clone, Copy)]
pub struct Modes {
    /// Top mode, gate level.
    pub top: Suite,
    /// Top mode, functional-only (beyond the gate budget, as the table
    /// binaries run them).
    pub top_functional: Suite,
    /// Middle mode, gate level; set-up warms up on one of each.
    pub middle: Suite,
    /// Bottom mode, gate level (plus [`RANDOM_PER_PASS`] random machines).
    pub bottom: Suite,
}

/// `flow`: the narrow campaign (mostly bridging) and exhaustive
/// classification on the gate-level machines, UIO derivation on the
/// functional-only ones. `lion` carries the paper's golden numbers.
pub const FLOW: Modes = Modes {
    top: &[("dk16", 1), ("ex2", 1), ("bbara", 1)],
    top_functional: &[("dvram", 1), ("rie", 1), ("nucpwr", 1)],
    middle: &[
        ("dk14", 3),
        ("beecount", 2),
        ("ex3", 5),
        ("ex7", 5),
        ("train11", 3),
    ],
    bottom: &[
        ("lion", 1),
        ("shiftreg", 1),
        ("dk15", 1),
        ("dk27", 1),
        ("lion9", 1),
        ("ex5", 1),
        ("mc", 1),
        ("bbtas", 1),
    ],
};

/// `atpg_opt`: optimizer, implication closure, PODEM and drop simulation.
pub const ATPG_OPT: Modes = Modes {
    top: &[
        ("ex4", 1),
        ("opus", 1),
        ("mark1", 1),
        ("ex2", 1),
        ("dk16", 1),
    ],
    top_functional: &[],
    middle: &[
        ("dk14", 3),
        ("dk512", 3),
        ("beecount", 2),
        ("ex3", 2),
        ("ex7", 2),
        ("train11", 2),
        ("bbara", 1),
        ("ex6", 1),
    ],
    bottom: &[("lion", 3), ("dk27", 3), ("bbtas", 3)],
};

/// Seeded random machines per batch pass (bottom mode).
pub const RANDOM_PER_PASS: usize = 2;

/// A batch workload's pass for `seed`: its suite machines, then the
/// seeded random ones.
#[must_use]
pub fn batch_inputs(modes: &Modes, tag: &str, seed: u64) -> Vec<Input> {
    let mut out = suite(modes.top, true);
    out.extend(suite(modes.top_functional, false));
    out.extend(suite(modes.middle, true));
    out.extend(suite(modes.bottom, true));
    out.extend(random_inputs(seed, tag));
    out
}

fn suite(names: Suite, gate_level: bool) -> Vec<Input> {
    names
        .iter()
        .flat_map(|&(name, copies)| std::iter::repeat_n(machine(name, gate_level), copies))
        .collect()
}

fn machine(name: &str, gate_level: bool) -> Input {
    let table = benchmarks::build(name).expect("suite names are valid");
    Input {
        name: name.to_owned(),
        kiss: kiss::write(&table),
        gate_level,
        suite: true,
    }
}

/// Small uniformly random machines drawn from `seed` (dimensions too).
fn random_inputs(seed: u64, tag: &str) -> Vec<Input> {
    let mut rng = SplitMix64::new(seed ^ SplitMix64::from_name(tag).next_u64());
    (0..RANDOM_PER_PASS)
        .map(|k| {
            let name = format!("rand-{tag}-{seed}-{k}");
            let outputs = 1 + rng.next_below(2) as usize;
            let states = 4 + rng.next_below(4) as usize;
            let table = benchmarks::random_machine(&name, 2, outputs, states, rng.next_u64())
                .expect("dimensions are in range");
            Input {
                name,
                kiss: kiss::write(&table),
                gate_level: true,
                suite: false,
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` for pass (or round) `pass`.
#[must_use]
pub fn shuffled(seed: u64, pass: u64, n: usize) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ pass);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        order.swap(i, j);
    }
    order
}

/// The `serve` workload's hot set, with the `simulate` resubmissions of
/// each per round: five suite machines, fewer than the server's artifact
/// cache holds (8). The three small machines are resubmitted more often,
/// so the median job falls inside their mode (a few ms) and the 90th
/// percentile inside the mode of the two larger ones (tens of ms).
pub const SERVE_HOT: Suite = &[
    ("bbara", 2),
    ("ex6", 2),
    ("ex7", 4),
    ("beecount", 4),
    ("dk14", 4),
];

/// Seeded fresh machines per `serve` round.
pub const SERVE_FRESH_PER_ROUND: usize = 2;

/// What one `serve` job submits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeJob {
    /// `simulate` of hot machine `i`.
    Simulate(usize),
    /// `atpg` of hot machine `i`.
    Atpg(usize),
    /// `simulate` of fresh machine `i`, relabelled for this round so that
    /// it misses the server's artifact cache.
    Fresh(usize),
}

/// The serve workload's machines for `seed`: the hot set, then the fresh
/// pool (random machines drawn from the seed).
#[must_use]
pub fn serve_machines(seed: u64) -> (Vec<Input>, Vec<Input>) {
    let hot = SERVE_HOT
        .iter()
        .map(|&(name, _)| machine(name, true))
        .collect();
    let mut rng = SplitMix64::new(seed ^ SplitMix64::from_name("serve").next_u64());
    let fresh = (0..SERVE_FRESH_PER_ROUND)
        .map(|k| {
            let name = format!("fresh-{seed}-{k}");
            let table = benchmarks::random_machine(&name, 3, 2, 8, rng.next_u64())
                .expect("dimensions are in range");
            Input {
                name,
                kiss: kiss::write(&table),
                gate_level: true,
                suite: false,
            }
        })
        .collect();
    (hot, fresh)
}

/// One round of the `serve` mix, shuffled by `seed` and `round`: every hot
/// machine its [`SERVE_HOT`] count of times as `simulate` and once as
/// `atpg`, and every fresh machine once.
#[must_use]
pub fn serve_round(seed: u64, round: u64) -> Vec<ServeJob> {
    let mut jobs = Vec::new();
    for (hot, &(_, sims)) in SERVE_HOT.iter().enumerate() {
        jobs.extend(std::iter::repeat_n(ServeJob::Simulate(hot), sims));
        jobs.push(ServeJob::Atpg(hot));
    }
    jobs.extend((0..SERVE_FRESH_PER_ROUND).map(ServeJob::Fresh));
    shuffled(seed, round, jobs.len())
        .into_iter()
        .map(|i| jobs[i])
        .collect()
}

/// Renames every state of a KISS2 text by appending `_{tag}`. The machine
/// is unchanged (state order is kept), but its canonical text, and so its
/// server content key, differs for every tag.
#[must_use]
pub fn relabel_states(text: &str, tag: &str) -> String {
    let mut out = String::with_capacity(text.len() * 2);
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        if line.starts_with(".r ") && fields.len() == 2 {
            out.push_str(&format!(".r {}_{tag}", fields[1]));
        } else if !line.starts_with('.') && !line.starts_with('#') && fields.len() == 4 {
            out.push_str(&format!(
                "{} {}_{tag} {}_{tag} {}",
                fields[0], fields[1], fields[2], fields[3]
            ));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let flow = |seed| batch_inputs(&FLOW, "flow", seed);
        assert_eq!(flow(7), flow(7));
        assert_eq!(
            batch_inputs(&ATPG_OPT, "atpg", 7),
            batch_inputs(&ATPG_OPT, "atpg", 7)
        );
        assert_eq!(serve_machines(7), serve_machines(7));
        assert_ne!(flow(7), flow(8));
        assert_ne!(serve_machines(7).1, serve_machines(8).1);
        // The suite part is the same for every seed.
        let (a, b) = (flow(1), flow(2));
        let n = a.len() - RANDOM_PER_PASS;
        assert_eq!(a[..n], b[..n]);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let a = shuffled(3, 0, 40);
        assert_eq!(a, shuffled(3, 0, 40));
        assert_ne!(a, shuffled(3, 1, 40));
        assert_ne!(a, shuffled(4, 0, 40));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn serve_rounds_hold_the_same_multiset() {
        let mut a = serve_round(5, 0);
        let mut b = serve_round(5, 9);
        assert_eq!(a, serve_round(5, 0));
        assert_ne!(a, b);
        let key = |j: &ServeJob| format!("{j:?}");
        a.sort_by_key(key);
        b.sort_by_key(key);
        assert_eq!(a, b);
        let sims = a
            .iter()
            .filter(|j| matches!(j, ServeJob::Simulate(_)))
            .count();
        assert!(
            sims * 2 > a.len(),
            "simulate resubmissions are the majority"
        );
    }

    #[test]
    fn relabelling_keeps_the_machine_and_changes_the_key() {
        let (hot, fresh) = serve_machines(11);
        for input in hot.iter().chain(&fresh) {
            let plain =
                kiss::parse_with(&input.kiss, &input.name, kiss::Completion::Reject).unwrap();
            let text = relabel_states(&input.kiss, "r3");
            let renamed = kiss::parse_with(&text, &input.name, kiss::Completion::Reject).unwrap();
            assert_eq!(plain.num_states(), renamed.num_states());
            for s in 0..plain.num_states() as u32 {
                for i in 0..(1u32 << plain.num_inputs()) {
                    assert_eq!(plain.step(s, i), renamed.step(s, i));
                }
            }
            assert_ne!(
                scanft_server::ContentKey::of_table(&plain),
                scanft_server::ContentKey::of_table(&renamed)
            );
        }
    }
}
