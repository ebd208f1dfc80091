//! The in-process batch workloads: `flow` (the paper's pipeline per
//! circuit) and `atpg_opt` (certified optimizer, then ATPG from scratch).
//!
//! Each workload has an untraced job, which calls the program's public
//! entry points exactly as its CLI does (`run_flow`; `optimize_with` +
//! `checker::check` + `top_up_scan_with`), and a traced replay that makes
//! the same public calls those entry points make, one span around each.
//! Both produce a [`JobResult`] whose fingerprint must agree.

use std::hash::{DefaultHasher, Hash, Hasher};
use std::time::Instant;

use scanft_analyze::{is_statically_untestable_with, Analysis};
use scanft_atpg::{Atpg, AtpgConfig, AtpgOutcome};
use scanft_core::cycles::{clock_cycles, percent_of, test_set_cycles};
use scanft_core::flow::{run_flow, FaultModelReport, FlowConfig};
use scanft_core::generate::{generate, per_transition_baseline};
use scanft_core::top_up::{top_up_scan_with, FaultStatus, TopUpConfig};
use scanft_fsm::kiss;
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::StateTable;
use scanft_harness::Budget;
use scanft_sim::exhaustive::{self, Detectability};
use scanft_sim::faults::{self, StuckFault};
use scanft_sim::{campaign, collapse, ScanTest};
use scanft_synth::{synthesize, SynthConfig};

use crate::mix::Input;
use crate::trace::Tracer;

/// Which batch workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// `run_flow` per circuit.
    Flow,
    /// Optimizer + checker + from-scratch ATPG per circuit.
    AtpgOpt,
}

/// A parsed batch input.
#[derive(Debug)]
pub struct Prepared {
    /// Machine name.
    pub name: String,
    /// The machine, parsed from the generated KISS2 text.
    pub table: StateTable,
    /// Whether `flow` runs its gate-level part.
    pub gate_level: bool,
    /// Whether the machine is from the paper's suite (see [`Input::suite`]).
    pub suite: bool,
    /// Clock cycles of the per-transition baseline (Table 7 `trans`),
    /// computed once outside the timed region for `atpg_opt`.
    pub baseline_cycles: u64,
}

/// Parses the generated inputs (the KISS2 step of set-up).
///
/// # Errors
///
/// The first input that fails to parse.
pub fn prepare(inputs: &[Input], workload: Batch) -> Result<Vec<Prepared>, String> {
    inputs
        .iter()
        .map(|input| {
            let table = kiss::parse_with(&input.kiss, &input.name, kiss::Completion::Reject)
                .map_err(|e| format!("{}: {e}", input.name))?;
            let baseline_cycles = match workload {
                Batch::Flow => 0,
                Batch::AtpgOpt => {
                    test_set_cycles(&per_transition_baseline(&table), table.num_state_vars())
                }
            };
            Ok(Prepared {
                name: input.name.clone(),
                table,
                gate_level: input.gate_level,
                suite: input.suite,
                baseline_cycles,
            })
        })
        .collect()
}

/// What one job produced, reduced to what the metrics and checks need.
#[derive(Debug, Clone, PartialEq)]
pub struct JobResult {
    /// Faults given a verdict.
    pub faults: u64,
    /// Faults detected.
    pub detected: u64,
    /// Table 7's percentage for the produced test set.
    pub cycles_pct: f64,
    /// A hash of everything deterministic the job reported, for replay
    /// and repeat comparison. (Only the hash is kept: the text holds every
    /// fault's verdict, and keeping it for every job would grow the peak
    /// RSS with the number of passes.)
    pub fingerprint: u64,
    /// Correctness problems found by the job's checks.
    pub problems: Vec<String>,
}

/// Runs one untraced job.
#[must_use]
pub fn run_job(workload: Batch, input: &Prepared) -> JobResult {
    match workload {
        Batch::Flow => flow_job(input),
        Batch::AtpgOpt => atpg_opt_job(input),
    }
}

/// Runs one traced job: the same public calls, each inside a span.
#[must_use]
pub fn run_job_traced(
    workload: Batch,
    input: &Prepared,
    tracer: &mut Tracer,
    job: u64,
) -> (JobResult, LayerCounts) {
    match workload {
        Batch::Flow => flow_job_traced(input, tracer, job),
        Batch::AtpgOpt => atpg_opt_job_traced(input, tracer, job),
    }
}

fn flow_config(input: &Prepared) -> FlowConfig {
    FlowConfig {
        gate_level: input.gate_level,
        ..FlowConfig::default()
    }
}

fn flow_job(input: &Prepared) -> JobResult {
    let r = run_flow(&input.table, &flow_config(input));
    let gate = r.gate.as_ref().map(|g| {
        (
            format!("{:?}", g.netlist),
            g.stuck.clone(),
            g.bridging.clone(),
            g.bridge_pairs_total,
        )
    });
    flow_result(
        input,
        (r.uio.num_with_uio, r.uio.max_len, r.uio.budget_exceeded),
        &format!("{:?}", r.tests.tests),
        (r.tests.tests.len(), r.tests.total_length()),
        (r.baseline_cycles, r.functional_cycles),
        gate,
    )
}

type GateSummary = (String, FaultModelReport, FaultModelReport, usize);

/// The [`JobResult::fingerprint`] of a job's report text.
fn fingerprint(text: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    text.hash(&mut hasher);
    hasher.finish()
}

/// Builds a flow [`JobResult`] and runs the `flow` correctness checks.
fn flow_result(
    input: &Prepared,
    uio: (usize, usize, bool),
    tests_debug: &str,
    tests: (usize, usize),
    cycles: (u64, u64),
    gate: Option<GateSummary>,
) -> JobResult {
    let mut problems = Vec::new();
    if input.name == "lion" && (tests != (9, 28) || cycles != (50, 48)) {
        problems.push(format!(
            "lion: {} tests of length {} and {} vs {} cycles, expected 9, 28 and 48 vs 50",
            tests.0, tests.1, cycles.1, cycles.0
        ));
    }
    let (mut faults, mut detected) = (0, 0);
    let mut gate_text = String::from("functional-only");
    if let Some((netlist, stuck, bridging, pairs)) = &gate {
        for (model, report) in [("stuck-at", stuck), ("bridging", bridging)] {
            if input.suite && !report.complete_detectable_coverage() {
                problems.push(format!(
                    "{}: {model} coverage not complete on detectable faults ({}/{} detected, {} undetectable, {} unclassified)",
                    input.name,
                    report.detected,
                    report.total_faults,
                    report.proven_undetectable,
                    report.unclassified
                ));
            }
            faults += report.total_faults as u64;
            detected += report.detected as u64;
        }
        gate_text = format!("{netlist} {stuck:?} {bridging:?} {pairs}");
    }
    JobResult {
        faults,
        detected,
        cycles_pct: percent_of(cycles.1, cycles.0),
        fingerprint: fingerprint(&format!("{uio:?} {tests_debug} {cycles:?} {gate_text}")),
        problems,
    }
}

/// The replay of [`run_flow`]: UIO derivation, generation, cycles, then
/// synthesis, fault enumeration and per-model narrow campaigns with
/// exhaustive classification of the undetected faults.
fn flow_job_traced(input: &Prepared, t: &mut Tracer, job: u64) -> (JobResult, LayerCounts) {
    let mut counts = LayerCounts::default();
    let config = flow_config(input);
    assert!(!config.top_up, "the replay mirrors the default flow");
    let table = &input.table;
    let sv = table.num_state_vars();
    t.enter("job", job);
    let uio_config = UioConfig {
        max_len: config.uio_max_len.unwrap_or(sv),
        node_budget: config.uio_node_budget,
    };
    let uios = t.leaf("fsm.uio", job, || derive_uios_with(table, &uio_config));
    let tests = t.leaf("core.generate", job, || generate(table, &uios, &config.gen));
    let cycles = t.leaf("core.cycles", job, || {
        let baseline = per_transition_baseline(table);
        (test_set_cycles(&baseline, sv), test_set_cycles(&tests, sv))
    });
    let gate = config.gate_level.then(|| {
        let circuit = t.leaf("synth", job, || synthesize(table, &config.synth));
        let n = circuit.netlist();
        let scan_tests = t.leaf("core.scan_tests", job, || tests.to_scan_tests(&circuit));
        let stuck_list = t.leaf("sim.faults", job, || {
            faults::as_fault_list(&faults::enumerate_stuck(n))
        });
        counts.gates = n.num_gates() as u64;
        let model = |t: &mut Tracer, span, list: &[faults::Fault], counts: &mut LayerCounts| {
            evaluate_model_traced(t, job, span, n, &scan_tests, list, sv, &config, counts)
        };
        let stuck = model(t, "sim.narrow.stuck", &stuck_list, &mut counts);
        let (bridge_list, pairs) = t.leaf("sim.faults", job, || {
            let bridges = faults::enumerate_bridging(n, config.max_bridge_pairs);
            (
                faults::bridges_as_fault_list(&bridges.faults),
                bridges.total_pairs,
            )
        });
        let bridging = model(t, "sim.narrow.bridging", &bridge_list, &mut counts);
        (format!("{:?}", n.stats()), stuck, bridging, pairs)
    });
    t.exit();
    let result = flow_result(
        input,
        (
            uios.num_with_uio(),
            uios.max_found_len(),
            uios.any_budget_exceeded(),
        ),
        &format!("{:?}", tests.tests),
        (tests.tests.len(), tests.total_length()),
        cycles,
        gate,
    );
    (result, counts)
}

#[allow(clippy::too_many_arguments)]
fn evaluate_model_traced(
    t: &mut Tracer,
    job: u64,
    span: &'static str,
    netlist: &scanft_netlist::Netlist,
    scan_tests: &[ScanTest],
    fault_list: &[faults::Fault],
    sv: usize,
    config: &FlowConfig,
    counts: &mut LayerCounts,
) -> FaultModelReport {
    let report = t.leaf(span, job, || {
        campaign::run_decreasing_length(netlist, scan_tests, fault_list)
    });
    let effective = report.effective_tests();
    let effective_length: usize = effective.iter().map(|&i| scan_tests[i].len()).sum();
    let mut proven_undetectable = 0;
    let mut unclassified = 0;
    for f in report.undetected_faults() {
        let (verdict, _) = t.leaf("sim.exhaustive", job, || {
            exhaustive::find_detecting_test(netlist, &fault_list[f], config.exhaustive_budget)
        });
        match verdict {
            Detectability::Undetectable => proven_undetectable += 1,
            Detectability::BudgetExceeded => unclassified += 1,
            Detectability::Detectable => {}
        }
    }
    counts.undetectable += proven_undetectable as u64;
    let detected = report.detected();
    FaultModelReport {
        total_faults: fault_list.len(),
        detected,
        coverage: if fault_list.is_empty() {
            100.0
        } else {
            100.0 * detected as f64 / fault_list.len() as f64
        },
        effective_tests: effective.len(),
        effective_length,
        effective_cycles: clock_cycles(sv, effective.len(), effective_length),
        proven_undetectable,
        unclassified,
        top_up_tests: 0,
    }
}

/// What `scanft optimize` and `scanft atpg --no-functional` compute,
/// sharing one synthesized circuit and one analysis.
fn atpg_opt_job(input: &Prepared) -> JobResult {
    let circuit = synthesize(&input.table, &SynthConfig::default());
    let n = circuit.netlist();
    let analysis = Analysis::new(n);
    let opt = scanft_opt::optimize_with(n, &analysis);
    let check = scanft_opt::checker::check(n, &opt.netlist, &opt.certificate);
    let outcome = top_up_scan_with(n, &[], &TopUpConfig::default(), Some(analysis));
    let r = &outcome.report;
    atpg_result(
        input,
        &AtpgSummary {
            opt: opt.stats,
            check: check.map_err(|e| e.to_string()),
            status: r.status.clone(),
            patterns: outcome.atpg_patterns().to_vec(),
            targets: r.pattern_targets.clone(),
            dropped: r.dropped_by_atpg_patterns,
            effort: (r.decisions, r.backtracks),
        },
    )
}

struct AtpgSummary {
    opt: scanft_opt::OptStats,
    check: Result<scanft_opt::checker::CheckReport, String>,
    status: Vec<FaultStatus>,
    patterns: Vec<ScanTest>,
    targets: Vec<StuckFault>,
    dropped: usize,
    effort: (u64, u64),
}

fn atpg_result(input: &Prepared, s: &AtpgSummary) -> JobResult {
    let mut problems = Vec::new();
    if let Err(e) = &s.check {
        problems.push(format!(
            "{}: checker rejected the certificate: {e}",
            input.name
        ));
    }
    let aborted = s
        .status
        .iter()
        .filter(|v| **v == FaultStatus::Aborted)
        .count();
    if aborted > 0 {
        problems.push(format!("{}: {aborted} fault(s) aborted", input.name));
    }
    let detected = s
        .status
        .iter()
        .filter(|v| {
            matches!(
                v,
                FaultStatus::DetectedFunctional | FaultStatus::DetectedAtpg
            )
        })
        .count();
    let length: usize = s.patterns.iter().map(ScanTest::len).sum();
    let cycles = clock_cycles(input.table.num_state_vars(), s.patterns.len(), length);
    JobResult {
        faults: s.status.len() as u64,
        detected: detected as u64,
        cycles_pct: percent_of(cycles, input.baseline_cycles),
        fingerprint: fingerprint(&format!(
            "{:?} {:?} {:?} {:?} {:?} {} {:?}",
            s.opt, s.check, s.status, s.patterns, s.targets, s.dropped, s.effort
        )),
        problems,
    }
}

/// Per-layer counts only a traced replay can see (summed over its jobs).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCounts {
    /// Exhaustive classifications that proved a fault undetectable.
    pub undetectable: u64,
    /// Faults before collapsing.
    pub universe: u64,
    /// Collapsed representatives kept.
    pub kept: u64,
    /// Faults classified statically untestable.
    pub pruned: u64,
    /// PODEM targets tried.
    pub targets: u64,
    /// Targets that yielded a pattern.
    pub tests: u64,
    /// Targets aborted.
    pub aborted: u64,
    /// PODEM decisions.
    pub decisions: u64,
    /// PODEM backtracks.
    pub backtracks: u64,
    /// Faults detected by ATPG patterns.
    pub detected_atpg: u64,
    /// Of those, faults caught by another target's pattern.
    pub dropped: u64,
    /// Certificate steps.
    pub certificate_steps: u64,
    /// Gates the certified optimizer removed.
    pub gates_removed: u64,
    /// Gates synthesized (the optimizer's original gates on `atpg_opt`).
    pub gates: u64,
}

impl std::ops::AddAssign for LayerCounts {
    fn add_assign(&mut self, c: LayerCounts) {
        self.undetectable += c.undetectable;
        self.universe += c.universe;
        self.kept += c.kept;
        self.pruned += c.pruned;
        self.targets += c.targets;
        self.tests += c.tests;
        self.aborted += c.aborted;
        self.decisions += c.decisions;
        self.backtracks += c.backtracks;
        self.detected_atpg += c.detected_atpg;
        self.dropped += c.dropped;
        self.certificate_steps += c.certificate_steps;
        self.gates_removed += c.gates_removed;
        self.gates += c.gates;
    }
}

/// The replay of [`atpg_opt_job`]: `top_up_scan_with` on an empty
/// functional set is unrolled into its public calls (enumerate, collapse,
/// static prune, PODEM per survivor, drop simulation per pattern).
fn atpg_opt_job_traced(input: &Prepared, t: &mut Tracer, job: u64) -> (JobResult, LayerCounts) {
    let config = TopUpConfig::default();
    let mut counts = LayerCounts::default();
    t.enter("job", job);
    let circuit = t.leaf("synth", job, || {
        synthesize(&input.table, &SynthConfig::default())
    });
    let n = circuit.netlist();
    let analysis = t.leaf("analyze.analysis", job, || Analysis::new(n));
    let opt = t.leaf("opt.optimize", job, || {
        scanft_opt::optimize_with(n, &analysis)
    });
    let check = t.leaf("opt.check", job, || {
        scanft_opt::checker::check(n, &opt.netlist, &opt.certificate)
    });
    counts.certificate_steps = opt.stats.certificate_steps as u64;
    counts.gates = opt.stats.original_gates as u64;
    counts.gates_removed = (opt.stats.original_gates - opt.stats.reduced_gates) as u64;

    let universe = t.leaf("sim.faults", job, || faults::enumerate_stuck(n));
    let targets = t.leaf("sim.collapse", job, || {
        collapse::collapse_stuck(n, &universe).representatives
    });
    counts.universe = universe.len() as u64;
    counts.kept = targets.len() as u64;
    let fault_list = faults::as_fault_list(&targets);
    let functional = t.leaf("sim.functional", job, || {
        campaign::run_decreasing_length(n, &[], &fault_list)
    });
    let mut status: Vec<Option<FaultStatus>> = functional
        .detecting_test
        .iter()
        .map(|d| d.map(|_| FaultStatus::DetectedFunctional))
        .collect();
    t.leaf("analyze.prune", job, || {
        for (k, fault) in targets.iter().enumerate() {
            if is_statically_untestable_with(n, &analysis, fault) {
                status[k] = Some(FaultStatus::StaticallyUntestable);
                counts.pruned += 1;
            }
        }
    });
    let survivors = functional.undetected_faults();
    let mut atpg = t.leaf("atpg.init", job, || Atpg::with_analysis(n, analysis));
    let atpg_config = AtpgConfig {
        decision_budget: config.decision_budget,
        budget: Budget::unlimited(),
        heuristic: config.heuristic,
        use_implications: config.use_implications,
    };
    let mut patterns = Vec::new();
    let mut pattern_targets = Vec::new();
    for &f in survivors.iter().rev() {
        if status[f].is_some() {
            continue;
        }
        let result = t.leaf("atpg.podem", job, || {
            atpg.generate(&targets[f], &atpg_config)
        });
        counts.targets += 1;
        counts.decisions += result.stats.decisions;
        counts.backtracks += result.stats.backtracks;
        match result.outcome {
            AtpgOutcome::Test(test) => {
                counts.tests += 1;
                let pending: Vec<usize> = (0..targets.len())
                    .filter(|&k| status[k].is_none())
                    .collect();
                let pending_faults: Vec<faults::Fault> =
                    pending.iter().map(|&k| fault_list[k]).collect();
                let report = t.leaf("sim.drop", job, || {
                    campaign::run(n, std::slice::from_ref(&test), &pending_faults)
                });
                for (slot, &k) in pending.iter().enumerate() {
                    if report.detecting_test[slot].is_some() {
                        status[k] = Some(FaultStatus::DetectedAtpg);
                        counts.detected_atpg += 1;
                        if k != f {
                            counts.dropped += 1;
                        }
                    }
                }
                pattern_targets.push(targets[f]);
                patterns.push(test);
            }
            AtpgOutcome::Redundant => status[f] = Some(FaultStatus::Redundant),
            AtpgOutcome::Aborted { .. } => {
                counts.aborted += 1;
                status[f] = Some(FaultStatus::Aborted);
            }
        }
    }
    t.exit();
    let result = atpg_result(
        input,
        &AtpgSummary {
            opt: opt.stats,
            check: check.map_err(|e| e.to_string()),
            status: status
                .into_iter()
                .map(|s| s.unwrap_or(FaultStatus::Aborted))
                .collect(),
            patterns,
            targets: pattern_targets,
            dropped: counts.dropped as usize,
            effort: (counts.decisions, counts.backtracks),
        },
    );
    (result, counts)
}

/// Wall-clock seconds of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}
