//! The scanft benchmark: seeded `flow`, `atpg_opt` and `serve` workloads.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 \
//!           [--scanft PATH] [--out-dir DIR]
//! perfbench setup flow|atpg_opt SEED
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric, the tracing overhead
//! and the share of wall time the layers' self times cover. The last line
//! of standard output is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. Any failed correctness check
//! exits 1. `setup` runs one batch set-up in a fresh process and prints
//! its seconds; a batch run calls it for its further set-ups. See
//! README.md in this directory for the metric definitions.

mod batch;
mod host;
mod json;
mod mix;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use batch::{Batch, JobResult, LayerCounts, Prepared};
use host::CpuTimes;
use serve::{RoundLimit, Scrape, Served};
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median. The first precedes the
/// measured region, the others are spread over it (their time left out of
/// it), so that `setup_s`, like the throughput, samples the whole run
/// rather than the few seconds before it.
const SETUP_REPS: usize = 7;
/// Jobs a run needs so that 10 samples lie beyond its 90th percentile.
const MIN_JOBS: usize = 100;
/// Hard stop for the measured region, whatever the job count.
const MAX_SECONDS: f64 = 120.0;

/// End-to-end metrics: name and unit, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("faults_per_s", "1/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("success_pct", "%"),
    ("peak_rss_mb", "MB"),
    ("fault_coverage_pct", "%"),
    ("test_cycles_pct", "%"),
];

/// Per-layer metrics: name and unit. Batch values are per pass, `serve`
/// values per round; a layer a workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("fsm.uio.busy_s", "s"),
    ("fsm.uio.nodes_expanded", "count"),
    ("core.generate.busy_s", "s"),
    ("core.generate.tests", "count"),
    ("synth.busy_s", "s"),
    ("synth.gates", "count"),
    ("sim.narrow.stuck_busy_s", "s"),
    ("sim.narrow.bridging_busy_s", "s"),
    ("sim.narrow.gate_evals", "count"),
    ("sim.exhaustive.busy_s", "s"),
    ("sim.exhaustive.calls", "count"),
    ("sim.exhaustive.undetectable_pct", "%"),
    ("sim.collapse.busy_s", "s"),
    ("sim.collapse.kept_pct", "%"),
    ("sim.drop.busy_s", "s"),
    ("sim.drop.calls", "count"),
    ("analyze.busy_s", "s"),
    ("analyze.implication_literals", "count"),
    ("analyze.pruned", "count"),
    ("opt.optimize.busy_s", "s"),
    ("opt.check.busy_s", "s"),
    ("opt.certificate_steps", "count"),
    ("opt.gates_removed_pct", "%"),
    ("atpg.podem.busy_s", "s"),
    ("atpg.podem.targets", "count"),
    ("atpg.podem.decisions", "count"),
    ("atpg.podem.backtracks", "count"),
    ("atpg.podem.aborted", "count"),
    ("atpg.podem.test_pct", "%"),
    ("atpg.drop_pct", "%"),
    ("server.submit.ms_p50", "ms"),
    ("server.status.ms_p50", "ms"),
    ("server.polls_per_job", "count"),
    ("server.queue_wait.ms_p50", "ms"),
    ("server.cache.hit_pct", "%"),
    ("server.cache.build_s", "s"),
    ("server.campaign.busy_s", "s"),
    ("server.campaign.gate_evals", "count"),
    ("server.testgen.busy_s", "s"),
    ("server.topup.busy_s", "s"),
    ("harness.units", "count"),
    ("harness.journal_bytes", "bytes"),
    ("server.wal_bytes", "bytes"),
    ("trace.overhead_pct", "%"),
    ("trace.layer_self_pct", "%"),
];

/// Command-line arguments of a run.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scanft: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        scanft: None,
        out_dir: PathBuf::from(".bench_runs"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} must be {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload.clone_from(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad("in (0, 60]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--scanft" => args.scanft = Some(PathBuf::from(value)),
            "--out-dir" => args.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() || args.seconds == 0.0 {
        return Err("--workload and --seconds are required".to_owned());
    }
    Ok(args)
}

/// What a run prints.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    fn set(&mut self, list: &[(&'static str, &'static str)], values: &BTreeMap<&str, f64>) {
        self.metrics = list
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect();
    }

    fn print(&self) -> bool {
        for (name, value, unit) in &self.metrics {
            println!("  {name:<34} {value:>16.6} {unit}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        for problem in self.problems.iter().take(20) {
            eprintln!("CHECK FAILED: {problem}");
        }
        let correct = self.problems.is_empty();
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(name),
                    json::number(*value),
                    json::quote(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
        correct
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("setup") {
        return setup_command(&argv[1..]);
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload flow|atpg_opt|serve --seed N --seconds S --trace 0|1 [--scanft PATH] [--out-dir DIR]");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let load_before = host::load_average();
    let cpu_before = CpuTimes::now();
    let sched_before = host::thread_sched_secs();
    let result = match (batch_kind(&args.workload), args.workload.as_str()) {
        (Some(kind), _) => run_batch(kind, &args),
        (None, "serve") => run_serve(&args),
        (None, other) => Err(format!(
            "unknown workload `{other}` (flow, atpg_opt, serve)"
        )),
    };
    let mut report = match result {
        Ok(report) => report,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    let sched = host::thread_sched_secs();
    report.notes.push(format!(
        "host: steal_pct={:.3} main_thread_cpu_s={:.3} main_thread_runq_wait_s={:.3} loadavg_1m_before={load_before:.2} loadavg_1m_after={:.2} nproc={}",
        CpuTimes::now().steal_pct_since(&cpu_before),
        sched.0 - sched_before.0,
        sched.1 - sched_before.1,
        host::load_average(),
        std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
    ));
    if report.print() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn median_of(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Job-time percentiles: the median `p50` of the job times `ms` and, when
/// 10 of them lie beyond it, the 90th percentile.
fn latency_metrics(
    p50: f64,
    ms: &[f64],
    values: &mut BTreeMap<&str, f64>,
    notes: &mut Vec<String>,
) {
    values.insert("job_ms_p50", p50);
    match stats::percentile(ms, 90.0) {
        Some((p90, beyond)) => {
            values.insert("job_ms_p90", p90);
            notes.push(format!("job_ms_p90: {} samples, {beyond} beyond", ms.len()));
        }
        None => notes.push(format!(
            "job_ms_p90: only {} samples, fewer than {} beyond the 90th percentile; not reported",
            ms.len(),
            stats::MIN_BEYOND
        )),
    }
}

/// Set-up of a batch workload: generate the inputs from the seed, parse
/// their KISS2 text and warm up with one job on each middle-mode machine.
fn batch_setup(kind: Batch, seed: u64) -> Result<Vec<Prepared>, String> {
    let (modes, tag) = match kind {
        Batch::Flow => (&mix::FLOW, "flow"),
        Batch::AtpgOpt => (&mix::ATPG_OPT, "atpg"),
    };
    let prepared = batch::prepare(&mix::batch_inputs(modes, tag, seed), kind)?;
    for &(name, _) in modes.middle {
        let warm = prepared
            .iter()
            .find(|p| p.name == name)
            .ok_or("the warm-up machines are in the suite")?;
        let _ = batch::run_job(kind, warm);
    }
    Ok(prepared)
}

/// The set-ups of one run: their times, spread evenly over the measured
/// region, and any problem a repeated set-up found (which stops further
/// ones).
struct Setups {
    secs: Vec<f64>,
    problems: Vec<String>,
    seconds: f64,
}

impl Setups {
    fn new(first_secs: f64, seconds: f64) -> Self {
        Setups {
            secs: vec![first_secs],
            problems: Vec::new(),
            seconds,
        }
    }

    fn wanted(&self) -> bool {
        self.problems.is_empty() && self.secs.len() < SETUP_REPS
    }

    fn record(&mut self, result: Result<f64, String>) {
        match result {
            Ok(secs) => self.secs.push(secs),
            Err(e) => self.problems.push(e),
        }
    }

    /// Sets up once more if the next set-up is due after `measured`
    /// seconds of the run.
    fn between(&mut self, measured: f64, setup: &mut dyn FnMut() -> Result<f64, String>) {
        let due = self.secs.len() as f64 * self.seconds / SETUP_REPS as f64;
        if self.wanted() && measured >= due {
            self.record(setup());
        }
    }

    /// Sets up until there are [`SETUP_REPS`] set-ups; returns their median.
    fn finish(&mut self, setup: &mut dyn FnMut() -> Result<f64, String>) -> f64 {
        while self.wanted() {
            self.record(setup());
        }
        median_of(&self.secs)
    }
}

/// Runs whole passes, calling `between` with the measured seconds so far
/// after each job (its own time is not measured). Returns `(input index,
/// seconds, result)` per job, the number of passes and the measured time.
fn run_passes(
    kind: Batch,
    seed: u64,
    prepared: &[Prepared],
    seconds: f64,
    min_jobs: usize,
    between: &mut dyn FnMut(f64),
) -> (Vec<(usize, f64, JobResult)>, u64, f64) {
    let mut wall = 0.0;
    let mut jobs = Vec::new();
    let mut pass = 0u64;
    loop {
        if pass > 0 && ((wall >= seconds && jobs.len() >= min_jobs) || wall >= MAX_SECONDS) {
            break;
        }
        for i in mix::shuffled(seed, pass, prepared.len()) {
            let start = Instant::now();
            let (result, secs) = batch::timed(|| batch::run_job(kind, &prepared[i]));
            jobs.push((i, secs, result));
            wall += start.elapsed().as_secs_f64();
            between(wall);
        }
        pass += 1;
    }
    (jobs, pass, wall)
}

/// Correctness of a batch run: every job's own checks, and every repeat
/// of a machine (across passes and copies) reporting the same result.
fn batch_problems(prepared: &[Prepared], jobs: &[(usize, f64, JobResult)]) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    let mut failed = 0;
    let mut first: BTreeMap<&str, u64> = BTreeMap::new();
    for (i, _, result) in jobs {
        let name = prepared[*i].name.as_str();
        let mut bad = !result.problems.is_empty();
        problems.extend(result.problems.iter().cloned());
        if *first.entry(name).or_insert(result.fingerprint) != result.fingerprint {
            problems.push(format!("{name}: a repeat reported a different result"));
            bad = true;
        }
        failed += u64::from(bad);
    }
    (problems, failed)
}

fn batch_kind(workload: &str) -> Option<Batch> {
    match workload {
        "flow" => Some(Batch::Flow),
        "atpg_opt" => Some(Batch::AtpgOpt),
        _ => None,
    }
}

/// `perfbench setup WORKLOAD SEED`: one batch set-up, its seconds printed.
fn setup_command(argv: &[String]) -> ExitCode {
    let parsed = match argv {
        [workload, seed] => batch_kind(workload).zip(seed.parse::<u64>().ok()),
        _ => None,
    };
    let Some((kind, seed)) = parsed else {
        eprintln!("usage: perfbench setup flow|atpg_opt SEED");
        return ExitCode::from(2);
    };
    match batch::timed(|| batch_setup(kind, seed)) {
        (Ok(_), secs) => {
            println!("{}", json::number(secs));
            ExitCode::SUCCESS
        }
        (Err(e), _) => {
            eprintln!("perfbench setup: {e}");
            ExitCode::from(1)
        }
    }
}

/// One batch set-up in a fresh process (so that it leaves nothing in this
/// process's heap or peak RSS); returns its seconds.
fn batch_setup_child(workload: &str, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["setup", workload, &seed.to_string()])
        .output()
        .map_err(|e| format!("running a set-up: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse() {
        Ok(secs) if out.status.success() => Ok(secs),
        _ => Err(format!(
            "a repeated set-up failed ({}): {}{}",
            out.status,
            text.trim(),
            String::from_utf8_lossy(&out.stderr).trim()
        )),
    }
}

fn run_batch(kind: Batch, args: &Args) -> Result<Report, String> {
    let (prepared, secs) = batch::timed(|| batch_setup(kind, args.seed));
    let prepared = prepared?;
    if args.trace {
        return trace_batch(kind, args, &prepared);
    }
    let mut setups = Setups::new(secs, args.seconds);
    let mut again = || batch_setup_child(&args.workload, args.seed);
    // The high-water mark covers the measured region, not set-up.
    host::reset_peak_rss();
    let (jobs, passes, wall) = run_passes(
        kind,
        args.seed,
        &prepared,
        args.seconds,
        MIN_JOBS,
        &mut |measured| setups.between(measured, &mut again),
    );
    let peak_rss_mb = host::peak_rss_mb("self").unwrap_or(0.0);
    let setup_s = setups.finish(&mut again);
    let (mut problems, failed) = batch_problems(&prepared, &jobs);
    problems.extend(setups.problems);
    let mut report = Report {
        attempted: jobs.len() as u64,
        failed,
        problems,
        ..Report::default()
    };
    let faults: u64 = jobs.iter().map(|j| j.2.faults).sum();
    let detected: u64 = jobs.iter().map(|j| j.2.detected).sum();
    // Each suite entry's percentage, once per pass entry (the seeded
    // random machines are left out so the figure is the same for every
    // seed).
    let mut cycles = vec![None; prepared.len()];
    for (i, _, result) in jobs.iter().filter(|j| prepared[j.0].suite) {
        cycles[*i] = Some(result.cycles_pct);
    }
    let cycles: Vec<f64> = cycles.into_iter().flatten().collect();
    // Each job counts at its machine's mean time over the run: a batch run
    // repeats every machine, so a percentile reads one machine's time,
    // averaged over all of the run, not one repeat caught in a fast or a
    // slow moment of the host.
    let by_machine: Vec<(&str, f64)> = jobs
        .iter()
        .map(|j| (prepared[j.0].name.as_str(), j.1 * 1e3))
        .collect();
    let ms = stats::group_means(&by_machine);
    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("jobs_per_s", jobs.len() as f64 / wall);
    values.insert("faults_per_s", faults as f64 / wall);
    latency_metrics(median_of(&ms), &ms, &mut values, &mut report.notes);
    values.insert(
        "success_pct",
        100.0 * (report.attempted - failed) as f64 / report.attempted as f64,
    );
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert(
        "fault_coverage_pct",
        100.0 * detected as f64 / faults.max(1) as f64,
    );
    values.insert(
        "test_cycles_pct",
        cycles.iter().sum::<f64>() / cycles.len() as f64,
    );
    report.set(END_TO_END, &values);
    report.notes.push(format!(
        "run: {passes} passes of {} jobs in {wall:.3} s",
        prepared.len()
    ));
    let per_pass: Vec<String> = jobs
        .chunks(prepared.len())
        .map(|pass| format!("{:.2}", pass.iter().map(|j| j.1).sum::<f64>()))
        .collect();
    report
        .notes
        .push(format!("pass seconds: {}", per_pass.join(" ")));
    let mut means: Vec<(f64, &str)> = by_machine
        .iter()
        .zip(&ms)
        .map(|(&(name, _), &mean)| (mean, name))
        .collect();
    means.sort_by(|a, b| a.0.total_cmp(&b.0));
    means.dedup_by(|a, b| a.1 == b.1);
    let means: Vec<String> = means
        .iter()
        .map(|(ms, name)| format!("{name}={ms:.1}"))
        .collect();
    report
        .notes
        .push(format!("job ms by machine (mean): {}", means.join(" ")));
    Ok(report)
}

/// The traced batch run: an untraced half-length run, then a traced
/// replay of exactly the same passes whose results must match it.
fn trace_batch(kind: Batch, args: &Args, prepared: &[Prepared]) -> Result<Report, String> {
    let (jobs, passes, wall_plain) = run_passes(
        kind,
        args.seed,
        prepared,
        args.seconds / 2.0,
        0,
        &mut |_| {},
    );
    let (mut problems, mut failed) = batch_problems(prepared, &jobs);
    let registry = scanft_obs::global();
    let counter = |name: &str| registry.counter(name).get() as f64;
    let names = [
        "fsm.uio.nodes_expanded",
        "core.generate.tests_emitted",
        "sim.kernel.gate_evals",
        "analyze.implications.literals",
    ];
    let before: Vec<f64> = names.iter().map(|n| counter(n)).collect();
    let mut tracer = Tracer::default();
    let mut counts = LayerCounts::default();
    let start = Instant::now();
    let mut id = 0u64;
    for pass in 0..passes {
        for i in mix::shuffled(args.seed, pass, prepared.len()) {
            let (result, c) = batch::run_job_traced(kind, &prepared[i], &mut tracer, id);
            counts += c;
            let plain = &jobs[id as usize];
            if plain.0 != i || plain.2 != result {
                problems.push(format!(
                    "{}: the traced replay reported a different result than the untraced job",
                    prepared[i].name
                ));
                failed += 1;
            }
            id += 1;
        }
    }
    let wall_traced = start.elapsed().as_secs_f64();
    let delta: Vec<f64> = names
        .iter()
        .zip(&before)
        .map(|(n, b)| counter(n) - b)
        .collect();

    let p = passes as f64;
    let selfs = tracer.self_times();
    let busy = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / p;
    let calls = tracer.counts();
    let ncalls = |name: &str| calls.get(name).copied().unwrap_or(0) as f64 / p;
    let pct = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            100.0 * num as f64 / den as f64
        }
    };
    let layer_self: f64 = selfs
        .iter()
        .filter(|(n, _)| **n != "job")
        .map(|(_, s)| s)
        .sum();
    let mut v = BTreeMap::new();
    v.insert("fsm.uio.busy_s", busy("fsm.uio"));
    v.insert("fsm.uio.nodes_expanded", delta[0] / p);
    v.insert("core.generate.busy_s", busy("core.generate"));
    v.insert("core.generate.tests", delta[1] / p);
    v.insert("synth.busy_s", busy("synth"));
    v.insert("synth.gates", counts.gates as f64 / p);
    v.insert("sim.narrow.stuck_busy_s", busy("sim.narrow.stuck"));
    v.insert("sim.narrow.bridging_busy_s", busy("sim.narrow.bridging"));
    v.insert("sim.narrow.gate_evals", delta[2] / p);
    v.insert("sim.exhaustive.busy_s", busy("sim.exhaustive"));
    v.insert("sim.exhaustive.calls", ncalls("sim.exhaustive"));
    v.insert(
        "sim.exhaustive.undetectable_pct",
        pct(
            counts.undetectable,
            calls.get("sim.exhaustive").copied().unwrap_or(0) as u64,
        ),
    );
    v.insert("sim.collapse.busy_s", busy("sim.collapse"));
    v.insert("sim.collapse.kept_pct", pct(counts.kept, counts.universe));
    v.insert("sim.drop.busy_s", busy("sim.drop"));
    v.insert("sim.drop.calls", ncalls("sim.drop"));
    v.insert(
        "analyze.busy_s",
        busy("analyze.analysis") + busy("analyze.prune"),
    );
    v.insert("analyze.implication_literals", delta[3] / p);
    v.insert("analyze.pruned", counts.pruned as f64 / p);
    v.insert("opt.optimize.busy_s", busy("opt.optimize"));
    v.insert("opt.check.busy_s", busy("opt.check"));
    v.insert("opt.certificate_steps", counts.certificate_steps as f64 / p);
    v.insert(
        "opt.gates_removed_pct",
        pct(counts.gates_removed, counts.gates),
    );
    v.insert("atpg.podem.busy_s", busy("atpg.podem") + busy("atpg.init"));
    v.insert("atpg.podem.targets", counts.targets as f64 / p);
    v.insert("atpg.podem.decisions", counts.decisions as f64 / p);
    v.insert("atpg.podem.backtracks", counts.backtracks as f64 / p);
    v.insert("atpg.podem.aborted", counts.aborted as f64 / p);
    v.insert("atpg.podem.test_pct", pct(counts.tests, counts.targets));
    v.insert("atpg.drop_pct", pct(counts.dropped, counts.detected_atpg));
    v.insert(
        "trace.overhead_pct",
        100.0 * (wall_traced - wall_plain) / wall_plain,
    );
    v.insert("trace.layer_self_pct", 100.0 * layer_self / wall_traced);
    let mut report = Report {
        attempted: jobs.len() as u64 + id,
        failed,
        problems,
        ..Report::default()
    };
    report.set(PER_LAYER, &v);
    report.notes.push(format!(
        "trace: {passes} passes, untraced {wall_plain:.3} s, traced {wall_traced:.3} s, {} spans",
        tracer.spans().len()
    ));
    report.notes.push(write_spans(args, &tracer));
    Ok(report)
}

fn write_spans(args: &Args, tracer: &Tracer) -> String {
    let path = args
        .out_dir
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    let written = std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
    match written {
        Ok(()) => format!("spans: {}", path.display()),
        Err(e) => format!("spans: not written to {}: {e}", path.display()),
    }
}

/// References for every serve machine, computed outside the timed region.
struct ServeRefs {
    hot: Vec<(serve::Expected, serve::Expected)>,
    fresh: Vec<serve::Expected>,
    cycles_pct: f64,
}

fn serve_refs(hot: &[mix::Input], fresh: &[mix::Input]) -> Result<ServeRefs, String> {
    let mut refs = ServeRefs {
        hot: Vec::new(),
        fresh: Vec::new(),
        cycles_pct: 0.0,
    };
    for input in hot {
        let (sim, atpg, pct) = serve::reference(input)?;
        refs.hot.push((sim, atpg));
        refs.cycles_pct += pct / hot.len() as f64;
    }
    for input in fresh {
        refs.fresh.push(serve::reference(input)?.0);
    }
    Ok(refs)
}

fn scanft_path(args: &Args) -> Result<&Path, String> {
    args.scanft
        .as_deref()
        .ok_or_else(|| "the serve workload needs --scanft PATH".to_owned())
}

fn run_serve(args: &Args) -> Result<Report, String> {
    let scanft = scanft_path(args)?;
    let work = args
        .out_dir
        .join(format!("serve-{}-{}", args.seed, std::process::id()));
    let result = if args.trace {
        trace_serve(args, scanft, &work)
    } else {
        measure_serve(args, scanft, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    result
}

fn measure_serve(args: &Args, scanft: &Path, work: &Path) -> Result<Report, String> {
    let (hot, fresh) = mix::serve_machines(args.seed);
    let (server, secs) = serve::setup(scanft, &work.join("rep0"), &hot)?;
    let mut setups = Setups::new(secs, args.seconds);
    // Each further set-up spawns a server of its own, fills its cache and
    // drains it; the measured server waits meanwhile.
    let mut rep = 0;
    let mut again = || {
        rep += 1;
        let dir = work.join(format!("rep{rep}"));
        let result = serve::setup(scanft, &dir, &hot).map(|(again, secs)| {
            again.drain();
            secs
        });
        let _ = std::fs::remove_dir_all(&dir);
        result
    };
    let client = scanft_server::Client::new(server.addr);
    let limit = RoundLimit::Time {
        seconds: args.seconds,
        min_jobs: MIN_JOBS,
        max_seconds: MAX_SECONDS,
    };
    let (served, rounds, wall) = serve::run_rounds(
        &client,
        args.seed,
        &hot,
        &fresh,
        limit,
        None,
        &mut |measured| setups.between(measured, &mut again),
    );
    let rss = host::peak_rss_mb(&server.pid().to_string()).unwrap_or(0.0);
    server.drain();
    let setup_s = setups.finish(&mut again);

    let refs = serve_refs(&hot, &fresh)?;
    let (mut problems, failed) = serve::check(&served, &refs.hot, &refs.fresh);
    problems.extend(setups.problems);
    let mut report = Report {
        attempted: served.len() as u64,
        failed,
        problems,
        ..Report::default()
    };
    let done: Vec<&Served> = served.iter().filter(|s| s.completed()).collect();
    let field = |f: fn(&scanft_server::JobView) -> Option<u64>| -> u64 {
        done.iter()
            .filter_map(|s| s.view.as_ref().and_then(f))
            .sum()
    };
    let faults = field(|v| v.faults);
    let detected = field(|v| v.detected);
    // A refused or failed job misses every latency limit.
    let ms: Vec<f64> = served
        .iter()
        .map(|s| s.ms.filter(|_| s.completed()).unwrap_or(f64::INFINITY))
        .collect();
    let mut values = BTreeMap::new();
    values.insert("setup_s", setup_s);
    values.insert("jobs_per_s", done.len() as f64 / wall);
    values.insert("faults_per_s", faults as f64 / wall);
    latency_metrics(median_of(&ms), &ms, &mut values, &mut report.notes);
    values.insert(
        "success_pct",
        100.0 * done.len() as f64 / report.attempted.max(1) as f64,
    );
    values.insert("peak_rss_mb", rss);
    values.insert(
        "fault_coverage_pct",
        100.0 * detected as f64 / faults.max(1) as f64,
    );
    values.insert("test_cycles_pct", refs.cycles_pct);
    report.set(END_TO_END, &values);
    report.notes.push(format!(
        "run: {rounds} rounds of {} jobs in {wall:.3} s",
        mix::serve_round(args.seed, 0).len()
    ));
    Ok(report)
}

/// The traced serve run: an untraced half-length run on one server, then
/// the same rounds replayed with client spans on a fresh server, with
/// `/metrics` scraped around the replay.
fn trace_serve(args: &Args, scanft: &Path, work: &Path) -> Result<Report, String> {
    let (hot, fresh) = mix::serve_machines(args.seed);
    let (server, _) = serve::setup(scanft, &work.join("plain"), &hot)?;
    let client = scanft_server::Client::new(server.addr);
    let limit = RoundLimit::Time {
        seconds: args.seconds / 2.0,
        min_jobs: 0,
        max_seconds: MAX_SECONDS / 2.0,
    };
    let (plain, rounds, wall_plain) =
        serve::run_rounds(&client, args.seed, &hot, &fresh, limit, None, &mut |_| {});
    server.drain();

    let (server, _) = serve::setup(scanft, &work.join("traced"), &hot)?;
    let client = scanft_server::Client::new(server.addr);
    let scrape = || {
        client
            .metrics()
            .map(|text| Scrape::parse(&text))
            .map_err(|e| format!("scraping /metrics: {e}"))
    };
    let before = scrape()?;
    // Set-up's jobs wrote to both before the replay; only the replay's
    // bytes count.
    let journal_before = serve::dir_bytes(&server.journal_dir);
    let wal_before = serve::dir_bytes(&server.state_dir);
    let mut tracer = Tracer::default();
    let (traced, _, wall_traced) = serve::run_rounds(
        &client,
        args.seed,
        &hot,
        &fresh,
        RoundLimit::Rounds(rounds),
        Some(&mut tracer),
        &mut |_| {},
    );
    let after = scrape()?;
    let journal_bytes = serve::dir_bytes(&server.journal_dir).saturating_sub(journal_before);
    let wal_bytes = serve::dir_bytes(&server.state_dir).saturating_sub(wal_before);
    server.drain();

    let refs = serve_refs(&hot, &fresh)?;
    let (mut problems, mut failed) = serve::check(&plain, &refs.hot, &refs.fresh);
    let (more, more_failed) = serve::check(&traced, &refs.hot, &refs.fresh);
    problems.extend(more);
    failed += more_failed;
    let mut report = Report {
        attempted: (plain.len() + traced.len()) as u64,
        failed,
        problems,
        ..Report::default()
    };
    let r = rounds as f64;
    let d = |name: &str| after.delta(&before, name);
    let ms_p50 = |name: &str| median_of(&tracer.durations(name)) * 1e3;
    let hits = d("server.cache.hits");
    let lookups = hits + d("server.cache.misses");
    let targets = d("atpg.tests") + d("atpg.redundant") + d("atpg.aborted");
    let pct = |num: f64, den: f64| if den == 0.0 { 0.0 } else { 100.0 * num / den };
    let queue_waits: Vec<f64> = traced.iter().filter_map(|s| s.queue_wait_ms).collect();
    let polls: u64 = traced.iter().map(|s| s.polls).sum();
    let mut v = BTreeMap::new();
    v.insert("fsm.uio.busy_s", d("fsm.uio.derive") / r);
    v.insert("fsm.uio.nodes_expanded", d("fsm.uio.nodes_expanded") / r);
    v.insert("core.generate.busy_s", d("core.generate") / r);
    v.insert("core.generate.tests", d("core.generate.tests_emitted") / r);
    v.insert("synth.busy_s", d("synth.synthesize") / r);
    v.insert("synth.gates", d("netlist.gates_built") / r);
    v.insert(
        "analyze.busy_s",
        (d("analyze.implications_secs") + d("analyze.scoap_secs")) / r,
    );
    v.insert(
        "analyze.implication_literals",
        d("analyze.implications.literals") / r,
    );
    v.insert("analyze.pruned", d("analyze.prune.untestable") / r);
    v.insert("atpg.podem.targets", targets / r);
    v.insert("atpg.podem.decisions", d("atpg.decisions") / r);
    v.insert("atpg.podem.backtracks", d("atpg.backtracks") / r);
    v.insert("atpg.podem.aborted", d("atpg.aborted") / r);
    v.insert("atpg.podem.test_pct", pct(d("atpg.tests"), targets));
    v.insert("server.submit.ms_p50", ms_p50("server.submit"));
    v.insert("server.status.ms_p50", ms_p50("server.status"));
    v.insert(
        "server.polls_per_job",
        polls as f64 / traced.len().max(1) as f64,
    );
    v.insert("server.queue_wait.ms_p50", median_of(&queue_waits));
    v.insert("server.cache.hit_pct", pct(hits, lookups));
    v.insert("server.cache.build_s", d("server.cache.build") / r);
    v.insert("server.campaign.busy_s", d("sim.campaign.supervised") / r);
    v.insert("server.campaign.gate_evals", d("sim.kernel.gate_evals") / r);
    v.insert(
        "server.testgen.busy_s",
        (d("fsm.uio.derive") + d("core.generate")) / r,
    );
    v.insert("server.topup.busy_s", d("core.top_up") / r);
    v.insert("harness.units", d("harness.units_completed") / r);
    v.insert("harness.journal_bytes", journal_bytes as f64 / r);
    v.insert("server.wal_bytes", wal_bytes as f64 / r);
    v.insert(
        "trace.overhead_pct",
        100.0 * (wall_traced - wall_plain) / wall_plain,
    );
    let layer_self: f64 = tracer
        .self_times()
        .iter()
        .filter(|(n, _)| **n != "serve.job")
        .map(|(_, s)| s)
        .sum();
    v.insert("trace.layer_self_pct", 100.0 * layer_self / wall_traced);
    report.set(PER_LAYER, &v);
    report.notes.push(format!(
        "trace: {rounds} rounds, untraced {wall_plain:.3} s, traced {wall_traced:.3} s, {} spans",
        tracer.spans().len()
    ));
    report.notes.push(write_spans(args, &tracer));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists printed here are the ones `BENCHMARK.json` declares,
    /// in name and unit.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).unwrap();
        let end_to_end = spec.find("\"end_to_end\"").unwrap();
        let per_layer = spec.find("\"per_layer\"").unwrap();
        assert!(
            end_to_end < per_layer,
            "end_to_end is declared before per_layer"
        );
        for (text, list) in [
            (&spec[end_to_end..per_layer], END_TO_END),
            (&spec[per_layer..], PER_LAYER),
        ] {
            let declared: Vec<(&str, &str)> = json::strings(text, "name")
                .into_iter()
                .zip(json::strings(text, "unit"))
                .collect();
            assert_eq!(declared, list.to_vec());
        }
    }

    #[test]
    fn setups_are_spread_over_the_run() {
        // A run of SETUP_REPS seconds: a further set-up is due every second.
        let mut setups = Setups::new(1.0, SETUP_REPS as f64);
        let mut calls = Vec::new();
        // Jobs (or rounds) end at these measured seconds; at most one set-up
        // follows each.
        for measured in [0.5, 1.2, 1.5, 2.0, 10.0] {
            setups.between(measured, &mut || {
                calls.push(measured);
                Ok(2.0)
            });
        }
        assert_eq!(calls, [1.2, 2.0, 10.0]);
        // The rest follow the measured region.
        let median = setups.finish(&mut || Ok(3.0));
        assert_eq!(setups.secs.len(), SETUP_REPS);
        assert_eq!(setups.secs[..4], [1.0, 2.0, 2.0, 2.0]);
        assert!(setups.secs[4..].iter().all(|&s| s == 3.0));
        assert_eq!(median, median_of(&setups.secs));
        // A failed set-up is reported and stops further ones.
        let mut failing = Setups::new(1.0, 30.0);
        failing.between(10.0, &mut || Err("no server".to_owned()));
        failing.finish(&mut || panic!("no set-up after a failure"));
        assert_eq!(failing.problems, ["no server"]);
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let ok = args("--workload flow --seed 3 --seconds 20 --trace 1").unwrap();
        assert_eq!((ok.workload.as_str(), ok.seed, ok.trace), ("flow", 3, true));
        assert!(args("--workload flow --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload flow --seed x --seconds 5 --trace 0").is_err());
        assert!(args("--workload flow --seconds 5 --trace 2").is_err());
        assert!(args("--workload flow --seconds").is_err());
        assert!(args("--seed 1 --seconds 5").is_err());
    }
}
