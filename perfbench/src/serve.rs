//! The `serve` workload: one closed-loop client against a `scanft serve`
//! child process with a durable state directory.
//!
//! The client submits the seeded round mix and times every job from the
//! submit call to the first status poll that shows a terminal state,
//! polling at a fixed short interval (no backoff, no jitter). Served
//! results are checked against in-process one-shot references computed
//! after the timed region.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use scanft_core::cycles::{percent_of, test_set_cycles};
use scanft_core::generate::{generate, per_transition_baseline, GenConfig};
use scanft_core::top_up::{top_up_scan_with, TopUpConfig};
use scanft_fsm::kiss;
use scanft_fsm::uio::{derive_uios_with, UioConfig};
use scanft_fsm::StateTable;
use scanft_harness::Budget;
use scanft_server::{Client, JobKind, JobView};
use scanft_sim::campaign::{self, Kernel, SupervisedConfig};
use scanft_sim::faults;
use scanft_synth::{synthesize, SynthConfig};

use crate::json;
use crate::mix::{self, Input, ServeJob};
use crate::trace::Tracer;

/// Status-poll interval while a job runs.
pub const POLL: Duration = Duration::from_millis(1);
/// The only tenant (one per client, so content-hash dedupe never merges
/// two clients' jobs).
const TENANT: &str = "bench-client-0";

/// A running `scanft serve` child; killed and reaped on drop.
pub struct ServerProcess {
    child: Child,
    /// The child's standard output, kept open: the server prints a few
    /// more lines after its address, and a closed pipe would fail them.
    _stdout: BufReader<ChildStdout>,
    /// Its address.
    pub addr: SocketAddr,
    /// Its journal directory.
    pub journal_dir: PathBuf,
    /// Its state directory (holds `jobs.wal`).
    pub state_dir: PathBuf,
}

impl ServerProcess {
    /// Spawns `scanft serve` with its WAL and journals under `dir` and
    /// waits for the listening line.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a child that exits before listening.
    pub fn spawn(scanft: &Path, dir: &Path) -> Result<Self, String> {
        let journal_dir = dir.join("journals");
        let state_dir = dir.join("state");
        for d in [&journal_dir, &state_dir] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        // One worker running one campaign on one supervisor thread, next to
        // the polling client: busy threads stay below the two vCPUs of a
        // small host, so a host slowdown on either vCPU does not stall a
        // campaign whose threads wait on each other.
        let mut child = Command::new(scanft)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(["--workers", "1", "--threads", "1"])
            .arg("--journal-dir")
            .arg(&journal_dir)
            .arg("--state-dir")
            .arg(&state_dir)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", scanft.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("scanft serve: listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not report its address: {line:?}"));
        };
        Ok(ServerProcess {
            child,
            _stdout: stdout,
            addr,
            journal_dir,
            state_dir,
        })
    }

    /// The child's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Drains the server and waits (bounded) for it to exit.
    pub fn drain(mut self) {
        let _ = Client::new(self.addr).drain();
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills whatever is left.
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One submitted job as the client saw it.
#[derive(Debug, Clone)]
pub struct Served {
    /// What was submitted.
    pub job: ServeJob,
    /// Submit to terminal status, in ms (`None` when refused).
    pub ms: Option<f64>,
    /// Submit to the first status that is no longer `queued`, in ms.
    pub queue_wait_ms: Option<f64>,
    /// Status calls made.
    pub polls: u64,
    /// The terminal view (`None` when refused).
    pub view: Option<JobView>,
    /// Client-side error, if any.
    pub error: Option<String>,
}

impl Served {
    /// Whether the job completed.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.view.as_ref().is_some_and(|v| v.status == "completed")
    }
}

/// The submission body and name for `job` in `round`.
#[must_use]
pub fn submission(
    job: ServeJob,
    round: u64,
    hot: &[Input],
    fresh: &[Input],
) -> (String, String, JobKind) {
    match job {
        ServeJob::Simulate(i) => (hot[i].kiss.clone(), hot[i].name.clone(), JobKind::Simulate),
        ServeJob::Atpg(i) => (hot[i].kiss.clone(), hot[i].name.clone(), JobKind::Atpg),
        ServeJob::Fresh(i) => {
            let tag = format!("r{round}");
            (
                mix::relabel_states(&fresh[i].kiss, &tag),
                format!("{}-{tag}", fresh[i].name),
                JobKind::Simulate,
            )
        }
    }
}

/// Submits one job and polls its status every [`POLL`] until terminal.
/// With a tracer, each HTTP call gets a span inside a `serve.job` span.
pub fn run_one(
    client: &Client,
    job: ServeJob,
    body: &str,
    name: &str,
    kind: JobKind,
    mut tracer: Option<&mut Tracer>,
    id: u64,
) -> Served {
    let mut served = Served {
        job,
        ms: None,
        queue_wait_ms: None,
        polls: 0,
        view: None,
        error: None,
    };
    let start = Instant::now();
    if let Some(t) = tracer.as_deref_mut() {
        t.enter("serve.job", id);
    }
    let submitted = span(&mut tracer, "server.submit", id, || {
        client.submit(body, name, TENANT, kind)
    });
    match submitted {
        Err(e) => served.error = Some(format!("submit {name}: {e}")),
        Ok(view) => {
            let job_id = view.id;
            loop {
                std::thread::sleep(POLL);
                served.polls += 1;
                match span(&mut tracer, "server.status", id, || client.status(&job_id)) {
                    Err(e) => {
                        served.error = Some(format!("status {job_id}: {e}"));
                        break;
                    }
                    Ok(view) => {
                        let ms = start.elapsed().as_secs_f64() * 1e3;
                        if served.queue_wait_ms.is_none() && view.status != "queued" {
                            served.queue_wait_ms = Some(ms);
                        }
                        if view.is_terminal() {
                            served.ms = Some(ms);
                            served.view = Some(view);
                            break;
                        }
                    }
                }
            }
        }
    }
    if let Some(t) = tracer {
        t.exit();
    }
    served
}

fn span<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.leaf(name, id, f),
        None => f(),
    }
}

/// Runs whole rounds until `seconds` have been measured and at least
/// `min_jobs` jobs ran (bounded by `max_seconds`), or exactly `rounds`
/// rounds when given. After each round `between` gets the measured
/// seconds so far; its own time is not measured. Returns the jobs, the
/// rounds run and the measured time.
pub fn run_rounds(
    client: &Client,
    seed: u64,
    hot: &[Input],
    fresh: &[Input],
    limit: RoundLimit,
    mut tracer: Option<&mut Tracer>,
    between: &mut dyn FnMut(f64),
) -> (Vec<Served>, u64, f64) {
    let mut wall = 0.0;
    let mut served = Vec::new();
    let mut round = 0u64;
    loop {
        let done = match limit {
            RoundLimit::Rounds(n) => round >= n,
            RoundLimit::Time {
                seconds,
                min_jobs,
                max_seconds,
            } => {
                round > 0 && ((wall >= seconds && served.len() >= min_jobs) || wall >= max_seconds)
            }
        };
        if done {
            break;
        }
        let start = Instant::now();
        for job in mix::serve_round(seed, round) {
            let (body, name, kind) = submission(job, round, hot, fresh);
            let id = served.len() as u64;
            served.push(run_one(
                client,
                job,
                &body,
                &name,
                kind,
                tracer.as_deref_mut(),
                id,
            ));
        }
        wall += start.elapsed().as_secs_f64();
        round += 1;
        between(wall);
    }
    (served, round, wall)
}

/// When a sequence of rounds ends.
#[derive(Debug, Clone, Copy)]
pub enum RoundLimit {
    /// After this many rounds.
    Rounds(u64),
    /// After the first round that ends past `seconds` with at least
    /// `min_jobs` jobs, or past `max_seconds` regardless.
    Time {
        /// Measured time.
        seconds: f64,
        /// Jobs needed for the tail percentile.
        min_jobs: usize,
        /// Hard stop.
        max_seconds: f64,
    },
}

/// One set-up: spawn the server (opening its WAL) and fill the artifact
/// cache with the hot set. Returns the server and the seconds it took.
///
/// # Errors
///
/// Spawn failures and hot-set jobs that do not complete.
pub fn setup(scanft: &Path, dir: &Path, hot: &[Input]) -> Result<(ServerProcess, f64), String> {
    let start = Instant::now();
    let _ = std::fs::remove_dir_all(dir);
    let server = ServerProcess::spawn(scanft, dir)?;
    let client = Client::new(server.addr);
    for (i, input) in hot.iter().enumerate() {
        let s = run_one(
            &client,
            ServeJob::Simulate(i),
            &input.kiss,
            &input.name,
            JobKind::Simulate,
            None,
            0,
        );
        if !s.completed() {
            return Err(format!(
                "warm-up job on {} did not complete: {s:?}",
                input.name
            ));
        }
    }
    Ok((server, start.elapsed().as_secs_f64()))
}

/// What the in-process one-shot reference says a job must report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Detected faults.
    pub detected: u64,
    /// Total faults.
    pub faults: u64,
    /// Work units (`simulate`) or ATPG patterns (`atpg`).
    pub units: u64,
}

/// Computes the one-shot reference for a machine: the CLI's `simulate
/// --threads 1` on the server's default functional tests, and the
/// server's `atpg` top-up. Also returns Table 7's percentage for those
/// tests.
///
/// # Errors
///
/// Parse or campaign failures.
pub fn reference(input: &Input) -> Result<(Expected, Expected, f64), String> {
    let table: StateTable = kiss::parse_with(&input.kiss, &input.name, kiss::Completion::SelfLoop)
        .map_err(|e| e.to_string())?;
    let sv = table.num_state_vars();
    let circuit = synthesize(&table, &SynthConfig::default());
    let n = circuit.netlist();
    let uios = derive_uios_with(&table, &UioConfig::with_max_len(sv));
    let set = generate(&table, &uios, &GenConfig::default());
    let cycles_pct = percent_of(
        test_set_cycles(&set, sv),
        test_set_cycles(&per_transition_baseline(&table), sv),
    );
    let scan = set.to_scan_tests(&circuit);
    let fault_list = faults::as_fault_list(&faults::enumerate_stuck(n));
    let order = campaign::decreasing_length_order(&scan);
    let config = SupervisedConfig {
        num_threads: 1,
        budget: Budget::unlimited(),
        kernel: Kernel::Narrow,
        ..SupervisedConfig::default()
    };
    let partial =
        campaign::run_supervised(n, &scan, &order, &fault_list, &config, None, None, None)
            .map_err(|e| e.to_string())?;
    let simulate = Expected {
        detected: partial.report.detected() as u64,
        faults: fault_list.len() as u64,
        units: partial.num_units as u64,
    };
    let top = top_up_scan_with(n, &scan, &TopUpConfig::default(), None);
    let r = &top.report;
    let atpg = Expected {
        detected: (r.detected_functional() + r.detected_atpg()) as u64,
        faults: r.faults.len() as u64,
        units: r.atpg_patterns as u64,
    };
    Ok((simulate, atpg, cycles_pct))
}

/// Checks every served job against the references; returns the problems
/// and the number of jobs that failed (did not complete, or served a result
/// other than the reference's).
#[must_use]
pub fn check(
    served: &[Served],
    hot: &[(Expected, Expected)],
    fresh: &[Expected],
) -> (Vec<String>, u64) {
    let mut problems = Vec::new();
    for s in served {
        let Some(view) = s.view.as_ref().filter(|_| s.completed()) else {
            problems.push(format!(
                "{:?} did not complete: {:?} {:?}",
                s.job, s.view, s.error
            ));
            continue;
        };
        let want = match s.job {
            ServeJob::Simulate(i) => hot[i].0,
            ServeJob::Atpg(i) => hot[i].1,
            ServeJob::Fresh(i) => fresh[i],
        };
        let got = Expected {
            detected: view.detected.unwrap_or(u64::MAX),
            faults: view.faults.unwrap_or(u64::MAX),
            units: view.units.unwrap_or(u64::MAX),
        };
        if got != want {
            problems.push(format!(
                "{:?} ({}) served {got:?}, the one-shot reference gives {want:?}",
                s.job, view.id
            ));
        }
    }
    let failed = problems.len() as u64;
    (problems, failed)
}

/// A `/metrics` scrape: counter/gauge values and timer totals by name.
#[derive(Debug, Clone, Default)]
pub struct Scrape {
    values: BTreeMap<String, f64>,
}

impl Scrape {
    /// Parses the JSON-lines export.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut values = BTreeMap::new();
        for line in text.lines() {
            let Some(name) = json::field_str(line, "name") else {
                continue;
            };
            let value =
                json::field_num(line, "value").or_else(|| json::field_num(line, "total_secs"));
            if let Some(v) = value {
                values.insert(name.to_owned(), v);
            }
        }
        Scrape { values }
    }

    /// `self[name] - earlier[name]` (a missing metric reads 0).
    #[must_use]
    pub fn delta(&self, earlier: &Scrape, name: &str) -> f64 {
        let get = |s: &Scrape| s.values.get(name).copied().unwrap_or(0.0);
        get(self) - get(earlier)
    }
}

/// Total size in bytes of the regular files directly under `dir`.
#[must_use]
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
