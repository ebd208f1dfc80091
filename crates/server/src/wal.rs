//! The server's durable job write-ahead log.
//!
//! Every admission, claim, cancellation, and terminal transition is
//! appended (and flushed) to `<state-dir>/jobs.wal` *before* the action is
//! acknowledged, in the harness's torn-write-tolerant JSONL shape: one
//! header line, then one event per line, each written whole under a lock.
//! A crash can therefore damage at most the line being written, and replay
//! of the surviving prefix reconstructs the registry exactly:
//!
//! ```text
//! {"wal":"scanft-server","version":1}
//! {"event":"admit","id":"job-1","tenant":"default","circuit":"bbtas","kind":"simulate","idem":"...","sticky":false,"journal":"/x/job-1.jsonl","kiss":".i 2\n..."}
//! {"event":"claim","id":"job-1"}
//! {"event":"done","id":"job-1","status":"completed","coverage":97.25,"detected":389,"faults":400,"completed_units":7,"units":7}
//! ```
//!
//! The admit event embeds the canonical submission itself (KISS2 text and
//! the optional test section, JSON-escaped onto one line), so recovery
//! needs nothing but the state directory: no job body ever exists only in
//! memory once its 202 has been sent.
//!
//! race-lint: deterministic-replay — WAL replay must be a pure function of
//! the log bytes; nothing here may read a wall clock.

use crate::job::{JobKind, JobStatus};
use scanft_harness::json::{field_bool, field_f64, field_str, field_u64};
use scanft_harness::{FailurePlan, JsonlWriter, ScanftError};

/// Magic value identifying a server WAL header line.
const MAGIC: &str = "scanft-server";
/// Format version, bumped on incompatible event changes.
const VERSION: u64 = 1;

/// The payload of an admission event: everything recovery needs to rebuild
/// the job, including the submission text itself.
#[derive(Debug, Clone, PartialEq)]
pub struct WalAdmit {
    /// Assigned job id (`job-<n>`).
    pub id: String,
    /// Owning tenant.
    pub tenant: String,
    /// Circuit name (the KISS2 parse name).
    pub circuit: String,
    /// Campaign kind.
    pub kind: JobKind,
    /// Idempotency key the job was admitted under.
    pub idem: String,
    /// Whether the key is sticky (client-supplied `Idempotency-Key`,
    /// deduped forever) or the content-hash default (deduped only while
    /// the job is active).
    pub sticky: bool,
    /// Journal file the campaign writes.
    pub journal_path: String,
    /// The KISS2 section of the submission body.
    pub kiss: String,
    /// The `.tests` section of the submission body, when present.
    pub tests: Option<String>,
}

/// One replayed WAL event.
#[derive(Debug, Clone, PartialEq)]
pub enum WalEvent {
    /// A job was admitted (logged before the 202 was sent).
    Admit(
        /// The admission payload.
        WalAdmit,
    ),
    /// A worker claimed the job (logged before it starts running).
    Claim(
        /// The job id.
        String,
    ),
    /// `DELETE /jobs/:id` requested cancellation.
    Cancel(
        /// The job id.
        String,
    ),
    /// The job reached a terminal status.
    Done(
        /// The job id.
        String,
        /// The terminal status (completed / cancelled / failed).
        JobStatus,
    ),
}

impl WalEvent {
    /// The id of the job the event concerns.
    #[must_use]
    pub fn id(&self) -> &str {
        match self {
            WalEvent::Admit(admit) => &admit.id,
            WalEvent::Claim(id) | WalEvent::Cancel(id) | WalEvent::Done(id, _) => id,
        }
    }
}

/// A parsed WAL: header validity, intact events in file order, and damage
/// counters.
#[derive(Debug, Clone, Default)]
pub struct Wal {
    /// Whether an intact header line was seen.
    pub header_ok: bool,
    /// Every event that parsed back intact, in file order.
    pub events: Vec<WalEvent>,
    /// Non-empty lines that failed to parse (torn writes).
    pub skipped_lines: usize,
}

/// The per-job outcome of replaying a WAL.
#[derive(Debug, Clone)]
pub struct WalJob {
    /// The admission payload.
    pub admit: WalAdmit,
    /// A claim event was logged (the job was running or about to run).
    pub claimed: bool,
    /// A cancel event was logged.
    pub cancelled: bool,
    /// The terminal status, when a done event was logged.
    pub done: Option<JobStatus>,
}

/// The registry state a WAL replays into.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Jobs in admission order.
    pub jobs: Vec<WalJob>,
    /// Highest assigned `job-<n>` ordinal (the id counter resumes above it).
    pub next_id: u64,
    /// Claim/cancel/done events whose admit line did not survive. Only a
    /// torn admit line can orphan events, so in practice this is 0 or
    /// tail-adjacent damage.
    pub orphan_events: usize,
}

/// Parses a WAL from its textual contents. Never fails: damaged lines are
/// counted in [`Wal::skipped_lines`] and otherwise ignored, exactly like
/// the campaign journal reader.
#[must_use]
pub fn read_wal(text: &str) -> Wal {
    let mut wal = Wal::default();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if parse_wal_header(line) {
            wal.header_ok = true;
        } else if let Some(event) = parse_event(line) {
            wal.events.push(event);
        } else {
            wal.skipped_lines += 1;
        }
    }
    wal
}

/// Reads and parses a WAL file. A missing file is an empty WAL (first boot).
pub fn read_wal_file(path: &str) -> Result<Wal, ScanftError> {
    match std::fs::read_to_string(path) {
        Ok(text) => Ok(read_wal(&text)),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(Wal::default()),
        Err(source) => Err(ScanftError::Io {
            path: path.to_owned(),
            source,
        }),
    }
}

/// Replays parsed events into per-job state plus the resumed id counter.
#[must_use]
pub fn replay(wal: &Wal) -> WalReplay {
    let mut out = WalReplay::default();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for event in &wal.events {
        if let Some(n) = event
            .id()
            .strip_prefix("job-")
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.next_id = out.next_id.max(n);
        }
        match event {
            WalEvent::Admit(admit) => {
                index.insert(admit.id.clone(), out.jobs.len());
                out.jobs.push(WalJob {
                    admit: admit.clone(),
                    claimed: false,
                    cancelled: false,
                    done: None,
                });
            }
            WalEvent::Claim(id) => match index.get(id) {
                Some(&i) => out.jobs[i].claimed = true,
                None => out.orphan_events += 1,
            },
            WalEvent::Cancel(id) => match index.get(id) {
                Some(&i) => out.jobs[i].cancelled = true,
                None => out.orphan_events += 1,
            },
            WalEvent::Done(id, status) => match index.get(id) {
                Some(&i) => out.jobs[i].done = Some(status.clone()),
                None => out.orphan_events += 1,
            },
        }
    }
    out
}

fn parse_wal_header(line: &str) -> bool {
    line.starts_with('{')
        && field_str(line, "wal").as_deref() == Some(MAGIC)
        && field_u64(line, "version") == Some(VERSION)
}

fn parse_event(line: &str) -> Option<WalEvent> {
    if !line.starts_with('{') || !line.ends_with('}') {
        return None;
    }
    let id = field_str(line, "id")?;
    match field_str(line, "event")?.as_str() {
        "admit" => Some(WalEvent::Admit(WalAdmit {
            id,
            tenant: field_str(line, "tenant")?,
            circuit: field_str(line, "circuit")?,
            kind: JobKind::from_param(&field_str(line, "kind")?)?,
            idem: field_str(line, "idem")?,
            sticky: field_bool(line, "sticky")?,
            journal_path: field_str(line, "journal")?,
            kiss: field_str(line, "kiss")?,
            tests: field_str(line, "tests"),
        })),
        "claim" => Some(WalEvent::Claim(id)),
        "cancel" => Some(WalEvent::Cancel(id)),
        "done" => {
            let status = match field_str(line, "status")?.as_str() {
                "completed" => JobStatus::Completed {
                    coverage: field_f64(line, "coverage")?,
                    detected: usize::try_from(field_u64(line, "detected")?).ok()?,
                    faults: usize::try_from(field_u64(line, "faults")?).ok()?,
                    completed_units: usize::try_from(field_u64(line, "completed_units")?).ok()?,
                    units: usize::try_from(field_u64(line, "units")?).ok()?,
                },
                "cancelled" => JobStatus::Cancelled,
                "failed" => JobStatus::Failed(field_str(line, "message")?),
                _ => return None,
            };
            Some(WalEvent::Done(id, status))
        }
        _ => None,
    }
}

fn admit_json(admit: &WalAdmit) -> String {
    let esc = scanft_obs::escape_json_string;
    let mut out = format!(
        "{{\"event\":\"admit\",\"id\":\"{}\",\"tenant\":\"{}\",\"circuit\":\"{}\",\"kind\":\"{}\",\"idem\":\"{}\",\"sticky\":{},\"journal\":\"{}\",\"kiss\":\"{}\"",
        esc(&admit.id),
        esc(&admit.tenant),
        esc(&admit.circuit),
        admit.kind.name(),
        esc(&admit.idem),
        admit.sticky,
        esc(&admit.journal_path),
        esc(&admit.kiss),
    );
    if let Some(tests) = &admit.tests {
        out.push_str(&format!(",\"tests\":\"{}\"", esc(tests)));
    }
    out.push('}');
    out
}

fn done_json(id: &str, status: &JobStatus) -> String {
    let esc = scanft_obs::escape_json_string;
    let mut out = format!(
        "{{\"event\":\"done\",\"id\":\"{}\",\"status\":\"{}\"",
        esc(id),
        status.name()
    );
    match status {
        JobStatus::Completed {
            coverage,
            detected,
            faults,
            completed_units,
            units,
        } => out.push_str(&format!(
            ",\"coverage\":{coverage},\"detected\":{detected},\"faults\":{faults},\"completed_units\":{completed_units},\"units\":{units}"
        )),
        JobStatus::Failed(message) => {
            out.push_str(&format!(",\"message\":\"{}\"", esc(message)));
        }
        _ => {}
    }
    out.push('}');
    out
}

/// The append side of the WAL: one flushed line per event, written whole
/// under the writer's lock so concurrent admissions never interleave.
#[derive(Debug)]
pub struct WalWriter {
    inner: JsonlWriter,
}

impl WalWriter {
    /// Opens (appending) the WAL at `path`, writing the header line first
    /// when the file is new or empty.
    ///
    /// A crash can leave a torn final line (no trailing newline). That
    /// fragment must be truncated away *before* the first append: writing
    /// onto it would merge the garbage with the next event onto one line,
    /// so an acknowledged event would fail to parse on the following
    /// replay — and its later claim/done events would become orphans that
    /// make startup refuse forever.
    pub fn open(path: &str) -> Result<Self, ScanftError> {
        let io_err = |source| ScanftError::Io {
            path: path.to_owned(),
            source,
        };
        let existing = match std::fs::read(path) {
            Ok(bytes) => {
                if bytes.last().is_some_and(|&b| b != b'\n') {
                    let start = bytes
                        .iter()
                        .rposition(|&b| b == b'\n')
                        .map_or(0, |p| p + 1);
                    // The unterminated tail must be judged exactly the way
                    // `read_wal` judges it, so repair and replay agree on
                    // which events exist.
                    let tail = String::from_utf8_lossy(&bytes[start..]);
                    let tail = tail.trim();
                    if parse_wal_header(tail) || parse_event(tail).is_some() {
                        // The line made it out whole; only its newline was
                        // lost. Terminate it — truncating would delete an
                        // event the replay just restored.
                        use std::io::Write as _;
                        let mut file = std::fs::OpenOptions::new()
                            .append(true)
                            .open(path)
                            .map_err(io_err)?;
                        file.write_all(b"\n")
                            .and_then(|()| file.sync_data())
                            .map_err(io_err)?;
                        bytes.len() as u64 + 1
                    } else {
                        // Garbage fragment: drop it, keeping the longest
                        // prefix of complete lines (possibly empty, if
                        // even the header write was torn).
                        std::fs::OpenOptions::new()
                            .write(true)
                            .open(path)
                            .and_then(|file| file.set_len(start as u64))
                            .map_err(io_err)?;
                        start as u64
                    }
                } else {
                    bytes.len() as u64
                }
            }
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => 0,
            Err(source) => return Err(io_err(source)),
        };
        // The WAL is the server's source of truth across restarts, so it
        // takes the fsync-per-event grade: an acknowledged admission must
        // survive an OS crash, not just a killed process.
        let writer = WalWriter {
            inner: JsonlWriter::append_to(path)?.with_fsync(),
        };
        if existing == 0 {
            writer
                .inner
                .write_line_whole(&format!("{{\"wal\":\"{MAGIC}\",\"version\":{VERSION}}}"))
                .map_err(|source| ScanftError::Io {
                    path: path.to_owned(),
                    source,
                })?;
        }
        Ok(writer)
    }

    /// Attaches a chaos plan (crash drills tear/kill WAL appends too).
    #[must_use]
    pub fn with_chaos(mut self, plan: FailurePlan) -> Self {
        self.inner = self.inner.with_chaos(plan);
        self
    }

    /// Logs an admission. Called (and flushed) before the 202 is sent.
    pub fn log_admit(&self, admit: &WalAdmit) -> std::io::Result<()> {
        self.inner.write_line(&admit_json(admit))
    }

    /// Logs a claim. Called before the worker starts the campaign.
    pub fn log_claim(&self, id: &str) -> std::io::Result<()> {
        self.inner.write_line(&format!(
            "{{\"event\":\"claim\",\"id\":\"{}\"}}",
            scanft_obs::escape_json_string(id)
        ))
    }

    /// Logs a cancellation request.
    pub fn log_cancel(&self, id: &str) -> std::io::Result<()> {
        self.inner.write_line(&format!(
            "{{\"event\":\"cancel\",\"id\":\"{}\"}}",
            scanft_obs::escape_json_string(id)
        ))
    }

    /// Logs a terminal transition.
    pub fn log_done(&self, id: &str, status: &JobStatus) -> std::io::Result<()> {
        self.inner.write_line(&done_json(id, status))
    }

    /// Number of event lines appended by this writer.
    #[must_use]
    pub fn events_written(&self) -> u64 {
        self.inner.lines_written()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn admit(id: &str, idem: &str) -> WalAdmit {
        WalAdmit {
            id: id.to_owned(),
            tenant: "default".to_owned(),
            circuit: "bbtas".to_owned(),
            kind: JobKind::Simulate,
            idem: idem.to_owned(),
            sticky: false,
            journal_path: format!("/tmp/{id}.jsonl"),
            kiss: ".i 2\n.o 2\n-- 0 a a 00\n".to_owned(),
            tests: Some(".circuit bbtas\na | 00 | a\n".to_owned()),
        }
    }

    fn temp_wal(tag: &str) -> String {
        std::env::temp_dir()
            .join(format!("scanft-wal-{tag}-{}.jsonl", std::process::id()))
            .to_string_lossy()
            .into_owned()
    }

    #[test]
    fn events_round_trip_through_the_file() {
        let path = temp_wal("roundtrip");
        std::fs::remove_file(&path).ok();
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit("job-1", "k1")).unwrap();
            wal.log_claim("job-1").unwrap();
            wal.log_admit(&admit("job-2", "k2")).unwrap();
            wal.log_cancel("job-2").unwrap();
            wal.log_done(
                "job-1",
                &JobStatus::Completed {
                    coverage: 97.25,
                    detected: 389,
                    faults: 400,
                    completed_units: 7,
                    units: 7,
                },
            )
            .unwrap();
            assert_eq!(wal.events_written(), 5);
        }
        // Reopening an existing WAL appends without a second header.
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_done("job-2", &JobStatus::Cancelled).unwrap();
        }
        let parsed = read_wal_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(parsed.header_ok);
        assert_eq!(parsed.skipped_lines, 0);
        assert_eq!(parsed.events.len(), 6);
        assert_eq!(parsed.events[0], WalEvent::Admit(admit("job-1", "k1")));
        assert_eq!(parsed.events[1], WalEvent::Claim("job-1".into()));

        let state = replay(&parsed);
        assert_eq!(state.next_id, 2);
        assert_eq!(state.orphan_events, 0);
        assert_eq!(state.jobs.len(), 2);
        assert!(state.jobs[0].claimed && !state.jobs[0].cancelled);
        assert!(matches!(
            state.jobs[0].done,
            Some(JobStatus::Completed { detected: 389, .. })
        ));
        assert!(state.jobs[1].cancelled && !state.jobs[1].claimed);
        assert_eq!(state.jobs[1].done, Some(JobStatus::Cancelled));
    }

    #[test]
    fn missing_file_is_an_empty_wal() {
        let wal = read_wal_file("/nonexistent/scanft/jobs.wal").unwrap();
        assert!(!wal.header_ok);
        assert!(wal.events.is_empty());
    }

    #[test]
    fn torn_tail_is_skipped_and_counted() {
        let mut text = format!("{{\"wal\":\"{MAGIC}\",\"version\":{VERSION}}}\n");
        text.push_str(&admit_json(&admit("job-1", "k")));
        text.push('\n');
        // A torn claim line: everything before it still replays.
        text.push_str("{\"event\":\"claim\",\"id\":\"jo");
        let wal = read_wal(&text);
        assert!(wal.header_ok);
        assert_eq!(wal.skipped_lines, 1);
        assert_eq!(wal.events.len(), 1);
        let state = replay(&wal);
        assert_eq!(state.jobs.len(), 1);
        assert!(!state.jobs[0].claimed);
    }

    /// The high-severity regression: reopening a WAL whose final line was
    /// torn mid-append must truncate the fragment first. Without the
    /// repair, the first post-restart event lands on the same line as the
    /// garbage, the merged line is lost on the next replay, and the torn
    /// job's other events become startup-refusing orphans.
    #[test]
    fn reopening_after_a_torn_tail_truncates_before_appending() {
        use std::io::Write as _;
        let path = temp_wal("torn-reopen");
        std::fs::remove_file(&path).ok();
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit("job-1", "k1")).unwrap();
        }
        // Crash mid-append: half an admit line, no trailing newline.
        {
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.write_all(b"{\"event\":\"admit\",\"id\":\"jo").unwrap();
        }
        // Restart: reopen and append a fresh event.
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit("job-2", "k2")).unwrap();
            wal.log_claim("job-2").unwrap();
        }
        let parsed = read_wal_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(parsed.header_ok);
        assert_eq!(parsed.skipped_lines, 0, "the fragment is gone, not fused");
        assert_eq!(
            parsed.events,
            vec![
                WalEvent::Admit(admit("job-1", "k1")),
                WalEvent::Admit(admit("job-2", "k2")),
                WalEvent::Claim("job-2".into()),
            ]
        );
        let state = replay(&parsed);
        assert_eq!(state.orphan_events, 0);
        assert_eq!(state.jobs.len(), 2);
    }

    /// A final line that survived whole but lost only its trailing newline
    /// is an event `read_wal` already replays — reopening must terminate
    /// it, not truncate it (that would delete a restored event from disk).
    #[test]
    fn reopening_terminates_a_complete_line_missing_its_newline() {
        use std::io::Write as _;
        let path = temp_wal("unterminated");
        std::fs::remove_file(&path).ok();
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit("job-1", "k1")).unwrap();
        }
        // Crash right between the event bytes and the newline.
        {
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
            let mut file = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            file.flush().unwrap();
        }
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_claim("job-1").unwrap();
        }
        let parsed = read_wal_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(parsed.skipped_lines, 0);
        assert_eq!(
            parsed.events,
            vec![
                WalEvent::Admit(admit("job-1", "k1")),
                WalEvent::Claim("job-1".into()),
            ]
        );
    }

    /// Even the header write can tear (crash on first boot): reopening
    /// must truncate to empty and write a fresh header.
    #[test]
    fn reopening_after_a_torn_header_starts_clean() {
        let path = temp_wal("torn-header");
        std::fs::write(&path, "{\"wal\":\"scanft-ser").unwrap();
        {
            let wal = WalWriter::open(&path).unwrap();
            wal.log_admit(&admit("job-1", "k")).unwrap();
        }
        let parsed = read_wal_file(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(parsed.header_ok, "a fresh header replaces the torn one");
        assert_eq!(parsed.skipped_lines, 0);
        assert_eq!(parsed.events.len(), 1);
    }

    /// WAL round trip over every control character: `escape_json_string`
    /// emits `\u00XX` for most of them, and the reader must decode that —
    /// a submission containing a vertical tab used to come back as the
    /// literal text `u000b` and poison every later startup.
    #[test]
    fn control_characters_in_submissions_round_trip() {
        let raw: String = (0u32..0x20).map(|c| char::from_u32(c).unwrap()).collect();
        let mut a = admit("job-9", "k");
        a.kiss = format!(".i 1{raw}\n");
        a.tests = Some(raw.clone());
        a.idem = raw.clone();
        let line = admit_json(&a);
        assert_eq!(parse_event(&line), Some(WalEvent::Admit(a)));
    }

    #[test]
    fn failed_status_and_missing_tests_round_trip() {
        let mut a = admit("job-3", "k");
        a.tests = None;
        a.sticky = true;
        let line = admit_json(&a);
        let parsed = parse_event(&line).unwrap();
        assert_eq!(parsed, WalEvent::Admit(a));

        let done = done_json("job-3", &JobStatus::Failed("boom \"quoted\"".into()));
        match parse_event(&done).unwrap() {
            WalEvent::Done(id, JobStatus::Failed(msg)) => {
                assert_eq!(id, "job-3");
                assert_eq!(msg, "boom \"quoted\"");
            }
            other => panic!("wrong event: {other:?}"),
        }
    }
}
