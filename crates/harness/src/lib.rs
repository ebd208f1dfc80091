//! Resilient execution substrate for `scanft` campaigns.
//!
//! The paper's tables come from long fault-simulation and ATPG campaigns
//! over every benchmark; at production scale those runs must survive a
//! worker panic, respect wall-clock budgets, and resume after a kill
//! instead of starting over. This crate supplies the machinery, one layer
//! per failure mode:
//!
//! - [`Budget`] / [`BudgetClock`]: a wall-clock deadline, a work-unit
//!   cap, and an external [`CancelToken`], checked at every claim so
//!   exhausted or cancelled budgets stop the fleet promptly (a
//!   zero-second budget completes zero units cleanly);
//! - [`run_units`]: panic-isolating supervisor — each unit runs under
//!   `catch_unwind`, a panicking unit is *quarantined* with its message
//!   and the worker's scratch state is rebuilt, so one bad batch can no
//!   longer abort a whole campaign;
//! - [`JournalWriter`] / [`read_journal`]: append-only JSONL checkpoints
//!   of completed units, flushed per record, tolerant of torn trailing
//!   writes, and validated against the campaign shape before a resume;
//!   [`JournalTailer`] follows a growing journal without re-reading it,
//!   yielding only complete lines (the `scanft serve` events feed);
//!   [`JsonlWriter`] is the raw flushed-per-line writer underneath —
//!   shared with the server's job WAL — and [`repair_journal`] rewrites a
//!   crash-torn journal to exactly its intact prefix so a post-crash
//!   resume stays byte-identical to an uninterrupted run;
//! - [`FailurePlan`]: deterministic chaos injection (panics, delays, torn
//!   journal writes, and [`CrashPoint`] process deaths before/after a
//!   flush) seeded through the workspace's SplitMix64, so every recovery
//!   path above is provable in CI with a pinned seed;
//! - [`json`]: the keyed field reader for every flat JSONL line the
//!   workspace writes (journals, the server's WAL and HTTP bodies);
//! - [`ScanftError`]: the workspace error taxonomy with one distinct
//!   non-zero exit code per failure class.
//!
//! Consumers: `scanft-sim::campaign::run_supervised` (batch-level
//! supervision, checkpoint/resume), `scanft-atpg` (per-fault wall-clock
//! caps), `scanft-core::top_up` (whole-run budgets), and the `scanft` CLI
//! (`--deadline`, `--journal`, `--resume`, `--chaos-seed`).
//!
//! # Example
//!
//! ```
//! use scanft_harness::{run_units, Budget};
//!
//! let units: Vec<usize> = (0..8).collect();
//! let outcome = run_units(
//!     &units,
//!     2,
//!     &Budget::unlimited().with_max_units(5),
//!     None,
//!     || (),
//!     |(), unit| unit * unit,
//! );
//! assert_eq!(outcome.completed.len(), 5);
//! assert_eq!(outcome.remaining.len(), 3);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

mod budget;
mod chaos;
mod error;
mod journal;
pub mod json;
mod supervisor;

pub use budget::{Budget, BudgetClock, CancelToken, StopReason};
pub use chaos::{silence_chaos_panics, ChaosPanic, CrashPoint, FailurePlan};
pub use error::ScanftError;
pub use journal::{
    buffer_contents, read_journal, read_journal_file, repair_journal, BufferTailer, Journal,
    JournalHeader, JournalRecord, JournalTailer, JournalWriter, JsonlWriter,
};
pub use supervisor::{run_units, UnitFailure, WorkOutcome};
