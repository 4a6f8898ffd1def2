//! Fleet-scale session scheduling: thousands of concurrent walkers in one
//! deterministic process.
//!
//! A [`FleetScheduler`] owns a set of admitted [`FleetSession`]s (one
//! walker each — see [`crate::session::Session`]) and advances fleet time
//! in fixed `tick` rounds. Each round it collects every session with a due
//! epoch, orders the batch by [`DueKey`] (due time, then lane — a total
//! order, property-tested in `tests/fleet_properties.rs`), and steps the
//! batch on the deterministic worker pool
//! ([`crate::parallel::run_ordered_mut`]). Retired sessions are handed to
//! the caller strictly in lane order, whatever order they actually
//! finished or were admitted in.
//!
//! # Determinism contract
//!
//! Fleet output — every session's records, capture, and the retirement
//! order — is a pure function of the admitted `(lane, builder)` set:
//!
//! * **Worker-count invariance.** Sessions are pure state machines over
//!   their own frame streams and each steps under its own isolated
//!   [`ObsSession`], so no output depends on which thread ran what.
//! * **Admission-order invariance.** [`FleetScheduler::run`] sorts the
//!   pending set by lane before admitting anything, so shuffling
//!   [`FleetScheduler::admit`] calls cannot change the schedule.
//! * **Isolation.** A session's quarantine ladder, calibration bins and
//!   flight ring live in its own engine/obs state; a chaos plan injected
//!   into one walker cannot perturb another (held by
//!   `tests/fleet_differential.rs`).
//!
//! Wall-clock measurements ([`FleetRunStats`]) are the one intentionally
//! nondeterministic output; they feed the throughput bench only and never
//! the artifacts.
//!
//! Unlike the batch path, fleet sessions emit no harness-level
//! `pipeline.run_walk` / `pipeline.build_context` spans (a span guard
//! cannot be held across scheduler rounds that migrate between threads);
//! everything else in a session's capture matches a solo batch walk. See
//! `DESIGN.md` §9.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use crate::parallel::{run_supervised_mut, JobFailure};
use crate::pipeline::EpochRecord;
use crate::session::Session;
use uniloc_obs::session::{self as obs_session, ObsSession, SessionCapture};
use uniloc_sensors::SensorFrame;
use uniloc_stats::json::hex;

/// Current checkpoint format version, embedded in every
/// [`SessionCheckpoint`] (and the fleet-level checkpoint built on it).
/// Restore APIs reject any other version with
/// [`CheckpointError::VersionMismatch`] — a stale snapshot fails loudly
/// instead of replaying garbage.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Why a checkpoint could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointError {
    /// The snapshot was written under a different format version.
    VersionMismatch {
        /// Version recorded in the document.
        found: u64,
        /// Version this build restores.
        expected: u64,
    },
    /// The document is not a well-formed checkpoint.
    Malformed(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::VersionMismatch { found, expected } => write!(
                f,
                "checkpoint version mismatch: found {found}, this build restores {expected}"
            ),
            CheckpointError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

/// Reads and validates the `version` field of a checkpoint document.
///
/// # Errors
///
/// [`CheckpointError::Malformed`] when the field is missing or not an
/// unsigned integer, [`CheckpointError::VersionMismatch`] when it is not
/// [`CHECKPOINT_VERSION`].
pub fn check_checkpoint_version(
    json: &uniloc_stats::json::Json,
) -> Result<(), CheckpointError> {
    let found: u64 = uniloc_stats::json::field(json, "version")
        .map_err(|e| CheckpointError::Malformed(e.to_string()))?;
    if found != CHECKPOINT_VERSION {
        return Err(CheckpointError::VersionMismatch {
            found,
            expected: CHECKPOINT_VERSION,
        });
    }
    Ok(())
}

/// Simulation-time slack when deciding whether an epoch is due, in
/// nanoseconds: absorbs float rounding in frame timestamps without ever
/// pulling a genuinely later epoch forward a round.
const DUE_SLACK_NS: u64 = 1_000;

fn sim_ns(t: f64) -> u64 {
    (t.max(0.0) * 1e9).round() as u64
}

/// The scheduler's epoch ordering key: fleet-global due time in integer
/// simulation nanoseconds, tie-broken by the session's unique lane.
///
/// The derived lexicographic `Ord` is a *total* order — `due_ns` is an
/// integer (no NaN holes) and lanes are unique across a fleet — so a due
/// batch has exactly one canonical ordering however it was collected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DueKey {
    /// Due time on the fleet clock, in simulation nanoseconds.
    pub due_ns: u64,
    /// The session's unique lane.
    pub lane: u64,
}

/// Everything needed to rebuild a session and resume it mid-walk, in
/// serializable form. The fleet is deterministic, so a checkpoint is the
/// session's *recipe* plus a cursor, not a state dump: restoring replays
/// frames `0..cursor` through a freshly built session, which lands on
/// byte-identical state (held by `tests/fleet_differential.rs`).
///
/// Round-trips byte-identically through
/// [`Json::canonical`](uniloc_stats::json::Json::canonical) (property-tested).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionCheckpoint {
    /// Checkpoint format version ([`CHECKPOINT_VERSION`]); restore
    /// rejects any other value.
    pub version: u64,
    /// Unique session lane within its fleet.
    pub lane: u64,
    /// Display name (load-generator naming, e.g. `s00042-office-m-30s`).
    pub name: String,
    /// Scenario vocabulary name (`office`, `open-space`, `path1`, ...).
    pub scenario: String,
    /// Walker persona name (`GaitProfile::personas`).
    pub persona: String,
    /// Device vocabulary name (`nexus5x` / `lgg3`).
    pub device: String,
    /// Fault plan name (`none` for a clean walker).
    pub plan: String,
    /// The session's root seed (survey = seed, schemes = seed + 2, walker
    /// = seed + 3, hub = seed + 4 — the stream discipline everywhere).
    pub seed: u64,
    /// Frames already served; restore replays exactly this many.
    pub cursor: u64,
}

// `seed` comes from `split_seed` and uses the full u64 range, which
// `Json::Int` (i64) cannot hold: the u64 fields travel as fixed-width hex.
uniloc_stats::impl_json_struct!(SessionCheckpoint {
    version,
    lane with hex,
    name,
    scenario,
    persona,
    device,
    plan,
    seed with hex,
    cursor with hex,
});

/// One walker under fleet scheduling: the serving session, its private
/// frame stream and cursor, the records served so far, and the isolated
/// observability session all its effects land in.
pub struct FleetSession {
    /// Unique lane within the fleet; the scheduler's canonical identity.
    pub lane: u64,
    /// Display name for reports.
    pub name: String,
    session: Session,
    frames: Vec<SensorFrame>,
    cursor: usize,
    records: Vec<EpochRecord>,
    obs: Arc<ObsSession>,
    /// Injected process-level fault: stepping this frame index panics
    /// (the crash-injection harness's panic-at-epoch fault).
    panic_at_epoch: Option<u64>,
}

impl FleetSession {
    /// Builds a fleet session. `make` produces the serving session and its
    /// (possibly fault-injected) frame stream; it runs with the walker's
    /// fresh isolated [`ObsSession`] installed, so anything the
    /// construction emits lands in the walker's own capture.
    pub fn build(
        lane: u64,
        name: impl Into<String>,
        make: impl FnOnce() -> (Session, Vec<SensorFrame>),
    ) -> FleetSession {
        FleetSession::build_with_obs(lane, name, Arc::new(ObsSession::isolated()), make)
    }

    /// [`build`](Self::build) with a caller-supplied observability session
    /// — how the obs-overhead bench swaps in
    /// [`ObsSession::stubbed`] walkers while everything else about the
    /// fleet stays identical.
    pub fn build_with_obs(
        lane: u64,
        name: impl Into<String>,
        obs: Arc<ObsSession>,
        make: impl FnOnce() -> (Session, Vec<SensorFrame>),
    ) -> FleetSession {
        let guard = obs_session::install(Arc::clone(&obs));
        let (session, frames) = make();
        drop(guard);
        FleetSession {
            lane,
            name: name.into(),
            session,
            frames,
            cursor: 0,
            records: Vec::new(),
            obs,
            panic_at_epoch: None,
        }
    }

    /// Arms the injected panic-at-epoch process fault: the session panics
    /// when it is about to *step* (not replay) frame `epoch`. The panic is
    /// caught at the pool boundary and handled by the supervision policy.
    pub fn set_panic_at_epoch(&mut self, epoch: Option<u64>) {
        self.panic_at_epoch = epoch;
    }

    /// Serves frames `0..cursor` *with recording* — the restore half of
    /// [`SessionCheckpoint`]: the replayed epochs re-enter `records` (and
    /// the walker's isolated capture) exactly as an uninterrupted run would
    /// have recorded them, so a resumed fleet's artifacts are
    /// byte-identical to never having stopped. The injected panic-at-epoch
    /// fault is deliberately *not* honored during replay: a checkpoint
    /// cursor can never lie past the panic frame (the session never
    /// advances past it), so replay stays strictly before the fault.
    pub fn replay_recorded(&mut self, cursor: usize) {
        let guard = obs_session::install(Arc::clone(&self.obs));
        let end = cursor.min(self.frames.len());
        while self.cursor < end {
            let record = self.session.step(&self.frames[self.cursor]);
            self.records.push(record);
            self.cursor += 1;
        }
        drop(guard);
    }

    /// Frames served so far.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The underlying serving session, for introspection in tests.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Steps every frame due by `now_ns` on the fleet clock (the session
    /// started at `start_ns`), with the session's obs installed. Returns
    /// the wall-clock nanoseconds each epoch took, for the throughput
    /// bench only.
    fn step_due(&mut self, start_ns: u64, now_ns: u64) -> Vec<u64> {
        let guard = obs_session::install(Arc::clone(&self.obs));
        let mut epoch_ns = Vec::new();
        while self.cursor < self.frames.len()
            && start_ns + sim_ns(self.frames[self.cursor].t) <= now_ns + DUE_SLACK_NS
        {
            if self.panic_at_epoch == Some(self.cursor as u64) {
                panic!(
                    "uniloc-faults: injected panic at epoch {} (lane {})",
                    self.cursor, self.lane
                );
            }
            let t0 = Instant::now();
            let record = self.session.step(&self.frames[self.cursor]);
            epoch_ns.push(t0.elapsed().as_nanos() as u64);
            self.records.push(record);
            self.cursor += 1;
        }
        drop(guard);
        epoch_ns
    }

    fn finished(&self) -> bool {
        self.cursor >= self.frames.len()
    }

    fn retire(self) -> FinishedSession {
        FinishedSession {
            lane: self.lane,
            name: self.name,
            epochs: self.records.len(),
            records: self.records,
            capture: self.obs.capture(),
            poisoned: None,
        }
    }

    /// Retires the session early as *poisoned*: it exhausted the
    /// supervision policy's strikes. The records and capture cover the
    /// epochs served before the fault. The supervision counters
    /// (`fleet.poisoned`, `parallel.retries`) are emitted into the
    /// walker's own capture here — once, at retirement, rather than
    /// per-retry — so a resumed run reproduces them exactly from the
    /// restored strike count.
    fn poison(self, failure: JobFailure, retries: u64) -> FinishedSession {
        {
            let _guard = obs_session::install(Arc::clone(&self.obs));
            let m = uniloc_obs::global_metrics();
            m.counter("fleet.poisoned").inc();
            m.counter("parallel.retries").add(retries);
        }
        FinishedSession {
            lane: self.lane,
            name: self.name,
            epochs: self.records.len(),
            records: self.records,
            capture: self.obs.capture(),
            poisoned: Some(failure),
        }
    }
}

/// A retired session, handed to [`FleetScheduler::run`]'s callback in lane
/// order.
pub struct FinishedSession {
    pub lane: u64,
    pub name: String,
    /// Epochs recorded: the walk length, or the epochs served before the
    /// first panic for a poisoned session.
    pub epochs: usize,
    pub records: Vec<EpochRecord>,
    /// The walker's private observability capture (metrics, calibration
    /// cells, flight lines).
    pub capture: SessionCapture,
    /// `Some` when the session was retired early by the supervision
    /// policy after exhausting its strikes.
    pub poisoned: Option<JobFailure>,
}

/// Deterministic-plus-wall-clock accounting of one fleet run. `rounds`,
/// `epochs` and `sessions` are pure functions of the admitted set; the
/// `*_ns` fields are wall-clock and feed the throughput bench only.
#[derive(Debug, Clone, Default)]
pub struct FleetRunStats {
    /// Scheduler rounds executed (fleet time advanced per round).
    pub rounds: u64,
    /// Epochs served across all sessions.
    pub epochs: u64,
    /// Sessions admitted and retired.
    pub sessions: u64,
    /// Wall-clock duration of every served epoch, in scheduling order.
    pub epoch_ns: Vec<u64>,
    /// Wall-clock duration of every non-empty round.
    pub round_ns: Vec<u64>,
    /// Wall-clock duration of the whole run.
    pub run_ns: u64,
    /// Whether the run was cut short by [`RunControl::stop_after_rounds`]
    /// (the simulated-crash fault); unretired sessions were abandoned.
    pub aborted: bool,
}

/// Panics a session may throw before it is poisoned.
const MAX_STRIKES: u32 = 3;
/// Rounds a session waits before its first retry.
const BACKOFF_BASE_ROUNDS: u64 = 2;
/// Retry backoff cap, in rounds.
const BACKOFF_CAP_ROUNDS: u64 = 32;

/// How the scheduler treats a session whose step panicked (the panic is
/// caught at the pool boundary — [`run_supervised_mut`]).
///
/// There is one policy. A panicking session is retried after a backoff
/// that doubles per strike from 2 rounds up to 32; backoff is measured
/// in scheduler *rounds*, not wall time, so retry scheduling is
/// deterministic. A session that panics 3 times is *poisoned*: retired
/// early (lane-ordered like any retirement, so artifacts stay
/// deterministic) with [`FinishedSession::poisoned`] set and the
/// `fleet.poisoned` / `parallel.retries` counters emitted into its own
/// capture. The type has nothing to set; callers pass
/// `SupervisionPolicy::default()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SupervisionPolicy {}

/// Rounds to wait before the retry after the `strikes`-th failure:
/// bounded exponential (`base * 2^(strikes-1)`, capped).
fn backoff_rounds(strikes: u32) -> u64 {
    let mut rounds = BACKOFF_BASE_ROUNDS;
    for _ in 1..strikes {
        rounds = rounds.saturating_mul(2).min(BACKOFF_CAP_ROUNDS);
        if rounds >= BACKOFF_CAP_ROUNDS {
            break;
        }
    }
    rounds
}

/// Checkpoint/crash knobs for [`FleetScheduler::run_supervised`].
#[derive(Debug, Clone, Copy, Default)]
pub struct RunControl {
    /// Emit [`FleetEvent::Checkpoint`] every N rounds (`0` = never).
    pub checkpoint_every: u64,
    /// Abort the run (simulated process crash, for the crash-injection
    /// harness) after this many rounds; skips the lost-session check.
    pub stop_after_rounds: Option<u64>,
}

/// One resident walker's progress + supervision state at a checkpoint
/// boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidentState {
    pub lane: u64,
    /// Frames served so far (the [`SessionCheckpoint`] cursor; `0` for a
    /// still-pending builder).
    pub cursor: u64,
    /// Supervision strikes accrued so far.
    pub strikes: u32,
    /// Rounds left on the current retry backoff.
    pub backoff_rounds: u64,
}

/// What [`FleetScheduler::run_supervised`] reports to its callback.
pub enum FleetEvent<'a> {
    /// A retired session, strictly in lane order (boxed: a finished
    /// session carries its full record/capture payload and would dwarf
    /// the checkpoint variant inline).
    Finished(Box<FinishedSession>),
    /// A checkpoint boundary (every [`RunControl::checkpoint_every`]
    /// rounds): the resident walkers' states (lane order) plus the
    /// sessions that finished but have not yet flushed in lane order —
    /// a durable checkpoint must persist both.
    Checkpoint {
        /// Rounds completed when the checkpoint was taken.
        round: u64,
        /// Resident walkers, in lane order.
        resident: &'a [ResidentState],
        /// Finished-but-unflushed sessions, in lane order.
        unflushed: Vec<&'a FinishedSession>,
    },
}

/// A session recipe awaiting admission: the builder runs on a worker
/// thread the first round its lane is scheduled.
type SessionBuilder = Box<dyn FnOnce() -> FleetSession + Send>;

struct Pending {
    lane: u64,
    /// Supervision state carried over a checkpoint restore.
    strikes: u32,
    backoff_rounds: u64,
    build: SessionBuilder,
}

enum ActiveState {
    Pending(SessionBuilder),
    Live(Box<FleetSession>),
    /// Placeholder while the slot's state is being replaced.
    Vacated,
}

struct Active {
    lane: u64,
    /// Fleet-clock time this session was admitted (its local `t = 0`).
    start_ns: u64,
    state: ActiveState,
    /// Supervision strikes accrued (panics caught at the pool boundary).
    strikes: u32,
    /// Round before which the session must not be rescheduled (retry
    /// backoff); `0` means schedulable now.
    retry_at: u64,
}

impl Active {
    /// The session's next due key on the fleet clock, `None` when done.
    fn due_key(&self) -> Option<DueKey> {
        match &self.state {
            // A pending session's first epoch (local t = 0) is due the
            // round it is admitted.
            ActiveState::Pending(_) => Some(DueKey { due_ns: self.start_ns, lane: self.lane }),
            ActiveState::Live(fs) => {
                // A finished session (possible when a checkpoint restore
                // re-admits a walker that had completed but not flushed)
                // is immediately due, so it retires next round instead of
                // hanging the scheduler forever.
                let Some(frame) = fs.frames.get(fs.cursor) else {
                    return Some(DueKey { due_ns: self.start_ns, lane: self.lane });
                };
                Some(DueKey { due_ns: self.start_ns + sim_ns(frame.t), lane: self.lane })
            }
            ActiveState::Vacated => unreachable!("vacated slot left in active set"),
        }
    }

    /// Materializes (if pending) and serves everything due by `now_ns`.
    fn step_due(&mut self, now_ns: u64) -> Vec<u64> {
        if matches!(self.state, ActiveState::Pending(_)) {
            let ActiveState::Pending(build) =
                std::mem::replace(&mut self.state, ActiveState::Vacated)
            else {
                unreachable!()
            };
            let built = build();
            assert_eq!(built.lane, self.lane, "session builder changed its lane");
            self.state = ActiveState::Live(Box::new(built));
        }
        let ActiveState::Live(fs) = &mut self.state else {
            unreachable!("stepping a vacated slot")
        };
        fs.step_due(self.start_ns, now_ns)
    }

    /// Retires the slot early as poisoned; see [`FleetSession::poison`].
    /// A builder that panicked before producing a session (its `FnOnce`
    /// recipe is consumed — nothing is left to retry) retires as an empty
    /// poisoned shell.
    fn poison(self, failure: JobFailure) -> FinishedSession {
        let retries = u64::from(self.strikes.saturating_sub(1));
        match self.state {
            ActiveState::Live(fs) => fs.poison(failure, retries),
            _ => FinishedSession {
                lane: self.lane,
                name: format!("lane{:05}", self.lane),
                epochs: 0,
                records: Vec::new(),
                capture: SessionCapture::default(),
                poisoned: Some(failure),
            },
        }
    }
}

/// Batches due epochs across many sessions onto the deterministic worker
/// pool. See the module docs for the determinism contract.
pub struct FleetScheduler {
    jobs: usize,
    tick_ns: u64,
    resident: usize,
    pending: Vec<Pending>,
}

impl FleetScheduler {
    /// `jobs` worker threads (`<= 1` runs inline), a fleet tick of
    /// `tick_s` seconds (normally the epoch interval), and at most
    /// `resident` sessions live at once — admission streams in lane order
    /// as sessions retire, bounding memory at fleet scale.
    ///
    /// # Panics
    ///
    /// Panics unless `tick_s` is positive and finite.
    pub fn new(jobs: usize, tick_s: f64, resident: usize) -> FleetScheduler {
        assert!(
            tick_s.is_finite() && tick_s > 0.0,
            "fleet tick must be positive and finite, got {tick_s}"
        );
        FleetScheduler {
            jobs: jobs.max(1),
            tick_ns: sim_ns(tick_s).max(1),
            resident: resident.max(1),
            pending: Vec::new(),
        }
    }

    /// Queues a session for admission. `lane` must be unique across the
    /// fleet; the builder runs on a worker thread when the lane is first
    /// scheduled. Call order is irrelevant — [`FleetScheduler::run`]
    /// canonicalizes by lane.
    pub fn admit(&mut self, lane: u64, build: impl FnOnce() -> FleetSession + Send + 'static) {
        self.admit_restored(lane, 0, 0, build);
    }

    /// [`admit`](Self::admit) with supervision state carried over from a
    /// checkpoint: the session resumes with `strikes` already accrued and
    /// `backoff_rounds` still to serve before its next step.
    pub fn admit_restored(
        &mut self,
        lane: u64,
        strikes: u32,
        backoff_rounds: u64,
        build: impl FnOnce() -> FleetSession + Send + 'static,
    ) {
        self.pending.push(Pending { lane, strikes, backoff_rounds, build: Box::new(build) });
    }

    /// Drives every admitted session to completion. `on_finish` receives
    /// each retired session strictly in lane order. Runs under the default
    /// [`SupervisionPolicy`] with checkpoints and crash injection off.
    ///
    /// # Panics
    ///
    /// Panics when two admitted sessions share a lane.
    pub fn run(&mut self, mut on_finish: impl FnMut(FinishedSession)) -> FleetRunStats {
        self.run_supervised(&SupervisionPolicy::default(), &RunControl::default(), |ev| {
            if let FleetEvent::Finished(f) = ev {
                on_finish(*f);
            }
        })
    }

    /// [`run`](Self::run) with the crash-safety machinery exposed: the
    /// [`SupervisionPolicy`], periodic
    /// [`FleetEvent::Checkpoint`] boundaries and the simulated-crash stop
    /// ([`RunControl`]). Panicking jobs are caught at the pool boundary
    /// ([`run_supervised_mut`]), retried with bounded exponential backoff
    /// in scheduler rounds, and poisoned (retired early, still strictly
    /// in lane order) after 3 failures — one bad session
    /// never aborts the fleet. `SupervisionPolicy` has nothing to set, so
    /// the policy argument only names the one policy.
    ///
    /// # Panics
    ///
    /// Panics when two admitted sessions share a lane, or when sessions
    /// are lost on a non-aborted run (a scheduler bug, not a job panic).
    pub fn run_supervised(
        &mut self,
        _policy: &SupervisionPolicy,
        control: &RunControl,
        mut on_event: impl FnMut(FleetEvent),
    ) -> FleetRunStats {
        let run_start = Instant::now();
        // Canonicalize admission: lane order, whatever order admit() ran.
        self.pending.sort_by_key(|p| p.lane);
        for pair in self.pending.windows(2) {
            assert!(pair[0].lane != pair[1].lane, "duplicate fleet lane {}", pair[0].lane);
        }
        let lane_seq: Vec<u64> = self.pending.iter().map(|p| p.lane).collect();
        let mut queue = std::mem::take(&mut self.pending).into_iter();

        let mut stats = FleetRunStats { sessions: lane_seq.len() as u64, ..Default::default() };
        let mut active: Vec<Option<Active>> = Vec::new();
        let mut live = 0usize;
        let mut round: u64 = 0;
        // Retired sessions buffer here until their lane is next in
        // sequence, so on_finish order is lane order by construction.
        let mut finish_buf: BTreeMap<u64, FinishedSession> = BTreeMap::new();
        let mut flushed = 0usize;

        loop {
            while live < self.resident {
                let Some(p) = queue.next() else { break };
                active.push(Some(Active {
                    lane: p.lane,
                    start_ns: round * self.tick_ns,
                    state: ActiveState::Pending(p.build),
                    strikes: p.strikes,
                    retry_at: round + p.backoff_rounds,
                }));
                live += 1;
            }
            if live == 0 {
                break;
            }
            let now_ns = round * self.tick_ns;
            let mut due: Vec<(DueKey, usize)> = active
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| {
                    let slot = slot.as_ref()?;
                    // Sessions serving a retry backoff sit the round out.
                    if slot.retry_at > round {
                        return None;
                    }
                    let key = slot.due_key()?;
                    (key.due_ns <= now_ns + DUE_SLACK_NS).then_some((key, i))
                })
                .collect();
            due.sort_unstable();
            if !due.is_empty() {
                let round_start = Instant::now();
                let batch: Vec<Active> =
                    due.iter().map(|&(_, i)| active[i].take().expect("due slot vanished")).collect();
                let (batch, outcomes) = run_supervised_mut(
                    batch,
                    self.jobs,
                    "fleet.step",
                    |a: &Active| Some(a.lane),
                    |_, a| a.step_due(now_ns),
                );
                for ((&(_, i), mut slot), outcome) in due.iter().zip(batch).zip(outcomes) {
                    match outcome {
                        Ok(epoch_ns) => {
                            stats.epochs += epoch_ns.len() as u64;
                            stats.epoch_ns.extend(epoch_ns);
                            let done =
                                matches!(&slot.state, ActiveState::Live(fs) if fs.finished());
                            if done {
                                let ActiveState::Live(fs) =
                                    std::mem::replace(&mut slot.state, ActiveState::Vacated)
                                else {
                                    unreachable!()
                                };
                                finish_buf.insert(slot.lane, fs.retire());
                                live -= 1;
                            } else {
                                active[i] = Some(slot);
                            }
                        }
                        Err(failure) => {
                            slot.strikes += 1;
                            // A builder that panicked mid-materialization
                            // consumed its recipe — nothing left to retry.
                            let retryable = matches!(slot.state, ActiveState::Live(_));
                            if retryable && slot.strikes < MAX_STRIKES {
                                slot.retry_at = round + backoff_rounds(slot.strikes);
                                active[i] = Some(slot);
                            } else {
                                let fin = slot.poison(failure);
                                finish_buf.insert(fin.lane, fin);
                                live -= 1;
                            }
                        }
                    }
                }
                stats.round_ns.push(round_start.elapsed().as_nanos() as u64);
            }
            round += 1;
            stats.rounds += 1;
            while flushed < lane_seq.len() {
                let Some(f) = finish_buf.remove(&lane_seq[flushed]) else { break };
                on_event(FleetEvent::Finished(Box::new(f)));
                flushed += 1;
            }
            if control.checkpoint_every > 0 && round.is_multiple_of(control.checkpoint_every) {
                let mut resident: Vec<ResidentState> = active
                    .iter()
                    .flatten()
                    .map(|a| ResidentState {
                        lane: a.lane,
                        cursor: match &a.state {
                            ActiveState::Pending(_) => 0,
                            ActiveState::Live(fs) => fs.cursor as u64,
                            ActiveState::Vacated => {
                                unreachable!("vacated slot left in active set")
                            }
                        },
                        strikes: a.strikes,
                        backoff_rounds: a.retry_at.saturating_sub(round),
                    })
                    .collect();
                resident.sort_by_key(|r| r.lane);
                let unflushed: Vec<&FinishedSession> = finish_buf.values().collect();
                on_event(FleetEvent::Checkpoint { round, resident: &resident, unflushed });
            }
            if control.stop_after_rounds.is_some_and(|stop| round >= stop) {
                // Simulated process crash: abandon everything unretired.
                stats.aborted = true;
                stats.run_ns = run_start.elapsed().as_nanos() as u64;
                return stats;
            }
        }
        assert!(finish_buf.is_empty() && flushed == lane_seq.len(), "fleet lost sessions");
        stats.run_ns = run_start.elapsed().as_nanos() as u64;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_keys_order_by_time_then_lane() {
        let a = DueKey { due_ns: 0, lane: 7 };
        let b = DueKey { due_ns: 0, lane: 8 };
        let c = DueKey { due_ns: 1, lane: 0 };
        assert!(a < b && b < c && a < c);
        let mut keys = vec![c, a, b];
        keys.sort_unstable();
        assert_eq!(keys, vec![a, b, c]);
    }

    #[test]
    fn checkpoint_round_trips_through_canonical_json() {
        let ckpt = SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            lane: 42,
            name: "s00042-office-m-30s".to_owned(),
            scenario: "office".to_owned(),
            persona: "m-30s".to_owned(),
            device: "lgg3".to_owned(),
            plan: "nan_storm".to_owned(),
            seed: 0xDEAD_BEEF,
            cursor: 118,
        };
        let canonical = uniloc_stats::json::ToJson::to_json(&ckpt).canonical().to_string();
        let parsed: SessionCheckpoint = uniloc_stats::json::from_str(&canonical).unwrap();
        assert_eq!(parsed, ckpt);
        let again = uniloc_stats::json::ToJson::to_json(&parsed).canonical().to_string();
        assert_eq!(again, canonical);
    }

    #[test]
    fn foreign_checkpoint_version_is_rejected_loudly() {
        let ckpt = SessionCheckpoint {
            version: CHECKPOINT_VERSION,
            lane: 9,
            name: "n".to_owned(),
            scenario: "office".to_owned(),
            persona: "m-30s".to_owned(),
            device: "lgg3".to_owned(),
            plan: "none".to_owned(),
            seed: 1,
            cursor: 0,
        };
        let json = uniloc_stats::json::ToJson::to_json(&ckpt);
        assert_eq!(check_checkpoint_version(&json), Ok(()));
        let stale = uniloc_stats::json::ToJson::to_json(&SessionCheckpoint {
            version: CHECKPOINT_VERSION + 7,
            ..ckpt
        });
        assert_eq!(
            check_checkpoint_version(&stale),
            Err(CheckpointError::VersionMismatch {
                found: CHECKPOINT_VERSION + 7,
                expected: CHECKPOINT_VERSION
            })
        );
        let missing = uniloc_stats::json::Json::Obj(vec![]);
        assert!(matches!(check_checkpoint_version(&missing), Err(CheckpointError::Malformed(_))));
    }

    #[test]
    fn backoff_rounds_grow_exponentially_and_cap() {
        assert_eq!(backoff_rounds(1), 2);
        assert_eq!(backoff_rounds(2), 4);
        assert_eq!(backoff_rounds(3), 8);
        assert_eq!(backoff_rounds(5), 32);
        assert_eq!(backoff_rounds(9), BACKOFF_CAP_ROUNDS);
    }

    #[test]
    #[should_panic(expected = "duplicate fleet lane")]
    fn duplicate_lanes_are_rejected() {
        let mut sched = FleetScheduler::new(1, 0.5, 4);
        for _ in 0..2 {
            sched.admit(3, || {
                FleetSession::build(3, "dup", || unreachable!("never materialized"))
            });
        }
        sched.run(|_| {});
    }
}
