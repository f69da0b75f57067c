//! Stateful autoregressive decode sessions with iteration-level
//! interleaving.
//!
//! The continuous-batching [`Server`](crate::server::Server) coalesces
//! *independent* requests; autoregressive decode is the workload it could
//! not yet serve: each generated token depends on per-sequence state (LSTM
//! hidden/cell vectors for GNMT-style models, KV slabs for Transformer-style
//! decode), so a sequence is a *loop* of width-1 GEMMs, not a batch. EIE
//! (Han et al.) motivates the shape — compressed-weight decode where weight
//! reuse across steps dominates — and the sparse-kernel wins compound when
//! many concurrent sequences share one fused sweep per layer per iteration.
//!
//! This module is that tier:
//!
//! * [`DecodeModel`] — the model contract: an ordered list of GEMM
//!   [`DecodeStage`]s plus pure-per-sequence `pre`/`post` hooks that read and
//!   mutate the sequence's own [`DecodeState`] (build the LSTM gate input,
//!   apply the cell update, append to a KV slab, …).
//! * [`SessionManager`] — owns every live sequence's state and plans the
//!   **iteration-level interleave rounds**: each round, every live sequence
//!   contributes one activation column; same-model sequences column-coalesce
//!   into one width-N sweep per stage (the engine's one execute path), and
//!   scatter-back routes each output column into its own session's state.
//!   A round's per-model groups run as ready groups on the server's worker
//!   pool, ordered by the server's one [`QueuePolicy`](crate::policy::QueuePolicy)
//!   beside request groups; the write-back of a round's last group makes
//!   the next round due. Because every output column depends only on its own
//!   activation column and the hooks touch only their own state, the
//!   interleaved stream is **bit-identical** to running each sequence's
//!   decode loop alone against the cold oracle ([`decode_oracle`]). The
//!   manager lock covers bookkeeping only: a round moves its members' state
//!   out, runs the sweeps and hooks unlocked, and writes the results back,
//!   so opening, evicting, resuming and reading stats never wait behind a
//!   round.
//! * [`SessionTicket`] — the streaming consumer half: tokens arrive as they
//!   resolve (`next_token` / `try_next` / `wait_timeout`), each carrying its
//!   per-token deadline verdict (the whole-sequence
//!   [`SloClass`] split by [`SloClass::per_token`]).
//! * **Eviction** — under capacity pressure the manager parks Bulk-class
//!   sessions (exact state snapshot + typed
//!   [`ServingError::Evicted`]); [`SessionManager::resume`]
//!   re-admits the snapshot and the continuation is bit-identical. Dropping
//!   every handle/ticket cancels the session (the same refcount-claim idea
//!   the server's tickets use).
//!
//! The public entry points live on [`Server`](crate::server::Server):
//! `open_session`, `resume_session`, `evict_session`, `session_stats`.

use crate::engine::ServingEngine;
use crate::policy::GroupMeta;
use crate::server::SubmitError;
use crate::ServingError;
use shfl_core::slo::{SloClass, SloKind};
use shfl_core::DenseMatrix;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

#[cfg(feature = "chaos")]
use crate::chaos::{FaultPlan, StepFault};

/// Per-member `(token values, next feedback input)` pairs produced by one
/// fused sweep over every stage of the group's model.
type SweepOutputs = Vec<(Vec<f32>, Vec<f32>)>;

/// One GEMM stage of a decode step: the serving-engine layer it runs on,
/// under a display name for diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeStage {
    /// Display name (usually the registration name of the layer).
    pub name: String,
    /// The serving-engine layer id this stage executes on.
    pub layer: usize,
}

/// The persistent per-sequence state a [`DecodeModel`] reads and mutates
/// across steps: recurrent hidden/cell vectors, growing KV slabs, scratch —
/// whatever the model's hooks need. Snapshot = `clone()`; eviction parks an
/// exact copy, so resumption is bit-identical.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodeState {
    /// The state slots, owned by the model's hook convention (slot layout is
    /// the model's business; the manager only moves the struct around).
    pub slots: Vec<Vec<f32>>,
}

/// The model contract for stateful autoregressive decode.
///
/// A decode **step** runs the stages in order: for each stage `s`,
/// `pre(s, x, state)` builds the stage's GEMM input column from the running
/// activation `x` and the session state, the serving engine executes the
/// stage's layer on it (coalesced with every co-interleaved sequence), and
/// `post(s, y, state)` folds the GEMM output back into the running
/// activation (and the state). The final activation of a step is the step's
/// **token**; [`DecodeModel::feedback`] turns it into the next step's input.
///
/// **Bit-identity contract:** `pre`/`post`/`feedback` must be deterministic
/// pure functions of their arguments (no global state, no randomness) and
/// must touch only *this sequence's* `state`. Under that contract the
/// interleaved path is bit-identical to [`decode_oracle`], which the
/// property tests enforce.
pub trait DecodeModel: Send + Sync {
    /// Display name for stats and diagnostics.
    fn name(&self) -> &str;

    /// The GEMM stages of one decode step, in execution order.
    fn stages(&self) -> &[DecodeStage];

    /// Fresh per-sequence state for a newly opened session.
    fn init_state(&self) -> DecodeState;

    /// Builds stage `stage`'s GEMM input column (length = the stage layer's
    /// reduction dimension `k`) from the running activation and the state.
    fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32>;

    /// Folds stage `stage`'s GEMM output column back into the running
    /// activation (mutating the state as the model requires).
    fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32>;

    /// Maps a step's token to the next step's input activation (identity by
    /// default — greedy feedback of the produced token).
    fn feedback(&self, token: &[f32]) -> Vec<f32> {
        token.to_vec()
    }

    /// Required length of the prompt (the step-0 input activation).
    fn prompt_len(&self) -> usize;
}

/// One resolved decode token, streamed to the session's ticket.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeToken {
    /// 0-based decode step this token belongs to.
    pub step: usize,
    /// The token values (the step's final activation).
    pub values: Vec<f32>,
    /// Wall-clock service time of the interleave round that produced the
    /// token, in milliseconds.
    pub service_ms: f64,
    /// Per-token deadline verdict: `Some(met)` for deadline-class sessions
    /// (judged against [`SloClass::per_token`]), `None` for classes without
    /// a deadline.
    pub deadline_met: Option<bool>,
    /// Interleave width of the sweep that produced the token (how many
    /// sequences shared the fused execute).
    pub width: usize,
}

/// Counters of the decode-session tier (see
/// [`Server::session_stats`](crate::server::Server::session_stats)).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Sessions opened (including ones later evicted or cancelled).
    pub opened: u64,
    /// Sessions that streamed every requested step.
    pub completed: u64,
    /// Eviction events (capacity pressure, explicit request, or chaos).
    pub evicted: u64,
    /// Parked sessions re-admitted by resume.
    pub resumed: u64,
    /// Sessions cancelled (explicitly or by dropping every handle/ticket).
    pub cancelled: u64,
    /// Sessions failed with a typed error (execute error, step panic).
    pub failed: u64,
    /// Decode tokens streamed.
    pub tokens: u64,
    /// Fused stage sweeps executed.
    pub sweeps: u64,
    /// Total activation columns across all sweeps (`sweep_columns /
    /// sweeps` = mean interleave width).
    pub sweep_columns: u64,
}

impl SessionStats {
    /// Mean number of sequences sharing one fused stage sweep (0.0 before
    /// any sweep ran). Interleaving is working when this exceeds 1.
    pub fn mean_interleave_width(&self) -> f64 {
        if self.sweeps == 0 {
            0.0
        } else {
            self.sweep_columns as f64 / self.sweeps as f64
        }
    }
}

/// The token stream shared between the manager (producer) and the session's
/// handle/tickets (consumers).
struct SessionStream {
    queue: VecDeque<Result<DecodeToken, ServingError>>,
    closed: bool,
    cancelled: bool,
}

struct SessionShared {
    stream: Mutex<SessionStream>,
    cv: Condvar,
}

impl SessionShared {
    fn new() -> Arc<SessionShared> {
        Arc::new(SessionShared {
            stream: Mutex::new(SessionStream {
                queue: VecDeque::new(),
                closed: false,
                cancelled: false,
            }),
            cv: Condvar::new(),
        })
    }

    fn push_token(&self, token: DecodeToken) {
        let mut s = self.stream.lock().expect("session stream poisoned");
        s.queue.push_back(Ok(token));
        self.cv.notify_all();
    }

    /// Terminal typed error: delivered once, then the stream reads as
    /// finished.
    fn fail(&self, err: ServingError) {
        let mut s = self.stream.lock().expect("session stream poisoned");
        s.queue.push_back(Err(err));
        s.closed = true;
        self.cv.notify_all();
    }

    fn finish(&self) {
        let mut s = self.stream.lock().expect("session stream poisoned");
        s.closed = true;
        self.cv.notify_all();
    }

    fn cancel(&self) {
        let mut s = self.stream.lock().expect("session stream poisoned");
        s.cancelled = true;
        s.closed = true;
        self.cv.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.stream
            .lock()
            .expect("session stream poisoned")
            .cancelled
    }

    fn queued_len(&self) -> usize {
        self.stream
            .lock()
            .expect("session stream poisoned")
            .queue
            .len()
    }

    fn finished(&self) -> bool {
        let s = self.stream.lock().expect("session stream poisoned");
        s.closed && s.queue.is_empty()
    }

    fn next(&self, deadline: Option<Instant>) -> Result<Option<DecodeToken>, ServingError> {
        let mut s = self.stream.lock().expect("session stream poisoned");
        loop {
            if let Some(front) = s.queue.pop_front() {
                return front.map(Some);
            }
            if s.closed {
                return Ok(None);
            }
            match deadline {
                None => s = self.cv.wait(s).expect("session stream poisoned"),
                Some(due) => {
                    let now = Instant::now();
                    if now >= due {
                        return Err(ServingError::WaitTimeout);
                    }
                    s = self
                        .cv
                        .wait_timeout(s, due - now)
                        .expect("session stream poisoned")
                        .0;
                }
            }
        }
    }

    fn try_next(&self) -> Result<Option<DecodeToken>, ServingError> {
        let mut s = self.stream.lock().expect("session stream poisoned");
        match s.queue.pop_front() {
            Some(front) => front.map(Some),
            None => Ok(None),
        }
    }
}

/// The caller's ownership of an open decode session: mints streaming
/// [`SessionTicket`]s, cancels explicitly, and — together with every minted
/// ticket — carries the session's liveness: when the handle *and* all its
/// tickets are dropped, the manager cancels the session on its next round
/// (the refcount-claim idea the server's tickets use).
pub struct SessionHandle {
    id: u64,
    class: SloClass,
    shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// The session id (stable across eviction and resume).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The whole-sequence SLO class the session was opened with.
    pub fn class(&self) -> SloClass {
        self.class
    }

    /// Mints a streaming ticket over the session's token stream (any number
    /// may coexist; they share one stream cursor).
    pub fn ticket(&self) -> SessionTicket {
        SessionTicket {
            id: self.id,
            class: self.class,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Cancels the session: the manager stops stepping it on its next round.
    /// Already-streamed tokens stay consumable.
    pub fn cancel(&self) {
        self.shared.cancel();
    }
}

/// Streaming consumer of one decode session's tokens.
///
/// Tokens arrive in step order as interleave rounds resolve them. A typed
/// error ([`ServingError::Evicted`], [`ServingError::WorkerPanic`], …) is
/// terminal: it is delivered exactly once, after which the stream reads as
/// finished.
pub struct SessionTicket {
    id: u64,
    class: SloClass,
    shared: Arc<SessionShared>,
}

impl SessionTicket {
    /// The session id this ticket streams.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The whole-sequence SLO class of the session.
    pub fn class(&self) -> SloClass {
        self.class
    }

    /// Blocks for the next token. `Ok(None)` means the stream finished (all
    /// steps streamed, or the terminal error was already consumed).
    ///
    /// # Errors
    ///
    /// The session's terminal error, delivered once: eviction, a decode-step
    /// failure, or shutdown.
    pub fn next_token(&self) -> Result<Option<DecodeToken>, ServingError> {
        self.shared.next(None)
    }

    /// Non-blocking poll: `Ok(None)` means nothing is queued *right now* —
    /// use [`SessionTicket::finished`] to tell "not yet" from "done".
    ///
    /// # Errors
    ///
    /// The session's terminal error, delivered once.
    pub fn try_next(&self) -> Result<Option<DecodeToken>, ServingError> {
        self.shared.try_next()
    }

    /// Blocks for the next token up to `timeout`. The ticket stays live on
    /// timeout — wait again or poll later.
    ///
    /// # Errors
    ///
    /// [`ServingError::WaitTimeout`] when `timeout` elapses first, or the
    /// session's terminal error.
    pub fn wait_timeout(&self, timeout: Duration) -> Result<Option<DecodeToken>, ServingError> {
        self.shared.next(Some(Instant::now() + timeout))
    }

    /// Whether the stream is finished with nothing left to consume.
    pub fn finished(&self) -> bool {
        self.shared.finished()
    }
}

/// One live sequence the manager owns.
struct LiveSession {
    id: u64,
    class: SloClass,
    per_token: SloClass,
    model: Arc<dyn DecodeModel>,
    /// Identity key for grouping (sessions of the same model instance
    /// coalesce into one sweep).
    model_key: usize,
    /// The recurrent state and the next step's input. A round moves both
    /// out (leaving them empty) and writes them back when it returns; the
    /// session stays in the live set meanwhile.
    state: DecodeState,
    input: Vec<f32>,
    step: usize,
    max_steps: usize,
    shared: Arc<SessionShared>,
    evict_requested: bool,
}

/// A parked (evicted) session: the exact state snapshot resume re-admits.
struct ParkedSession {
    class: SloClass,
    model: Arc<dyn DecodeModel>,
    state: DecodeState,
    input: Vec<f32>,
    step: usize,
    max_steps: usize,
}

/// One session's working set for a round: moved out of its
/// [`LiveSession`], so the round runs with the manager lock free.
pub(crate) struct RoundMember {
    id: u64,
    model: Arc<dyn DecodeModel>,
    state: DecodeState,
    input: Vec<f32>,
}

/// What one group's step produced: each member's `(token, next input)`, or
/// the typed error that failed the whole group.
type GroupOutcome = Result<SweepOutputs, ServingError>;

struct ManagerState {
    /// Every session the manager steps, including those a round has taken
    /// the working set of: they count against capacity, stay eligible as
    /// eviction victims, and are written back when the round returns.
    live: Vec<LiveSession>,
    parked: HashMap<u64, ParkedSession>,
    stats: SessionStats,
    /// Groups of the current round not yet written back. A round is picked
    /// only when this is zero, so rounds never overlap.
    outstanding: usize,
    /// Set by [`SessionManager::stop`]: no session opens, resumes or steps.
    stopping: bool,
}

/// Owner of every decode session's state and planner of the iteration-level
/// interleave rounds, which a [`Server`](crate::server::Server)'s workers
/// run. See the module docs for the execution model.
pub struct SessionManager {
    inner: Mutex<ManagerState>,
    capacity: usize,
    next_id: AtomicU64,
    #[cfg(feature = "chaos")]
    fault_plan: Option<Arc<FaultPlan>>,
}

impl SessionManager {
    pub(crate) fn new(capacity: usize) -> SessionManager {
        SessionManager {
            inner: Mutex::new(ManagerState {
                live: Vec::new(),
                parked: HashMap::new(),
                stats: SessionStats::default(),
                outstanding: 0,
                stopping: false,
            }),
            capacity: capacity.max(1),
            next_id: AtomicU64::new(0),
            #[cfg(feature = "chaos")]
            fault_plan: None,
        }
    }

    #[cfg(feature = "chaos")]
    pub(crate) fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault_plan = plan;
    }

    /// Opens a session; the next round steps it.
    pub(crate) fn open(
        &self,
        model: Arc<dyn DecodeModel>,
        prompt: Vec<f32>,
        class: SloClass,
        max_steps: usize,
    ) -> Result<SessionHandle, SubmitError> {
        let mut inner = self.inner.lock().expect("session manager poisoned");
        if inner.stopping {
            return Err(SubmitError::NotAccepting);
        }
        let shared = SessionShared::new();
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        let handle = SessionHandle {
            id,
            class,
            shared: Arc::clone(&shared),
        };
        inner.stats.opened += 1;
        // Malformed prompts fail typed on the ticket without ever joining a
        // sweep (a wrong-length column must not poison co-grouped sessions).
        if prompt.len() != model.prompt_len() {
            let layer = model.stages().first().map(|s| s.layer).unwrap_or(0);
            shared.fail(ServingError::KMismatch {
                layer,
                expected: model.prompt_len(),
                got: prompt.len(),
            });
            inner.stats.failed += 1;
            return Ok(handle);
        }
        if max_steps == 0 {
            shared.finish();
            inner.stats.completed += 1;
            return Ok(handle);
        }
        if inner.live.len() >= self.capacity && !Self::mark_capacity_victim(&mut inner) {
            return Err(if class.kind() == SloKind::Bulk {
                SubmitError::Shed
            } else {
                SubmitError::QueueFull {
                    depth: self.capacity,
                }
            });
        }
        let model_key = Arc::as_ptr(&model) as *const () as usize;
        let state = model.init_state();
        inner.live.push(LiveSession {
            id,
            class,
            per_token: class.per_token(max_steps),
            model,
            model_key,
            state,
            input: prompt,
            step: 0,
            max_steps,
            shared,
            evict_requested: false,
        });
        Ok(handle)
    }

    /// Re-admits a parked session snapshot under the same id; continuation
    /// is bit-identical to the never-evicted stream.
    pub(crate) fn resume(&self, id: u64) -> Result<SessionHandle, ServingError> {
        let mut inner = self.inner.lock().expect("session manager poisoned");
        if inner.stopping {
            return Err(ServingError::ShutDown);
        }
        let parked = inner
            .parked
            .remove(&id)
            .ok_or(ServingError::UnknownSession { session: id })?;
        if inner.live.len() >= self.capacity && !Self::mark_capacity_victim(&mut inner) {
            inner.parked.insert(id, parked);
            return Err(ServingError::Shed);
        }
        let shared = SessionShared::new();
        let handle = SessionHandle {
            id,
            class: parked.class,
            shared: Arc::clone(&shared),
        };
        let model_key = Arc::as_ptr(&parked.model) as *const () as usize;
        inner.stats.resumed += 1;
        inner.live.push(LiveSession {
            id,
            class: parked.class,
            per_token: parked.class.per_token(parked.max_steps),
            model: parked.model,
            model_key,
            state: parked.state,
            input: parked.input,
            step: parked.step,
            max_steps: parked.max_steps,
            shared,
            evict_requested: false,
        });
        Ok(handle)
    }

    /// Requests eviction of a live session (any class — the deterministic
    /// pressure lever benches and tests use). `true` when the id was live,
    /// including a session a round is stepping right now: it is parked when
    /// that round returns (unless that step was its last).
    pub(crate) fn evict(&self, id: u64) -> bool {
        let mut inner = self.inner.lock().expect("session manager poisoned");
        match inner.live.iter_mut().find(|s| s.id == id) {
            Some(s) => {
                s.evict_requested = true;
                true
            }
            None => false,
        }
    }

    /// Point-in-time counters.
    pub(crate) fn stats(&self) -> SessionStats {
        self.inner
            .lock()
            .expect("session manager poisoned")
            .stats
            .clone()
    }

    /// Stops the session tier: every live session fails typed with
    /// [`ServingError::ShutDown`] now, members of a round in flight included
    /// (their write-back finds them gone), and no session opens, resumes or
    /// steps again.
    pub(crate) fn stop(&self) {
        let mut inner = self.inner.lock().expect("session manager poisoned");
        inner.stopping = true;
        for s in inner.live.drain(..) {
            s.shared.fail(ServingError::ShutDown);
        }
    }

    /// Marks the capacity-pressure eviction victim: the Bulk-class session
    /// with the most unconsumed queued tokens (tie: lowest id). Only Bulk
    /// yields to capacity pressure — mirroring the server's shed semantics —
    /// so a session-full manager rejects non-Bulk openers instead of
    /// evicting latency-sensitive state.
    fn mark_capacity_victim(state: &mut ManagerState) -> bool {
        let mut best: Option<(usize, usize, u64)> = None;
        for (i, s) in state.live.iter().enumerate() {
            if s.evict_requested || s.class.kind() != SloKind::Bulk {
                continue;
            }
            let queued = s.shared.queued_len();
            let better = match best {
                None => true,
                Some((_, bq, bid)) => queued > bq || (queued == bq && s.id < bid),
            };
            if better {
                best = Some((i, queued, s.id));
            }
        }
        match best {
            Some((i, _, _)) => {
                state.live[i].evict_requested = true;
                true
            }
            None => false,
        }
    }

    /// Parks a session leaving the live set: exact state snapshot into the
    /// resume map, typed terminal error on the stream.
    fn park(state: &mut ManagerState, s: LiveSession) {
        let id = s.id;
        state.parked.insert(
            id,
            ParkedSession {
                class: s.class,
                model: s.model,
                state: s.state,
                input: s.input,
                step: s.step,
                max_steps: s.max_steps,
            },
        );
        s.shared.fail(ServingError::Evicted { session: id });
        state.stats.evicted += 1;
    }

    /// Starts the next interleave round unless one is still outstanding or
    /// the tier is stopping. Under the lock: reap abandoned sessions, apply
    /// evictions, poll chaos step faults, move every remaining session's
    /// working set out, and group the members by model, in session-id
    /// order of each group's first member. Each group's meta is stamped in
    /// the caller's bases: `now_us` on its deadline clock and one number of
    /// `next_seq` as its arrival. The caller runs each group with
    /// [`Self::step_group`].
    pub(crate) fn pick_round(
        &self,
        engine: &ServingEngine,
        now_us: u64,
        next_seq: &AtomicU64,
    ) -> Vec<(GroupMeta, Vec<RoundMember>)> {
        let mut inner = self.inner.lock().expect("session manager poisoned");
        if inner.stopping || inner.outstanding > 0 {
            return Vec::new();
        }

        // Reap sessions whose every handle/ticket was dropped (only the
        // manager's own Arc remains) or that were explicitly cancelled.
        let mut i = 0;
        while i < inner.live.len() {
            let abandoned = Arc::strong_count(&inner.live[i].shared) == 1
                || inner.live[i].shared.is_cancelled();
            if abandoned {
                let s = inner.live.remove(i);
                s.shared.finish();
                inner.stats.cancelled += 1;
            } else {
                i += 1;
            }
        }

        // Apply requested evictions (capacity pressure or explicit).
        let mut i = 0;
        while i < inner.live.len() {
            if inner.live[i].evict_requested {
                let s = inner.live.remove(i);
                Self::park(&mut inner, s);
            } else {
                i += 1;
            }
        }

        // Every remaining live session contributes this round. Step order is
        // session-id order — the determinism anchor the chaos step counter
        // scripts against.
        inner.live.sort_by_key(|s| s.id);

        #[cfg(feature = "chaos")]
        if let Some(plan) = &self.fault_plan {
            let mut i = 0;
            while i < inner.live.len() {
                match plan.poll_step() {
                    StepFault::None => i += 1,
                    StepFault::Evict => {
                        let s = inner.live.remove(i);
                        Self::park(&mut inner, s);
                    }
                    StepFault::Panic => {
                        let s = inner.live.remove(i);
                        s.shared.fail(ServingError::WorkerPanic {
                            context: "injected decode-step panic (chaos fault plan)".to_string(),
                        });
                        inner.stats.failed += 1;
                    }
                }
            }
        }

        // Group by model identity; each group is one width-N sweep chain.
        let mut groups: Vec<(usize, Vec<&mut LiveSession>)> = Vec::new();
        for s in inner.live.iter_mut() {
            match groups.iter_mut().find(|(key, _)| *key == s.model_key) {
                Some((_, members)) => members.push(s),
                None => groups.push((s.model_key, vec![s])),
            }
        }
        let round: Vec<(GroupMeta, Vec<RoundMember>)> = groups
            .into_iter()
            .map(|(_, sessions)| {
                let seq = next_seq.fetch_add(1, Ordering::SeqCst);
                let meta = Self::sweep_meta(engine, &sessions, now_us, seq);
                let members = sessions
                    .into_iter()
                    .map(|s| RoundMember {
                        id: s.id,
                        model: Arc::clone(&s.model),
                        state: std::mem::take(&mut s.state),
                        input: std::mem::take(&mut s.input),
                    })
                    .collect();
                (meta, members)
            })
            .collect();
        inner.outstanding = round.len();
        round
    }

    /// The sweep's scheduling meta: most urgent member's kind, earliest
    /// per-token due time (`now_us` plus the budget), summed GEMM work, and
    /// `seq` as its arrival.
    fn sweep_meta(
        engine: &ServingEngine,
        members: &[&mut LiveSession],
        now_us: u64,
        seq: u64,
    ) -> GroupMeta {
        let kind = members
            .iter()
            .map(|m| m.class.kind())
            .min_by_key(|k| k.rank())
            .unwrap_or(SloKind::Standard);
        let due_us = members
            .iter()
            .filter_map(|m| m.per_token.token_due_us(now_us))
            .min();
        let per_column: u128 = members
            .first()
            .map(|m| {
                m.model
                    .stages()
                    .iter()
                    .map(|st| {
                        2 * engine.layer_m(st.layer).unwrap_or(0) as u128
                            * engine.layer_k(st.layer).unwrap_or(0) as u128
                    })
                    .sum()
            })
            .unwrap_or(0);
        GroupMeta::decode_sweep(
            kind,
            seq,
            due_us,
            per_column * members.len() as u128,
            members.len(),
        )
    }

    /// Runs one group of a round and writes it back. Returns `true` when it
    /// was the round's last group, so the next round is due.
    pub(crate) fn step_group(&self, engine: &ServingEngine, mut members: Vec<RoundMember>) -> bool {
        let mut sweeps = 0;
        let start = Instant::now();
        let outcome = Self::process_group(engine, &mut members, &mut sweeps);
        self.write_back(members, outcome, start.elapsed(), sweeps)
    }

    /// Deterministic stepping for the unit tests: one whole round on the
    /// calling thread, its groups in pick order.
    #[cfg(test)]
    fn run_round(&self, engine: &ServingEngine) {
        let seq = AtomicU64::new(0);
        for (_, members) in self.pick_round(engine, 0, &seq) {
            self.step_group(engine, members);
        }
    }

    /// Steps one group with the manager lock free: for each stage, every
    /// member contributes one column (`pre`), one tiled transpose gathers
    /// the columns into the operand of one fused execute, one more scatters
    /// the output back, and each member folds its own column (`post`). A
    /// panic or typed execute error fails the whole group. `sweeps` counts
    /// the executes that ran.
    fn process_group(
        engine: &ServingEngine,
        members: &mut [RoundMember],
        sweeps: &mut u64,
    ) -> GroupOutcome {
        let width = members.len();
        let Some(first) = members.first() else {
            return Ok(Vec::new());
        };
        let model = Arc::clone(&first.model);
        let outcome = catch_unwind(AssertUnwindSafe(|| -> GroupOutcome {
            let mut xs: Vec<Vec<f32>> = members
                .iter_mut()
                .map(|m| std::mem::take(&mut m.input))
                .collect();
            let mut columns: Vec<f32> = Vec::new();
            for (si, stage) in model.stages().iter().enumerate() {
                let k = engine.layer_k(stage.layer)?;
                let mut cols: Vec<Vec<f32>> = Vec::with_capacity(width);
                for (m, x) in members.iter_mut().zip(&xs) {
                    let col = m.model.pre(si, x, &mut m.state);
                    if col.len() != k {
                        return Err(ServingError::KMismatch {
                            layer: stage.layer,
                            expected: k,
                            got: col.len(),
                        });
                    }
                    cols.push(col);
                }
                let mut operand = DenseMatrix::zeros(k, width);
                transpose_into(width, k, |c| &cols[c], operand.as_mut_slice(), width);
                let (out, _) = engine.execute_profiled(stage.layer, &operand)?;
                *sweeps += 1;
                let rows = out.rows();
                let stride = rows + COLUMN_PAD;
                columns.resize(width * stride, 0.0);
                transpose_into(rows, width, |r| out.row(r), &mut columns, stride);
                for (c, (m, x)) in members.iter_mut().zip(xs.iter_mut()).enumerate() {
                    let column = &columns[c * stride..c * stride + rows];
                    *x = m.model.post(si, column, &mut m.state);
                }
            }
            Ok(xs
                .into_iter()
                .zip(members.iter())
                .map(|(x, m)| {
                    let next = m.model.feedback(&x);
                    (x, next)
                })
                .collect())
        }));
        outcome.unwrap_or_else(|payload| {
            Err(ServingError::WorkerPanic {
                context: crate::server::panic_message(payload.as_ref()),
            })
        })
    }

    /// The bookkeeping half of a group's step: under the lock, restores
    /// each member's working set, streams its token and retires it when its
    /// last step ran or an eviction was requested while the round ran. A
    /// failed group fails every member's stream; a member that
    /// [`Self::stop`] already failed is skipped. Returns `true` when this
    /// was the round's last outstanding group.
    fn write_back(
        &self,
        members: Vec<RoundMember>,
        outcome: GroupOutcome,
        elapsed: Duration,
        sweeps: u64,
    ) -> bool {
        let width = members.len();
        let service_ms = elapsed.as_secs_f64() * 1e3;
        let latency_us = elapsed.as_micros() as u64;
        let mut inner = self.inner.lock().expect("session manager poisoned");
        inner.outstanding -= 1;
        inner.stats.sweeps += sweeps;
        inner.stats.sweep_columns += sweeps * width as u64;
        let tokens = match outcome {
            Ok(tokens) => tokens.into_iter().map(Ok).collect(),
            Err(e) => vec![Err(e); width],
        };
        for (m, token) in members.into_iter().zip(tokens) {
            let Some(i) = inner.live.iter().position(|s| s.id == m.id) else {
                continue;
            };
            let (values, next_input) = match token {
                Ok(token) => token,
                Err(e) => {
                    let s = inner.live.remove(i);
                    s.shared.fail(e);
                    inner.stats.failed += 1;
                    continue;
                }
            };
            let s = &mut inner.live[i];
            s.state = m.state;
            s.input = next_input;
            s.shared.push_token(DecodeToken {
                step: s.step,
                values,
                service_ms,
                deadline_met: s.per_token.token_met(latency_us),
                width,
            });
            s.step += 1;
            let (done, evict) = (s.step >= s.max_steps, s.evict_requested);
            inner.stats.tokens += 1;
            if done {
                let s = inner.live.remove(i);
                s.shared.finish();
                inner.stats.completed += 1;
            } else if evict {
                let s = inner.live.remove(i);
                Self::park(&mut inner, s);
            }
        }
        inner.outstanding == 0
    }
}

/// Side of the square blocks [`transpose_into`] copies: a block's source
/// rows and destination rows both stay in L1.
const TRANSPOSE_TILE: usize = 32;

/// Floats of padding after each scattered output column. Without it, the
/// columns of a power-of-two-row layer (the GNMT gates have 4096) start a
/// multiple of 4 KiB apart, so a block's destination rows all map to the
/// same L1 sets and evict each other; the scatter then ran ~5× slower.
const COLUMN_PAD: usize = 16;

/// Writes the `rows × cols` matrix whose row `r` is `row(r)` into `dst`
/// transposed, one square block at a time: source element `(r, c)` lands at
/// `dst[c * dst_stride + r]`. It serves the decode round's gather (member
/// columns into the operand) and scatter (output rows into member columns).
/// A pure copy, so it cannot change a bit.
fn transpose_into<'a>(
    rows: usize,
    cols: usize,
    row: impl Fn(usize) -> &'a [f32],
    dst: &mut [f32],
    dst_stride: usize,
) {
    assert!(dst_stride >= rows && (cols == 0 || dst.len() >= (cols - 1) * dst_stride + rows));
    for r0 in (0..rows).step_by(TRANSPOSE_TILE) {
        let r1 = (r0 + TRANSPOSE_TILE).min(rows);
        for c0 in (0..cols).step_by(TRANSPOSE_TILE) {
            let c1 = (c0 + TRANSPOSE_TILE).min(cols);
            for r in r0..r1 {
                for (c, &v) in (c0..c1).zip(&row(r)[c0..c1]) {
                    dst[c * dst_stride + r] = v;
                }
            }
        }
    }
}

/// Reference decode loop: one sequence alone, every stage executed cold at
/// width 1 ([`ServingEngine::execute_cold`](crate::engine::ServingEngine::execute_cold)).
/// Returns the token values of each step. The interleaved session tier must
/// be bit-identical to this, per sequence, including across eviction/resume.
///
/// # Errors
///
/// Any typed engine error a stage execute surfaces.
pub fn decode_oracle(
    engine: &crate::engine::ServingEngine,
    model: &dyn DecodeModel,
    prompt: &[f32],
    steps: usize,
) -> Result<Vec<Vec<f32>>, ServingError> {
    let mut state = model.init_state();
    let mut input = prompt.to_vec();
    let mut out = Vec::with_capacity(steps);
    for _ in 0..steps {
        let mut x = input;
        for (si, stage) in model.stages().iter().enumerate() {
            let col = model.pre(si, &x, &mut state);
            let combined = DenseMatrix::from_fn(col.len(), 1, |r, _| col[r]);
            let y = engine.execute_cold(stage.layer, &combined)?;
            let yv: Vec<f32> = (0..y.rows()).map(|r| y.get(r, 0)).collect();
            x = model.post(si, &yv, &mut state);
        }
        input = model.feedback(&x);
        out.push(x);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ServingEngine;
    use gpu_sim::GpuArch;
    use shfl_core::bucket::BucketPolicy;
    use shfl_core::ShflBwMatrix;
    use std::sync::mpsc;

    const N: usize = 16;

    /// Rows and columns of the `toy.ragged` layer (layer 2): neither is a
    /// multiple of the transpose tile.
    const RAGGED_M: usize = 36;
    const RAGGED_K: usize = 45;

    fn engine_with_toy_layers() -> ServingEngine {
        let mut engine = ServingEngine::new(GpuArch::a100(), BucketPolicy::new(8, 32).unwrap(), 16);
        for (l, (m, k)) in [(N, N), (N, N), (RAGGED_M, RAGGED_K)]
            .into_iter()
            .enumerate()
        {
            let dense = DenseMatrix::from_fn(m, k, |r, c| {
                if (c + r / 4 + l) % 3 == 0 {
                    0.25 + 0.5 * ((r * k + c) % 7) as f32 / 7.0
                } else {
                    0.0
                }
            });
            let weights = ShflBwMatrix::from_dense(&dense, 4).unwrap();
            let name = if l < 2 {
                format!("toy.l{l}")
            } else {
                "toy.ragged".into()
            };
            engine.register_layer(&name, weights);
        }
        engine
    }

    /// Recurrent toy model: stage 0 mixes the hidden state into the GEMM
    /// input, stage 1 writes the tanh-bounded output back as the new hidden
    /// state. State genuinely matters: dropping or cloning it wrongly breaks
    /// bit-identity immediately.
    struct ToyModel {
        stages: Vec<DecodeStage>,
    }

    impl ToyModel {
        fn new() -> ToyModel {
            ToyModel {
                stages: vec![
                    DecodeStage {
                        name: "toy.l0".into(),
                        layer: 0,
                    },
                    DecodeStage {
                        name: "toy.l1".into(),
                        layer: 1,
                    },
                ],
            }
        }
    }

    impl DecodeModel for ToyModel {
        fn name(&self) -> &str {
            "toy"
        }

        fn stages(&self) -> &[DecodeStage] {
            &self.stages
        }

        fn init_state(&self) -> DecodeState {
            DecodeState {
                slots: vec![vec![0.0; N]],
            }
        }

        fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
            match stage {
                0 => input
                    .iter()
                    .zip(&state.slots[0])
                    .map(|(x, h)| x + 0.5 * h)
                    .collect(),
                _ => input.to_vec(),
            }
        }

        fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
            let bounded: Vec<f32> = gemm_out.iter().map(|y| y.tanh()).collect();
            if stage == 1 {
                state.slots[0] = bounded.clone();
            }
            bounded
        }

        fn prompt_len(&self) -> usize {
            N
        }
    }

    /// One-stage recurrent model on the `toy.ragged` layer: the state is
    /// the last `RAGGED_M`-wide output, and feedback wraps the token back to
    /// the `RAGGED_K`-wide input.
    struct RaggedModel {
        stages: Vec<DecodeStage>,
    }

    impl DecodeModel for RaggedModel {
        fn name(&self) -> &str {
            "ragged"
        }

        fn stages(&self) -> &[DecodeStage] {
            &self.stages
        }

        fn init_state(&self) -> DecodeState {
            DecodeState {
                slots: vec![vec![0.0; RAGGED_M]],
            }
        }

        fn pre(&self, _: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
            (0..RAGGED_K)
                .map(|i| input[i] + 0.5 * state.slots[0][i % RAGGED_M])
                .collect()
        }

        fn post(&self, _: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
            state.slots[0] = gemm_out.iter().map(|y| y.tanh()).collect();
            state.slots[0].clone()
        }

        fn feedback(&self, token: &[f32]) -> Vec<f32> {
            (0..RAGGED_K).map(|i| token[i % RAGGED_M]).collect()
        }

        fn prompt_len(&self) -> usize {
            RAGGED_K
        }
    }

    /// The toy model behind a one-shot gate: the first `post` call signals
    /// `entered`, then waits for `release` (bounded, so a failing test
    /// cannot leave the round thread blocked).
    struct GatedModel {
        inner: ToyModel,
        entered: Mutex<Option<mpsc::Sender<()>>>,
        release: Mutex<Option<mpsc::Receiver<()>>>,
    }

    impl DecodeModel for GatedModel {
        fn name(&self) -> &str {
            "gated"
        }

        fn stages(&self) -> &[DecodeStage] {
            self.inner.stages()
        }

        fn init_state(&self) -> DecodeState {
            self.inner.init_state()
        }

        fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
            self.inner.pre(stage, input, state)
        }

        fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
            if let Some(entered) = self.entered.lock().unwrap().take() {
                let release = self.release.lock().unwrap().take().unwrap();
                entered.send(()).unwrap();
                // Outlasts the test's own wait, so a test that gives up on
                // the admin calls still finds the gate closed.
                let _ = release.recv_timeout(2 * GUARD);
            }
            self.inner.post(stage, gemm_out, state)
        }

        fn prompt_len(&self) -> usize {
            N
        }
    }

    /// Bound on every wait of the concurrency tests.
    const GUARD: Duration = Duration::from_secs(10);

    /// Model whose `post` panics once a scripted step is reached (the step
    /// count rides in the state).
    struct PanickyModel {
        inner: ToyModel,
        panic_step: usize,
    }

    impl DecodeModel for PanickyModel {
        fn name(&self) -> &str {
            "panicky"
        }

        fn stages(&self) -> &[DecodeStage] {
            self.inner.stages()
        }

        fn init_state(&self) -> DecodeState {
            let mut state = self.inner.init_state();
            state.slots.push(vec![0.0]);
            state
        }

        fn pre(&self, stage: usize, input: &[f32], state: &mut DecodeState) -> Vec<f32> {
            self.inner.pre(stage, input, state)
        }

        fn post(&self, stage: usize, gemm_out: &[f32], state: &mut DecodeState) -> Vec<f32> {
            if stage == 1 {
                let step = state.slots[1][0] as usize;
                if step + 1 > self.panic_step {
                    panic!("toy model hook panic at step {step}");
                }
                state.slots[1][0] += 1.0;
            }
            self.inner.post(stage, gemm_out, state)
        }

        fn prompt_len(&self) -> usize {
            N
        }
    }

    fn prompt(seed: u64) -> Vec<f32> {
        prompt_of(N, seed)
    }

    fn prompt_of(len: usize, seed: u64) -> Vec<f32> {
        (0..len)
            .map(|i| (((seed as usize * 31 + i * 7) % 13) as f32 - 6.0) / 6.0)
            .collect()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn drain(ticket: &SessionTicket) -> (Vec<DecodeToken>, Option<ServingError>) {
        let mut toks = Vec::new();
        loop {
            match ticket.next_token() {
                Ok(Some(t)) => toks.push(t),
                Ok(None) => return (toks, None),
                Err(e) => return (toks, Some(e)),
            }
        }
    }

    /// Opens `width` sessions of `model`, runs `steps` rounds, and checks
    /// that every token came from a `width`-wide sweep and matches the cold
    /// oracle bit for bit.
    fn check_interleave(model: &Arc<dyn DecodeModel>, width: usize, steps: usize) {
        let engine = engine_with_toy_layers();
        let mgr = SessionManager::new(64);
        let prompt = |i: usize| prompt_of(model.prompt_len(), i as u64);
        let handles: Vec<SessionHandle> = (0..width)
            .map(|i| {
                mgr.open(Arc::clone(model), prompt(i), SloClass::Standard, steps)
                    .unwrap()
            })
            .collect();
        for _ in 0..steps {
            mgr.run_round(&engine);
        }
        let cold = engine_with_toy_layers();
        for (i, h) in handles.iter().enumerate() {
            let (toks, err) = drain(&h.ticket());
            assert!(err.is_none(), "session {i} failed: {err:?}");
            assert_eq!(toks.len(), steps);
            let oracle = decode_oracle(&cold, model.as_ref(), &prompt(i), steps).unwrap();
            for (t, o) in toks.iter().zip(&oracle) {
                assert_eq!(bits(&t.values), bits(o), "session {i} diverged");
                assert_eq!(t.width, width, "session {i} did not interleave");
            }
        }
        let stats = mgr.stats();
        assert_eq!(stats.completed, width as u64);
        assert_eq!(stats.tokens, (width * steps) as u64);
        assert_eq!(stats.mean_interleave_width(), width as f64);
    }

    #[test]
    fn interleaved_sessions_match_the_cold_oracle_bit_for_bit() {
        let toy: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        check_interleave(&toy, 4, 5);
        // A layer whose m and k are not multiples of the transpose tile, at
        // widths below it and one odd width above it.
        assert_ne!(RAGGED_M % TRANSPOSE_TILE, 0);
        assert_ne!(RAGGED_K % TRANSPOSE_TILE, 0);
        let ragged: Arc<dyn DecodeModel> = Arc::new(RaggedModel {
            stages: vec![DecodeStage {
                name: "toy.ragged".into(),
                layer: 2,
            }],
        });
        for width in [1, 2, TRANSPOSE_TILE + 1] {
            check_interleave(&ragged, width, 3);
        }
    }

    #[test]
    fn admin_calls_do_not_wait_behind_a_round_and_in_round_evictions_land_after_it() {
        let engine = engine_with_toy_layers();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel();
        let gated: Arc<dyn DecodeModel> = Arc::new(GatedModel {
            inner: ToyModel::new(),
            entered: Mutex::new(Some(entered_tx)),
            release: Mutex::new(Some(release_rx)),
        });
        let toy: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        let mgr = SessionManager::new(3);
        let steps = 4;
        // Both ride the round that blocks in `post`.
        let bulk = mgr
            .open(Arc::clone(&gated), prompt(0), SloClass::Bulk, steps)
            .unwrap();
        let standard = mgr
            .open(Arc::clone(&gated), prompt(1), SloClass::Standard, steps)
            .unwrap();
        let late = std::thread::scope(|scope| {
            let round = scope.spawn(|| mgr.run_round(&engine));
            entered_rx
                .recv_timeout(GUARD)
                .expect("the round reaches post");
            let (done_tx, done_rx) = mpsc::channel();
            let (mgr, toy, standard_id) = (&mgr, &toy, standard.id());
            scope.spawn(move || {
                let open =
                    |seed| mgr.open(Arc::clone(toy), prompt(seed), SloClass::Standard, steps);
                // The two in-round sessions count against capacity 3: the
                // first opener fits, the second evicts the in-round Bulk
                // session, and the third finds no victim left.
                let opened = [open(2), open(3), open(4)];
                let evicted = mgr.evict(standard_id);
                let _ = done_tx.send((opened, evicted, mgr.stats()));
            });
            let admin = done_rx.recv_timeout(GUARD);
            // The gate may have timed out already; release it either way.
            let _ = release_tx.send(());
            let (opened, evicted, stats) =
                admin.expect("open, evict and stats returned while the round ran");
            round.join().unwrap();
            let [first, second, third] = opened;
            assert_eq!(third.err(), Some(SubmitError::QueueFull { depth: 3 }));
            assert!(evicted, "an in-round session is live");
            assert_eq!(
                stats.evicted, 0,
                "in-round evictions land when the round returns"
            );
            assert_eq!(stats.tokens, 0);
            [first.unwrap(), second.unwrap()]
        });
        // The round streamed one token to each in-round session, then
        // parked both.
        let stats = mgr.stats();
        assert_eq!((stats.tokens, stats.evicted), (2, 2));
        let (bulk_head, err) = drain(&bulk.ticket());
        assert_eq!(err, Some(ServingError::Evicted { session: bulk.id() }));
        let (standard_head, err) = drain(&standard.ticket());
        assert_eq!(
            err,
            Some(ServingError::Evicted {
                session: standard.id()
            })
        );
        assert_eq!((bulk_head.len(), standard_head.len()), (1, 1));
        // The late openers run to completion, then both parked streams
        // resume and finish bit-identically to the oracle.
        for _ in 0..steps {
            mgr.run_round(&engine);
        }
        let resumed = [
            mgr.resume(bulk.id()).unwrap(),
            mgr.resume(standard.id()).unwrap(),
        ];
        for _ in 1..steps {
            mgr.run_round(&engine);
        }
        let cold = engine_with_toy_layers();
        let check = |toks: &[DecodeToken], seed: u64| {
            let oracle = decode_oracle(&cold, toy.as_ref(), &prompt(seed), steps).unwrap();
            assert_eq!(toks.len(), steps, "session {seed} lost tokens");
            for (t, o) in toks.iter().zip(&oracle) {
                assert_eq!(bits(&t.values), bits(o), "session {seed} diverged");
            }
        };
        for (seed, (head, handle)) in [
            (0, (bulk_head, &resumed[0])),
            (1, (standard_head, &resumed[1])),
        ] {
            let (tail, err) = drain(&handle.ticket());
            assert!(err.is_none(), "resumed session {seed} failed: {err:?}");
            check(&[head, tail].concat(), seed);
        }
        for (seed, handle) in [(2, &late[0]), (3, &late[1])] {
            let (toks, err) = drain(&handle.ticket());
            assert!(err.is_none());
            check(&toks, seed);
        }
        let stats = mgr.stats();
        assert_eq!((stats.evicted, stats.resumed, stats.completed), (2, 2, 4));
    }

    #[test]
    fn capacity_pressure_evicts_bulk_and_resume_continues_bit_identically() {
        let engine = engine_with_toy_layers();
        let model: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        let mgr = SessionManager::new(2);
        let steps = 6;
        let bulk = mgr
            .open(Arc::clone(&model), prompt(0), SloClass::Bulk, steps)
            .unwrap();
        let std1 = mgr
            .open(Arc::clone(&model), prompt(1), SloClass::Standard, steps)
            .unwrap();
        mgr.run_round(&engine);
        mgr.run_round(&engine);
        // Third opener at capacity: the Bulk session yields.
        let std2 = mgr
            .open(Arc::clone(&model), prompt(2), SloClass::Standard, steps)
            .unwrap();
        mgr.run_round(&engine);
        let (toks, err) = drain(&bulk.ticket());
        assert_eq!(toks.len(), 2, "bulk streamed its pre-eviction tokens");
        assert_eq!(err, Some(ServingError::Evicted { session: bulk.id() }));
        // Still at capacity with no Bulk victim: resume is refused, the
        // snapshot stays parked.
        assert!(matches!(mgr.resume(bulk.id()), Err(ServingError::Shed)));
        for _ in 0..steps {
            mgr.run_round(&engine);
        }
        let resumed = mgr.resume(bulk.id()).expect("parked snapshot resumable");
        assert_eq!(resumed.id(), bulk.id());
        for _ in 0..steps {
            mgr.run_round(&engine);
        }
        let (tail, err) = drain(&resumed.ticket());
        assert!(err.is_none(), "resumed session failed: {err:?}");
        assert_eq!(toks.len() + tail.len(), steps);
        let cold = engine_with_toy_layers();
        let oracle = decode_oracle(&cold, model.as_ref(), &prompt(0), steps).unwrap();
        for (t, o) in toks.iter().chain(tail.iter()).zip(&oracle) {
            assert_eq!(bits(&t.values), bits(o), "evict/resume broke bit-identity");
        }
        // Unknown and already-resumed ids surface typed.
        let again = bulk.id();
        assert!(matches!(
            mgr.resume(again),
            Err(ServingError::UnknownSession { session }) if session == again
        ));
        assert!(matches!(
            mgr.resume(999),
            Err(ServingError::UnknownSession { session: 999 })
        ));
        // The two standard sessions were untouched by the churn.
        for (h, seed) in [(std1, 1u64), (std2, 2u64)] {
            let (toks, err) = drain(&h.ticket());
            assert!(err.is_none());
            let oracle = decode_oracle(&cold, model.as_ref(), &prompt(seed), steps).unwrap();
            assert_eq!(toks.len(), oracle.len());
            for (t, o) in toks.iter().zip(&oracle) {
                assert_eq!(bits(&t.values), bits(o));
            }
        }
        let stats = mgr.stats();
        assert_eq!(stats.evicted, 1);
        assert_eq!(stats.resumed, 1);
    }

    #[test]
    fn dropping_every_handle_cancels_and_a_hook_panic_fails_only_its_group() {
        let engine = engine_with_toy_layers();
        let toy: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        let panicky: Arc<dyn DecodeModel> = Arc::new(PanickyModel {
            inner: ToyModel::new(),
            panic_step: 1,
        });
        let mgr = SessionManager::new(8);
        let steps = 3;
        let keep = mgr
            .open(Arc::clone(&toy), prompt(0), SloClass::Standard, steps)
            .unwrap();
        let dropped = mgr
            .open(Arc::clone(&toy), prompt(1), SloClass::Standard, steps)
            .unwrap();
        let doomed = mgr
            .open(Arc::clone(&panicky), prompt(2), SloClass::Standard, steps)
            .unwrap();
        let doomed_ticket = doomed.ticket();
        drop(dropped);
        for _ in 0..steps {
            mgr.run_round(&engine);
        }
        // The abandoned session was reaped without stepping.
        let stats = mgr.stats();
        assert_eq!(stats.cancelled, 1);
        // The panicky model streamed its good step, then failed typed; the
        // healthy group kept streaming to completion.
        let (toks, err) = drain(&doomed_ticket);
        assert_eq!(toks.len(), 1);
        match err {
            Some(ServingError::WorkerPanic { context }) => {
                assert!(context.contains("toy model hook panic"), "{context}");
            }
            other => panic!("expected a typed panic error, got {other:?}"),
        }
        let (toks, err) = drain(&keep.ticket());
        assert!(err.is_none());
        assert_eq!(toks.len(), steps);
        let cold = engine_with_toy_layers();
        let oracle = decode_oracle(&cold, toy.as_ref(), &prompt(0), steps).unwrap();
        for (t, o) in toks.iter().zip(&oracle) {
            assert_eq!(bits(&t.values), bits(o));
        }
        assert_eq!(mgr.stats().failed, 1);
    }

    #[test]
    fn streaming_surface_polls_times_out_and_reports_finish() {
        let engine = engine_with_toy_layers();
        let model: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        let mgr = SessionManager::new(8);
        let h = mgr
            .open(Arc::clone(&model), prompt(0), SloClass::Standard, 2)
            .unwrap();
        let ticket = h.ticket();
        // Nothing resolved yet: try_next is empty but not finished, and a
        // bounded wait times out with the ticket still live.
        assert_eq!(ticket.try_next(), Ok(None));
        assert!(!ticket.finished());
        assert_eq!(
            ticket.wait_timeout(Duration::from_millis(5)),
            Err(ServingError::WaitTimeout)
        );
        mgr.run_round(&engine);
        assert!(matches!(ticket.try_next(), Ok(Some(_))));
        mgr.run_round(&engine);
        assert!(matches!(
            ticket.wait_timeout(Duration::from_millis(50)),
            Ok(Some(_))
        ));
        assert_eq!(ticket.next_token(), Ok(None));
        assert!(ticket.finished());
        // Malformed prompts fail typed on the ticket, not in a sweep.
        let bad = mgr
            .open(Arc::clone(&model), vec![1.0; 3], SloClass::Standard, 2)
            .unwrap();
        match bad.ticket().next_token() {
            Err(ServingError::KMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (N, 3));
            }
            other => panic!("expected KMismatch, got {other:?}"),
        }
        // Zero-step sessions complete immediately.
        let empty = mgr
            .open(Arc::clone(&model), prompt(1), SloClass::Standard, 0)
            .unwrap();
        assert_eq!(empty.ticket().next_token(), Ok(None));
    }

    #[test]
    fn stop_fails_live_sessions_typed_and_refuses_new_ones() {
        let engine = engine_with_toy_layers();
        let model: Arc<dyn DecodeModel> = Arc::new(ToyModel::new());
        let mgr = SessionManager::new(8);
        let h = mgr
            .open(Arc::clone(&model), prompt(0), SloClass::Standard, 64)
            .unwrap();
        mgr.run_round(&engine);
        // A round in flight when the tier stops: its member fails now, and
        // its write-back streams nothing and picks no further round.
        let seq = AtomicU64::new(0);
        let round = mgr.pick_round(&engine, 0, &seq);
        assert_eq!(round.len(), 1);
        mgr.stop();
        let (toks, err) = drain(&h.ticket());
        assert_eq!(toks.len(), 1);
        assert_eq!(err, Some(ServingError::ShutDown));
        for (_, members) in round {
            assert!(mgr.step_group(&engine, members), "the round's last group");
        }
        assert!(mgr.pick_round(&engine, 0, &seq).is_empty());
        assert_eq!(mgr.stats().tokens, 1);
        assert!(matches!(
            mgr.open(Arc::clone(&model), prompt(1), SloClass::Standard, 4),
            Err(SubmitError::NotAccepting)
        ));
        assert!(matches!(mgr.resume(h.id()), Err(ServingError::ShutDown)));
    }
}
