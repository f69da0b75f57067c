//! Deterministic fault injection for the serving front-end (the `chaos`
//! feature).
//!
//! Robustness claims about a concurrent server are only as good as the
//! faults they were tested against, and timing-dependent fault tests are
//! worse than none — they pass on the machine that wrote them. [`FaultPlan`]
//! makes the fault schedule a *deterministic script*: faults fire at exact
//! points in the server's own sequence numbers (the N-th submission, the
//! N-th group execute), not at wall-clock offsets, so a chaos test replays
//! the identical schedule on every run and every machine.
//!
//! Six fault kinds cover the failure surface of the server:
//!
//! * **queue-full windows** ([`FaultPlan::reject_submit_at`]) — the N-th
//!   submission is rejected as if the bounded queue were full, exercising
//!   the caller's backpressure handling without actually filling the queue.
//! * **plan-build failures** ([`FaultPlan::fail_build_at`]) — the N-th group
//!   execute fails with a typed kernel error before touching the engine,
//!   exactly like a failed [`shfl_kernels::cache::PlanCache`] build
//!   surfacing to every member of the group.
//! * **worker panics** ([`FaultPlan::panic_at`]) — the N-th group execute
//!   panics mid-service; the server must fail the group's tickets with a
//!   typed error, respawn the worker, and keep the dispatcher and `drain()`
//!   healthy.
//! * **slow executes** ([`FaultPlan::slow_at`]) — the N-th group execute
//!   stalls for a scripted duration first, creating backlog windows that
//!   force queued work to pile into later admission rounds.
//! * **update build failures** ([`FaultPlan::fail_update_build_at`]) — the
//!   N-th live weight update fails its candidate plan build with a typed
//!   kernel error; the server must keep the old version serving and surface
//!   a typed [`UpdateError`](crate::engine::UpdateError).
//! * **update panics** ([`FaultPlan::panic_update_at`]) — the N-th live
//!   weight update panics at the exact swap sequence point; the containment
//!   path must convert the panic into a typed error with the old version
//!   still serving.
//!
//! The decode-session tier ([`crate::session::SessionManager`]) adds two
//! session-scoped fault points, scripted over the *decode step* sequence
//! number (every ready session's step in one interleave round advances the
//! counter once, in session-id order, so a step index names one session's
//! one step deterministically):
//!
//! * **session evictions** ([`FaultPlan::evict_session_at`]) — the session
//!   whose N-th decode step is reached is evicted instead: its state is
//!   snapshotted, its ticket surfaces a typed
//!   [`ServingError::Evicted`](crate::ServingError::Evicted), and
//!   `resume_session` must continue it bit-identically.
//! * **step panics** ([`FaultPlan::panic_step_at`]) — the session whose N-th
//!   decode step is reached panics mid-step; only that session's ticket
//!   fails with a typed error, every co-interleaved session keeps streaming.
//!
//! The plan is attached to a server via
//! [`ServerConfig::with_fault_plan`](crate::server::ServerConfig::with_fault_plan)
//! and consumed by injection points compiled only under the `chaos` feature;
//! a production build carries none of this code.
//!
//! The chaos property the test suite asserts under *every* schedule: all
//! accepted tickets resolve (a value or a typed error — no hangs, no
//! poisoned locks), and every successful result is bit-identical to the
//! cold-path oracle.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// What an injection point at the group-execute site should do (crate
/// internal; the public surface is [`FaultPlan`]'s builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExecFault {
    /// No scripted fault at this execute index.
    None,
    /// Fail the group with a synthetic plan-build error (typed, no panic).
    FailBuild,
    /// Panic mid-service (the containment path must catch, fail the tickets
    /// with a typed error, and respawn the worker).
    Panic,
}

/// A scripted, deterministic fault schedule for one [`Server`]
/// (`crate::server::Server`).
///
/// Indices are 0-based sequence numbers over the server's lifetime:
/// submission order for [`FaultPlan::reject_submit_at`], group-execute order
/// for the rest. Each plan owns its sequence counters, so attach a fresh
/// plan to each server — sharing one plan between servers interleaves their
/// counters and the schedule stops being meaningful.
///
/// ```
/// use shfl_serving::chaos::FaultPlan;
/// // 3rd execute fails its plan build, 5th panics, 0th submission bounces.
/// let plan = FaultPlan::new()
///     .fail_build_at(3)
///     .panic_at(5)
///     .reject_submit_at(0);
/// assert_eq!(plan.scripted_faults(), 3);
/// ```
#[derive(Debug, Default)]
pub struct FaultPlan {
    reject_submits: Vec<u64>,
    fail_builds: Vec<u64>,
    panics: Vec<u64>,
    slow_execs: HashMap<u64, u64>,
    fail_update_builds: Vec<u64>,
    update_panics: Vec<u64>,
    evict_sessions: Vec<u64>,
    panic_steps: Vec<u64>,
    submit_seq: AtomicU64,
    exec_seq: AtomicU64,
    update_seq: AtomicU64,
    step_seq: AtomicU64,
}

/// What a decode-step injection point should do (crate internal; the public
/// surface is [`FaultPlan`]'s builder).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepFault {
    /// No scripted fault at this decode-step index.
    None,
    /// Evict the session about to take this step (snapshot + typed
    /// `Evicted` error on its ticket; resumable).
    Evict,
    /// Panic mid-step: only this session's ticket fails with a typed error.
    Panic,
}

impl FaultPlan {
    /// An empty schedule (no faults fire until scripted).
    pub fn new() -> Self {
        Self::default()
    }

    /// Scripts the `idx`-th submission (0-based, counted across the server's
    /// lifetime) to be rejected with a queue-full error without entering the
    /// queue.
    pub fn reject_submit_at(mut self, idx: u64) -> Self {
        self.reject_submits.push(idx);
        self
    }

    /// Scripts the `idx`-th group execute (0-based) to fail with a synthetic
    /// plan-build error: every member of the group resolves with a typed
    /// kernel error, no compute runs.
    pub fn fail_build_at(mut self, idx: u64) -> Self {
        self.fail_builds.push(idx);
        self
    }

    /// Scripts the `idx`-th group execute to panic mid-service, exercising
    /// the worker containment and respawn path.
    pub fn panic_at(mut self, idx: u64) -> Self {
        self.panics.push(idx);
        self
    }

    /// Scripts the `idx`-th group execute to stall for `delay_us`
    /// microseconds before running, creating a deterministic backlog window.
    pub fn slow_at(mut self, idx: u64, delay_us: u64) -> Self {
        self.slow_execs.insert(idx, delay_us);
        self
    }

    /// Scripts the `idx`-th live weight update (0-based, counted across the
    /// server's lifetime) to fail its candidate plan build with a synthetic
    /// kernel error before the engine is touched — the old version must keep
    /// serving.
    pub fn fail_update_build_at(mut self, idx: u64) -> Self {
        self.fail_update_builds.push(idx);
        self
    }

    /// Scripts the `idx`-th live weight update to panic at the exact swap
    /// sequence point, exercising the update containment path (panic caught,
    /// typed error returned, old version still serving).
    pub fn panic_update_at(mut self, idx: u64) -> Self {
        self.update_panics.push(idx);
        self
    }

    /// Scripts the session whose `idx`-th decode step (0-based, counted
    /// across the session manager's lifetime in session-id order per round)
    /// is reached to be evicted instead of stepped: state snapshotted, a
    /// typed `Evicted` error on its ticket, resumable bit-identically.
    pub fn evict_session_at(mut self, idx: u64) -> Self {
        self.evict_sessions.push(idx);
        self
    }

    /// Scripts the session whose `idx`-th decode step is reached to panic
    /// mid-step; the containment path must fail only that session's ticket
    /// with a typed error while every co-interleaved session keeps
    /// streaming.
    pub fn panic_step_at(mut self, idx: u64) -> Self {
        self.panic_steps.push(idx);
        self
    }

    /// Total number of scripted fault points (used by tests to sanity-check
    /// a schedule drove everything it meant to).
    pub fn scripted_faults(&self) -> usize {
        self.reject_submits.len()
            + self.fail_builds.len()
            + self.panics.len()
            + self.slow_execs.len()
            + self.fail_update_builds.len()
            + self.update_panics.len()
            + self.evict_sessions.len()
            + self.panic_steps.len()
    }

    /// Number of submissions the attached server has counted so far.
    pub fn submissions_seen(&self) -> u64 {
        self.submit_seq.load(Ordering::SeqCst)
    }

    /// Number of group executes the attached server has counted so far.
    pub fn executes_seen(&self) -> u64 {
        self.exec_seq.load(Ordering::SeqCst)
    }

    /// Number of live weight updates the attached server has counted so far.
    pub fn updates_seen(&self) -> u64 {
        self.update_seq.load(Ordering::SeqCst)
    }

    /// Number of decode steps the attached session manager has counted so
    /// far.
    pub fn steps_seen(&self) -> u64 {
        self.step_seq.load(Ordering::SeqCst)
    }

    /// Advances the submission counter and reports whether this submission
    /// is scripted to bounce with a queue-full rejection.
    pub(crate) fn poll_submit(&self) -> bool {
        let idx = self.submit_seq.fetch_add(1, Ordering::SeqCst);
        self.reject_submits.contains(&idx)
    }

    /// Advances the execute counter and returns the scripted stall (if any)
    /// plus the fault to inject at this execute.
    pub(crate) fn poll_exec(&self) -> (Option<Duration>, ExecFault) {
        let idx = self.exec_seq.fetch_add(1, Ordering::SeqCst);
        let stall = self
            .slow_execs
            .get(&idx)
            .map(|us| Duration::from_micros(*us));
        let fault = if self.panics.contains(&idx) {
            ExecFault::Panic
        } else if self.fail_builds.contains(&idx) {
            ExecFault::FailBuild
        } else {
            ExecFault::None
        };
        (stall, fault)
    }

    /// Advances the update counter and returns the fault to inject at this
    /// live weight update ([`ExecFault::FailBuild`] → synthetic candidate
    /// build failure, [`ExecFault::Panic`] → panic at the swap point).
    pub(crate) fn poll_update(&self) -> ExecFault {
        let idx = self.update_seq.fetch_add(1, Ordering::SeqCst);
        if self.update_panics.contains(&idx) {
            ExecFault::Panic
        } else if self.fail_update_builds.contains(&idx) {
            ExecFault::FailBuild
        } else {
            ExecFault::None
        }
    }

    /// Advances the decode-step counter and returns the fault to inject at
    /// this step (eviction wins when both are scripted at one index — an
    /// evicted session is resumable, so the schedule stays recoverable).
    pub(crate) fn poll_step(&self) -> StepFault {
        let idx = self.step_seq.fetch_add(1, Ordering::SeqCst);
        if self.evict_sessions.contains(&idx) {
            StepFault::Evict
        } else if self.panic_steps.contains(&idx) {
            StepFault::Panic
        } else {
            StepFault::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_fires_at_exact_indices() {
        let plan = FaultPlan::new()
            .reject_submit_at(1)
            .fail_build_at(0)
            .panic_at(2)
            .slow_at(1, 500)
            .fail_update_build_at(0)
            .panic_update_at(2);
        assert_eq!(plan.scripted_faults(), 6);
        assert!(!plan.poll_submit()); // submission 0: clean
        assert!(plan.poll_submit()); // submission 1: scripted bounce
        assert!(!plan.poll_submit());
        assert_eq!(plan.submissions_seen(), 3);

        let (stall, fault) = plan.poll_exec(); // execute 0
        assert_eq!((stall, fault), (None, ExecFault::FailBuild));
        let (stall, fault) = plan.poll_exec(); // execute 1
        assert_eq!(stall, Some(Duration::from_micros(500)));
        assert_eq!(fault, ExecFault::None);
        let (stall, fault) = plan.poll_exec(); // execute 2
        assert_eq!((stall, fault), (None, ExecFault::Panic));
        assert_eq!(plan.executes_seen(), 3);

        assert_eq!(plan.poll_update(), ExecFault::FailBuild); // update 0
        assert_eq!(plan.poll_update(), ExecFault::None); // update 1
        assert_eq!(plan.poll_update(), ExecFault::Panic); // update 2
        assert_eq!(plan.updates_seen(), 3);
    }

    #[test]
    fn session_step_faults_fire_at_exact_step_indices() {
        let plan = FaultPlan::new()
            .evict_session_at(1)
            .panic_step_at(2)
            .evict_session_at(3)
            .panic_step_at(3); // eviction wins a scripted collision
        assert_eq!(plan.scripted_faults(), 4);
        assert_eq!(plan.poll_step(), StepFault::None); // step 0
        assert_eq!(plan.poll_step(), StepFault::Evict); // step 1
        assert_eq!(plan.poll_step(), StepFault::Panic); // step 2
        assert_eq!(plan.poll_step(), StepFault::Evict); // step 3
        assert_eq!(plan.steps_seen(), 4);
    }
}
