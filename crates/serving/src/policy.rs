//! Pluggable ordering of ready request groups.
//!
//! The continuous-batching [`Server`](crate::server::Server) turns arrivals
//! into **ready groups** (same-layer, same-class requests coalesced into one
//! fused execute, and each decode round's same-model session groups) and
//! asks a [`QueuePolicy`] in which order the worker pool should pick them
//! up. The policy sees one [`GroupMeta`] per group — arrival
//! position, SLO class, tightest deadline, estimated cost — and returns a
//! total order. Everything else (grouping, admission windows, execution) is
//! policy-independent, so changing the scheduling discipline is a one-line
//! [`ServerConfig::policy`](crate::server::ServerConfig::policy) swap.
//!
//! Four disciplines ship with the crate:
//!
//! * [`Fifo`] — arrival order; the zero-surprise default.
//! * [`Lpt`] — longest processing time first. With a handful of coalesced
//!   groups across a small worker pool, a heavy group picked up last
//!   dominates the batch wall-clock; LPT is the classic makespan heuristic
//!   for serving one submitted batch.
//! * [`ShortestJobFirst`] — minimises mean latency under load (decode-style
//!   traffic: many small requests should not queue behind one huge unfolded
//!   convolution).
//! * [`SloAware`] — deadline-class scheduling: class rank first
//!   ([`SloKind::rank`]), tightest deadline next, arrival order last. The
//!   policy the SLO benchmarks run.

use shfl_core::slo::SloKind;
use std::cmp::Ordering;
use std::fmt;

/// What a [`QueuePolicy`] knows about one ready group when ordering the
/// dispatch queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupMeta {
    /// The layer every member addresses.
    pub layer: usize,
    /// The SLO class of the group (groups never mix classes).
    pub kind: SloKind,
    /// Submission sequence number of the group's **earliest** member, or
    /// for a decode group the number taken when its round was picked (one
    /// counter per server; the FIFO key).
    pub arrival_seq: u64,
    /// Tightest absolute deadline among the members, in µs since the server
    /// started; `None` for non-deadline groups.
    pub due_us: Option<u64>,
    /// Estimated cost of the group's execute: the layer's GEMM work
    /// (`2·m·k`) times the group's total activation columns. Zero for
    /// malformed requests (they error out without compute).
    pub est_flops: u128,
    /// Total real activation columns across the members.
    pub columns: usize,
    /// Number of requests coalesced into the group.
    pub requests: usize,
}

impl GroupMeta {
    /// Meta for one decode-session interleave sweep: `width` live sequences
    /// contributing one column each (`columns == requests == width`), the
    /// group's most urgent member's `kind`, and the earliest per-token due
    /// time among the deadline-class members. `arrival_seq` and `due_us` are
    /// in the server's bases, the same as a request group's: a number of the
    /// server's sequence counter taken when the round was picked, and µs
    /// since the server started at pick time plus the per-token budget.
    /// `est_flops` is the sweep's summed GEMM work across its stages
    /// (`2·m·k` per stage times `width`). The one [`QueuePolicy`] orders
    /// these metas beside request groups'.
    pub fn decode_sweep(
        kind: SloKind,
        arrival_seq: u64,
        due_us: Option<u64>,
        est_flops: u128,
        width: usize,
    ) -> GroupMeta {
        GroupMeta {
            layer: 0,
            kind,
            arrival_seq,
            due_us,
            est_flops,
            columns: width,
            requests: width,
        }
    }
}

/// A total order over ready groups: `compare(a, b) == Less` dispatches `a`
/// before `b`. Implementations must be consistent (a strict weak ordering) —
/// the server keeps its dispatch queue sorted by this comparator.
pub trait QueuePolicy: Send + Sync + fmt::Debug {
    /// Orders two ready groups; `Less` means `a` dispatches first.
    fn compare(&self, a: &GroupMeta, b: &GroupMeta) -> Ordering;

    /// Short display name for stats and benchmark tables.
    fn name(&self) -> &'static str;
}

/// Arrival order: the group whose earliest member was submitted first
/// dispatches first.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl QueuePolicy for Fifo {
    fn compare(&self, a: &GroupMeta, b: &GroupMeta) -> Ordering {
        a.arrival_seq.cmp(&b.arrival_seq)
    }

    fn name(&self) -> &'static str {
        "fifo"
    }
}

/// Longest processing time first (the classic makespan heuristic): the
/// heaviest estimated group dispatches first so no
/// straggler is picked up last by an otherwise-idle worker pool. Ties break
/// by arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct Lpt;

impl QueuePolicy for Lpt {
    fn compare(&self, a: &GroupMeta, b: &GroupMeta) -> Ordering {
        b.est_flops
            .cmp(&a.est_flops)
            .then(a.arrival_seq.cmp(&b.arrival_seq))
    }

    fn name(&self) -> &'static str {
        "lpt"
    }
}

/// Shortest job first: the cheapest estimated group dispatches first,
/// minimising mean queueing latency under load. Ties break by arrival.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl QueuePolicy for ShortestJobFirst {
    fn compare(&self, a: &GroupMeta, b: &GroupMeta) -> Ordering {
        a.est_flops
            .cmp(&b.est_flops)
            .then(a.arrival_seq.cmp(&b.arrival_seq))
    }

    fn name(&self) -> &'static str {
        "sjf"
    }
}

/// Deadline-class SLO scheduling: class rank first (deadline ahead of
/// standard ahead of bulk), the tightest deadline next within the deadline
/// class, arrival order last. Bulk traffic therefore absorbs the queueing
/// delay whenever any latency-sensitive work is waiting — the property the
/// per-class p99 gates of the serving benchmark measure.
///
/// Ordering composes with the server's overload machinery: under saturation
/// bulk is also the only class the admission side sheds (see the server's
/// *Overload behavior* docs), so bulk yields twice — first its dispatch
/// slot, then, when the queue itself fills, its queue slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct SloAware;

impl QueuePolicy for SloAware {
    fn compare(&self, a: &GroupMeta, b: &GroupMeta) -> Ordering {
        a.kind
            .rank()
            .cmp(&b.kind.rank())
            .then(
                a.due_us
                    .unwrap_or(u64::MAX)
                    .cmp(&b.due_us.unwrap_or(u64::MAX)),
            )
            .then(a.arrival_seq.cmp(&b.arrival_seq))
    }

    fn name(&self) -> &'static str {
        "slo"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(seq: u64, kind: SloKind, due_us: Option<u64>, est_flops: u128) -> GroupMeta {
        GroupMeta {
            layer: 0,
            kind,
            arrival_seq: seq,
            due_us,
            est_flops,
            columns: 4,
            requests: 1,
        }
    }

    #[test]
    fn decode_sweep_meta_orders_like_any_other_group() {
        let urgent = GroupMeta::decode_sweep(SloKind::Deadline, 7, Some(500), 1_000, 4);
        let lazy = GroupMeta::decode_sweep(SloKind::Bulk, 2, None, 9_000, 9);
        assert_eq!(urgent.columns, 4);
        assert_eq!(urgent.requests, 4);
        assert_eq!(SloAware.compare(&urgent, &lazy), Ordering::Less);
        // FIFO orders by the arrival sequence number.
        assert_eq!(Fifo.compare(&lazy, &urgent), Ordering::Less);
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let a = meta(3, SloKind::Bulk, None, 100);
        let b = meta(5, SloKind::Deadline, Some(1), 1);
        assert_eq!(Fifo.compare(&a, &b), Ordering::Less);
        assert_eq!(Fifo.name(), "fifo");
    }

    #[test]
    fn lpt_and_sjf_are_mirror_orders_on_cost() {
        let small = meta(1, SloKind::Standard, None, 10);
        let big = meta(2, SloKind::Standard, None, 1000);
        assert_eq!(Lpt.compare(&big, &small), Ordering::Less);
        assert_eq!(ShortestJobFirst.compare(&small, &big), Ordering::Less);
        // Equal costs fall back to arrival order for both.
        let tie = meta(0, SloKind::Standard, None, 10);
        assert_eq!(Lpt.compare(&tie, &small), Ordering::Less);
        assert_eq!(ShortestJobFirst.compare(&tie, &small), Ordering::Less);
    }

    #[test]
    fn slo_aware_ranks_class_then_deadline_then_arrival() {
        let bulk = meta(0, SloKind::Bulk, None, 1);
        let standard = meta(1, SloKind::Standard, None, 1);
        let loose = meta(2, SloKind::Deadline, Some(9_000), 1);
        let tight = meta(3, SloKind::Deadline, Some(1_000), 1);
        assert_eq!(SloAware.compare(&tight, &loose), Ordering::Less);
        assert_eq!(SloAware.compare(&loose, &standard), Ordering::Less);
        assert_eq!(SloAware.compare(&standard, &bulk), Ordering::Less);
        // Same class and deadline: arrival decides.
        let later = meta(4, SloKind::Deadline, Some(1_000), 1);
        assert_eq!(SloAware.compare(&tight, &later), Ordering::Less);
    }
}
