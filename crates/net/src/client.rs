//! The client submission front end: admission accounting and the
//! ordered-notification matcher.
//!
//! Client sockets are owned by the reactor (`crate::reactor`), which
//! performs admission inline: every [`WireMsg::ClientSubmit`] is either
//! admitted into that client's bounded queue (acked) or refused with a
//! typed [`WireMsg::ClientReject`] — load is shed at the socket edge,
//! before the consensus thread feels it. This module holds the pieces
//! around that:
//!
//! * [`AdmissionStats`] — shared counters the reactor bumps and the
//!   consensus thread samples into `TraceEvent::ClientAdmission`
//!   records (cumulative, so the trace auditor can check monotonicity).
//! * [`frontend_loop`] — the subscriber matcher thread: it receives
//!   `(client, seq, tx-hash)` triples from the reactor as submissions
//!   drain toward the worker lanes, tails the published ordered log,
//!   and routes a [`WireMsg::ClientOrdered`] back through the reactor
//!   when a subscribed client's transaction lands in the total order.
//!
//! Matching is by transaction content hash, which makes ordered
//! notifications *best effort* under adversarial duplicates: two
//! in-flight submissions with identical bytes match in admission order.
//! That is inherent to content-addressed batching (the batch layer
//! carries no client identity, by design — consensus stays client-blind)
//! and is exactly what a submit/subscribe client can observe anyway.
//!
//! [`WireMsg::ClientSubmit`]: crate::wire::WireMsg::ClientSubmit
//! [`WireMsg::ClientReject`]: crate::wire::WireMsg::ClientReject
//! [`WireMsg::ClientOrdered`]: crate::wire::WireMsg::ClientOrdered

use std::collections::{HashMap, HashSet, VecDeque};
use std::time::Duration;

use dagrider_types::Transaction;

use crate::reactor::ReactorCmd;
use crate::runtime::{lock_unpoisoned, Published};
use crate::signal::{Shutdown, Waker};
use crate::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use crate::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use crate::wire::WireMsg;

/// Entries the matcher retains before it starts refusing new ones —
/// bounds memory when subscribers outrun ordering.
const MAX_WAITING: usize = 1 << 20;

/// Dead-client tombstones tolerated before the waiting map is swept.
const DEAD_SWEEP: usize = 1024;

/// How often the matcher polls the ordered log when idle.
const FRONTEND_TICK: Duration = Duration::from_millis(5);

/// Cumulative per-node client admission counters, shared between the
/// reactor (writer) and the consensus thread (sampler). All four are
/// monotone over a node's lifetime; the trace auditor checks exactly
/// that on the sampled `ClientAdmission` records.
#[derive(Debug, Default)]
pub struct AdmissionStats {
    accepted: AtomicU64,
    coalesced: AtomicU64,
    shed: AtomicU64,
    queue_high_water: AtomicU64,
}

/// One read of [`AdmissionStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionSnapshot {
    /// Submissions admitted into a client queue (acked).
    pub accepted: u64,
    /// Admitted transactions drained onward — into a worker lane or an
    /// inline coalesced block.
    pub coalesced: u64,
    /// Submissions refused with a typed reject (queue full, oversized,
    /// or node not yet live).
    pub shed: u64,
    /// Deepest any single client queue has ever been.
    pub queue_high_water: u64,
}

impl AdmissionStats {
    /// Records one admitted submission and the resulting queue depth.
    pub fn record_accept(&self, queue_depth: usize) {
        self.accepted.fetch_add(1, AtomicOrdering::Relaxed);
        self.queue_high_water.fetch_max(queue_depth as u64, AtomicOrdering::Relaxed);
    }

    /// Records one admitted transaction drained toward consensus.
    pub fn record_coalesce(&self) {
        self.coalesced.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Records one refused submission.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, AtomicOrdering::Relaxed);
    }

    /// Reads all four counters (relaxed; counters are monotone).
    pub fn snapshot(&self) -> AdmissionSnapshot {
        AdmissionSnapshot {
            accepted: self.accepted.load(AtomicOrdering::Relaxed),
            coalesced: self.coalesced.load(AtomicOrdering::Relaxed),
            shed: self.shed.load(AtomicOrdering::Relaxed),
            queue_high_water: self.queue_high_water.load(AtomicOrdering::Relaxed),
        }
    }
}

/// FNV-1a over transaction bytes: the content key admission and the
/// matcher agree on. Not cryptographic — a collision only misroutes a
/// best-effort notification between two byte-identical submissions.
pub(crate) fn tx_hash(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Reactor → frontend traffic.
pub(crate) enum FrontendMsg {
    /// A subscribed client's submission was drained toward consensus;
    /// notify `client` with `seq` once a transaction hashing to `hash`
    /// is ordered.
    Admitted {
        /// The reactor-assigned client connection id.
        client: u64,
        /// The client's correlation number for this submission.
        seq: u64,
        /// Content hash of the submitted transaction.
        hash: u64,
    },
    /// The client connection closed; its waiting entries are garbage.
    ClientGone {
        /// The departed client's connection id.
        client: u64,
    },
}

/// The subscriber matcher thread: consumes [`FrontendMsg`]s, tails the
/// ordered log, and hands `ClientOrdered` notifications back to the
/// reactor (which owns the client sockets).
pub(crate) fn frontend_loop(
    rx: &Receiver<FrontendMsg>,
    published: &Published,
    reactor: &Sender<ReactorCmd>,
    waker: &Waker,
    stop: &Shutdown,
) {
    let mut matcher = Matcher::default();
    loop {
        if stop.is_signalled() {
            return;
        }
        match rx.recv_timeout(FRONTEND_TICK) {
            Ok(msg) => matcher.register(msg),
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => return,
        }
        match matcher.pass(rx, published, reactor) {
            Some(true) => waker.wake(),
            Some(false) => {}
            None => return, // reactor gone: the node is stopping
        }
    }
}

/// The matcher's state: who waits on which transaction hash, and how far
/// into the published ordered log it has looked.
#[derive(Default)]
struct Matcher {
    waiting: HashMap<u64, VecDeque<(u64, u64)>>,
    total_waiting: usize,
    dead: HashSet<u64>,
    cursor: usize,
}

impl Matcher {
    /// Applies one reactor message to the waiting set.
    fn register(&mut self, msg: FrontendMsg) {
        match msg {
            FrontendMsg::Admitted { client, seq, hash } => {
                if self.total_waiting < MAX_WAITING && !self.dead.contains(&client) {
                    self.waiting.entry(hash).or_default().push_back((client, seq));
                    self.total_waiting += 1;
                }
            }
            FrontendMsg::ClientGone { client } => {
                self.dead.insert(client);
                if self.dead.len() >= DEAD_SWEEP {
                    let dead = &self.dead;
                    for entries in self.waiting.values_mut() {
                        entries.retain(|(c, _)| !dead.contains(c));
                    }
                    self.waiting.retain(|_, entries| !entries.is_empty());
                    self.total_waiting = self.waiting.values().map(VecDeque::len).sum();
                    self.dead.clear();
                }
            }
        }
    }

    /// One matching pass over the log tail past the cursor. The tail is
    /// taken *before* the queued registrations are drained: the reactor
    /// sends a transaction's `Admitted` before passing the transaction on
    /// toward consensus, so every transaction in the tail already has
    /// its registration in the channel, and none is matched against a
    /// stale waiting set. Returns whether any client was notified, or
    /// `None` once the reactor is gone.
    fn pass(
        &mut self,
        rx: &Receiver<FrontendMsg>,
        published: &Published,
        reactor: &Sender<ReactorCmd>,
    ) -> Option<bool> {
        let fresh: Vec<Transaction> = {
            let log = lock_unpoisoned(&published.ordered);
            let tail = log.get(self.cursor..).unwrap_or_default();
            self.cursor = log.len();
            tail.iter().flat_map(|v| v.block.transactions().iter().cloned()).collect()
        };
        while let Ok(msg) = rx.try_recv() {
            self.register(msg);
        }
        // Nobody waits (always so on a node without subscribers): the
        // tail is consumed without hashing a byte of it.
        if self.waiting.is_empty() {
            return Some(false);
        }
        let mut notified = false;
        for tx in &fresh {
            let hash = tx_hash(tx.payload());
            let Some(entries) = self.waiting.get_mut(&hash) else { continue };
            while let Some((client, seq)) = entries.pop_front() {
                self.total_waiting -= 1;
                if self.dead.contains(&client) {
                    continue; // tombstoned: fall through to the next waiter
                }
                let msg = WireMsg::ClientOrdered { seq };
                reactor.send(ReactorCmd::ClientSend { client, msg }).ok()?;
                notified = true;
                break; // one notification per ordered transaction
            }
            if entries.is_empty() {
                self.waiting.remove(&hash);
            }
        }
        Some(notified)
    }
}

#[cfg(test)]
mod tests {
    use dagrider_core::OrderedVertex;
    use dagrider_types::{Block, ProcessId, Round, SeqNum, Time, VertexRef, Wave};

    use super::*;
    use crate::sync::mpsc;

    /// Appends one ordered vertex carrying `txs` to the published log.
    fn publish(published: &Published, txs: Vec<Transaction>) {
        let source = ProcessId::new(0);
        lock_unpoisoned(&published.ordered).push(OrderedVertex {
            vertex: VertexRef::new(Round::new(1), source),
            block: Block::new(source, SeqNum::new(1), txs),
            committed_in_wave: Wave::new(1),
            delivered_at: Time::ZERO,
        });
    }

    /// The `(client, seq)` of every notification the matcher sent.
    fn notifications(cmds: &Receiver<ReactorCmd>) -> Vec<(u64, u64)> {
        let mut sent = Vec::new();
        while let Ok(cmd) = cmds.try_recv() {
            if let ReactorCmd::ClientSend { client, msg: WireMsg::ClientOrdered { seq } } = cmd {
                sent.push((client, seq));
            }
        }
        sent
    }

    #[test]
    fn registrations_queued_behind_an_ordered_transaction_still_match() {
        // The transaction is already in the log when the matcher runs,
        // and its registration sits behind another one in the channel: a
        // pass that registers one message and then consumes the tail
        // would skip it for good.
        let published = Published::default();
        let tx = Transaction::synthetic(1, 64);
        publish(&published, vec![tx.clone()]);
        let (frontend, rx) = mpsc::channel();
        let pending = tx_hash(Transaction::synthetic(2, 64).payload());
        frontend.send(FrontendMsg::Admitted { client: 7, seq: 1, hash: pending }).unwrap();
        frontend
            .send(FrontendMsg::Admitted { client: 7, seq: 2, hash: tx_hash(tx.payload()) })
            .unwrap();
        let (reactor, cmds) = mpsc::channel();
        let mut matcher = Matcher::default();
        assert_eq!(matcher.pass(&rx, &published, &reactor), Some(true));
        assert_eq!(notifications(&cmds), vec![(7, 2)]);
        assert_eq!(matcher.total_waiting, 1, "the unordered registration still waits");
    }

    #[test]
    fn a_pass_with_nobody_waiting_consumes_the_tail() {
        let published = Published::default();
        publish(&published, vec![Transaction::synthetic(3, 16), Transaction::synthetic(4, 16)]);
        let (_frontend, rx) = mpsc::channel();
        let (reactor, cmds) = mpsc::channel();
        let mut matcher = Matcher::default();
        assert_eq!(matcher.pass(&rx, &published, &reactor), Some(false));
        assert_eq!(matcher.cursor, 1);
        assert!(notifications(&cmds).is_empty());
    }

    #[test]
    fn fnv_hash_is_stable_and_content_sensitive() {
        assert_eq!(tx_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(tx_hash(b"abc"), tx_hash(b"abc"));
        assert_ne!(tx_hash(b"abc"), tx_hash(b"abd"));
        assert_ne!(tx_hash(b"abc"), tx_hash(b"ab"));
    }

    #[test]
    fn admission_stats_are_cumulative_and_high_water_is_a_max() {
        let stats = AdmissionStats::default();
        assert_eq!(stats.snapshot(), AdmissionSnapshot::default());
        stats.record_accept(3);
        stats.record_accept(7);
        stats.record_accept(2);
        stats.record_coalesce();
        stats.record_shed();
        stats.record_shed();
        let snap = stats.snapshot();
        assert_eq!(snap.accepted, 3);
        assert_eq!(snap.coalesced, 1);
        assert_eq!(snap.shed, 2);
        assert_eq!(snap.queue_high_water, 7, "high water keeps the max, not the last depth");
    }
}
