//! Message passing between vertices (§3.4.1).
//!
//! Worker threads send and receive messages *on behalf of* their
//! vertices: outgoing messages are buffered per destination partition
//! and posted to the destination's inbox in blocks (bundling "multiple
//! messages in a single packet to reduce synchronization overhead").
//! Unicasts travel as packed `(vertex, payload)` arrays — the lean
//! representation matters because PageRank-class algorithms send one
//! message per edge per iteration. Multicast is first-class: one
//! payload plus a recipient list per destination partition, instead
//! of N copies.
//!
//! Delivery is bulk-synchronous: inboxes drain at the iteration
//! barrier, on the partition owner's thread, which is what makes
//! lock-free vertex-state mutation safe. Messages posted *during*
//! delivery (by `run_on_message` handlers) stay queued for the next
//! iteration, and the engine keeps running while any are pending.
//! This boundary survives the pipelined scheduler unchanged: compute
//! only reaches the drain once every partition's claims are
//! exhausted and the delivery-obligation count is zero, so however
//! callbacks interleaved (or migrated across workers) during the
//! iteration, every message they posted is in its inbox before the
//! drain starts.

use fg_types::sync::{Counter, Mutex};
use fg_types::VertexId;

/// A bundle of buffered messages bound for one partition.
#[derive(Debug)]
pub(crate) enum Batch<M> {
    /// Point-to-point messages, packed.
    Unicasts(Vec<(VertexId, M)>),
    /// One payload for many vertices of the destination partition.
    Multicast(Vec<VertexId>, M),
}

impl<M> Batch<M> {
    /// Number of per-vertex deliveries this batch produces.
    pub(crate) fn fanout(&self) -> u64 {
        match self {
            Batch::Unicasts(v) => v.len() as u64,
            Batch::Multicast(v, _) => v.len() as u64,
        }
    }
}

/// Per-partition inboxes shared by all workers.
#[derive(Debug)]
pub(crate) struct MessageBoard<M> {
    inboxes: Vec<Mutex<Vec<Batch<M>>>>,
    /// Batches currently stored. Read by the termination check at
    /// the iteration boundary, where the quiesce barrier has already
    /// synchronized all posts — a relaxed [`Counter`] by contract.
    pending: Counter,
    /// Total per-vertex deliveries ever posted (statistics).
    total_sent: Counter,
}

impl<M: Send> MessageBoard<M> {
    pub(crate) fn new(partitions: usize) -> Self {
        let mut inboxes = Vec::with_capacity(partitions);
        inboxes.resize_with(partitions, || Mutex::new(Vec::new()));
        MessageBoard {
            inboxes,
            pending: Counter::default(),
            total_sent: Counter::default(),
        }
    }

    /// Posts one batch to partition `dest`.
    pub(crate) fn post(&self, dest: usize, batch: Batch<M>) {
        let fanout = batch.fanout();
        if fanout == 0 {
            return;
        }
        self.pending.inc();
        self.total_sent.add(fanout);
        self.inboxes[dest].lock().push(batch);
    }

    /// Takes everything queued for partition `dest`.
    pub(crate) fn drain(&self, dest: usize) -> Vec<Batch<M>> {
        let mut inbox = self.inboxes[dest].lock();
        let got = std::mem::take(&mut *inbox);
        self.pending.sub(got.len() as u64);
        got
    }

    /// Batches currently queued anywhere.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// Total per-vertex deliveries posted since construction.
    pub(crate) fn total_sent(&self) -> u64 {
        self.total_sent.get()
    }
}

/// One batched cross-shard transfer: what a worker's foreign outbox
/// serializes into when its destination vertex lives on another
/// shard's engine. Mirrors [`Batch`] plus activation (which local
/// execution performs as a direct bitmap OR but a foreign shard must
/// be *told* about).
#[derive(Debug)]
pub(crate) enum ShardPacket<M> {
    /// Point-to-point messages, packed.
    Unicasts(Vec<(VertexId, M)>),
    /// One payload for many vertices of the destination shard.
    Multicast(Vec<VertexId>, M),
    /// Activations for the destination shard's next frontier.
    Activate(Vec<VertexId>),
}

impl<M> ShardPacket<M> {
    /// Serialized size of the packet on the (in-process) wire — the
    /// cross-shard traffic `RunStats::shard_msg_bytes` accounts.
    pub(crate) fn wire_bytes(&self) -> u64 {
        let id = std::mem::size_of::<VertexId>() as u64;
        match self {
            ShardPacket::Unicasts(v) => {
                v.len() as u64 * std::mem::size_of::<(VertexId, M)>() as u64
            }
            ShardPacket::Multicast(v, _) => v.len() as u64 * id + std::mem::size_of::<M>() as u64,
            ShardPacket::Activate(v) => v.len() as u64 * id,
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            ShardPacket::Unicasts(v) => v.is_empty(),
            ShardPacket::Multicast(v, _) => v.is_empty(),
            ShardPacket::Activate(v) => v.is_empty(),
        }
    }
}

/// The in-process bus connecting a sharded run's engines: one lane of
/// batched [`ShardPacket`]s per destination shard.
///
/// Workers post packets whenever their foreign outboxes flush (same
/// bundling threshold as local boards); each shard drains its own
/// lane at the two cross-shard synchronization points of an iteration
/// — after compute (so foreign messages are delivered at the same
/// barrier a local send would reach) and at the termination check (so
/// barrier-phase sends stay pending into the next iteration, exactly
/// like a local board).
#[derive(Debug)]
pub(crate) struct ShardBus<M> {
    lanes: Vec<Mutex<Vec<ShardPacket<M>>>>,
    /// Packets currently queued anywhere (termination diagnostics;
    /// exact reads happen at the shard rendezvous).
    pending: Counter,
    /// Serialized bytes ever posted (statistics).
    bytes: Counter,
}

impl<M: Send> ShardBus<M> {
    pub(crate) fn new(shards: usize) -> Self {
        let mut lanes = Vec::with_capacity(shards);
        lanes.resize_with(shards, || Mutex::new(Vec::new()));
        ShardBus {
            lanes,
            pending: Counter::default(),
            bytes: Counter::default(),
        }
    }

    /// Posts one packet to shard `dest`'s lane.
    pub(crate) fn post(&self, dest: usize, packet: ShardPacket<M>) {
        if packet.is_empty() {
            return;
        }
        self.pending.inc();
        self.bytes.add(packet.wire_bytes());
        self.lanes[dest].lock().push(packet);
    }

    /// Takes everything queued for shard `dest`.
    pub(crate) fn drain(&self, dest: usize) -> Vec<ShardPacket<M>> {
        let mut lane = self.lanes[dest].lock();
        let got = std::mem::take(&mut *lane);
        self.pending.sub(got.len() as u64);
        got
    }

    /// Packets currently queued anywhere.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// Serialized bytes posted since construction.
    pub(crate) fn bytes_sent(&self) -> u64 {
        self.bytes.get()
    }
}

/// Per-partition registrations for end-of-iteration callbacks.
#[derive(Debug)]
pub(crate) struct NotifyBoard {
    slots: Vec<Mutex<Vec<VertexId>>>,
}

impl NotifyBoard {
    pub(crate) fn new(partitions: usize) -> Self {
        let mut slots = Vec::with_capacity(partitions);
        slots.resize_with(partitions, || Mutex::new(Vec::new()));
        NotifyBoard { slots }
    }

    pub(crate) fn post(&self, dest: usize, mut vids: Vec<VertexId>) {
        if vids.is_empty() {
            return;
        }
        self.slots[dest].lock().append(&mut vids);
    }

    pub(crate) fn drain(&self, dest: usize) -> Vec<VertexId> {
        std::mem::take(&mut *self.slots[dest].lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_drain_round_trip() {
        let b: MessageBoard<u32> = MessageBoard::new(2);
        b.post(0, Batch::Unicasts(vec![(VertexId(1), 10)]));
        b.post(1, Batch::Multicast(vec![VertexId(2), VertexId(3)], 20));
        assert_eq!(b.pending(), 2);
        assert_eq!(b.total_sent(), 3);
        let got0 = b.drain(0);
        assert_eq!(got0.len(), 1);
        assert_eq!(b.pending(), 1);
        let got1 = b.drain(1);
        assert_eq!(got1[0].fanout(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn empty_post_is_noop() {
        let b: MessageBoard<u32> = MessageBoard::new(1);
        b.post(0, Batch::Unicasts(Vec::new()));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn drain_empties_only_target() {
        let b: MessageBoard<()> = MessageBoard::new(3);
        for p in 0..3 {
            b.post(p, Batch::Unicasts(vec![(VertexId(0), ())]));
        }
        b.drain(1);
        assert_eq!(b.pending(), 2);
        assert_eq!(b.drain(0).len(), 1);
        assert_eq!(b.drain(2).len(), 1);
    }

    #[test]
    fn concurrent_posts_all_arrive() {
        let b: std::sync::Arc<MessageBoard<u64>> = std::sync::Arc::new(MessageBoard::new(2));
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let b = std::sync::Arc::clone(&b);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    b.post(
                        (i % 2) as usize,
                        Batch::Unicasts(vec![(VertexId(i as u32), t)]),
                    );
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(b.pending(), 400);
        assert_eq!(b.drain(0).len() + b.drain(1).len(), 400);
        assert_eq!(b.total_sent(), 400);
    }

    #[test]
    fn unicast_entries_are_packed() {
        // The dominant message shape must stay small: one id + one
        // payload, no per-message enum or allocation.
        assert_eq!(
            std::mem::size_of::<(VertexId, f32)>(),
            8,
            "unicast entries must pack to 8 bytes for f32 payloads"
        );
    }

    #[test]
    fn shard_bus_round_trip_and_accounting() {
        let bus: ShardBus<u32> = ShardBus::new(3);
        bus.post(
            1,
            ShardPacket::Unicasts(vec![(VertexId(9), 7), (VertexId(10), 8)]),
        );
        bus.post(
            2,
            ShardPacket::Multicast(vec![VertexId(1), VertexId(2), VertexId(3)], 5),
        );
        bus.post(0, ShardPacket::Activate(vec![VertexId(4)]));
        bus.post(0, ShardPacket::Activate(Vec::new())); // no-op
        assert_eq!(bus.pending(), 3);
        // 2 packed (id, u32) pairs + 3 ids + 1 payload + 1 id.
        assert_eq!(bus.bytes_sent(), 2 * 8 + (3 * 4 + 4) + 4);
        assert_eq!(bus.drain(1).len(), 1);
        assert_eq!(bus.pending(), 2);
        assert_eq!(bus.drain(2).len(), 1);
        assert_eq!(bus.drain(0).len(), 1);
        assert_eq!(bus.pending(), 0);
        assert!(bus.drain(0).is_empty());
    }

    #[test]
    fn notify_board_round_trip() {
        let nb = NotifyBoard::new(2);
        nb.post(0, vec![VertexId(5), VertexId(6)]);
        nb.post(0, vec![VertexId(7)]);
        assert_eq!(nb.drain(0).len(), 3);
        assert!(nb.drain(0).is_empty());
        assert!(nb.drain(1).is_empty());
    }
}
