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
//!
//! The inboxes and the shard bus of a run with peers are one type,
//! [`Lanes`]: a locked vector of parcels per destination and iteration
//! parity, drained by its owner. A barrier-phase post goes to the next
//! iteration's lane, so it cannot reach a drain of this iteration that
//! a slower worker, or a slower shard, has yet to start.

use fg_types::sync::{Counter, Mutex};
use fg_types::VertexId;

/// A bundle of buffered messages bound for one partition — or, inside
/// a [`ShardPacket`], for one shard.
#[derive(Debug)]
pub(crate) enum Batch<M> {
    /// Point-to-point messages, packed.
    Unicasts(Vec<(VertexId, M)>),
    /// One payload for many vertices of the destination partition.
    Multicast(Vec<VertexId>, M),
}

/// One batched cross-shard transfer: what a worker's foreign outbox
/// serializes into when its destination vertex lives on another
/// shard's engine — a [`Batch`], or activations (which local
/// execution performs as a direct bitmap OR but a foreign shard must
/// be *told* about).
#[derive(Debug)]
pub(crate) enum ShardPacket<M> {
    /// Messages, bundled exactly as for a local inbox.
    Messages(Batch<M>),
    /// Activations for the destination shard's next frontier.
    Activate(Vec<VertexId>),
}

/// What a [`Lanes`] carries: a bundle that knows its fan-out and the
/// size the lane's running total books for it.
pub(crate) trait Parcel {
    /// Per-vertex deliveries or activations; 0 means empty.
    fn fanout(&self) -> u64;

    /// What the lane's total counts for this parcel.
    fn size(&self) -> u64 {
        self.fanout()
    }
}

impl<M> Parcel for Batch<M> {
    fn fanout(&self) -> u64 {
        match self {
            Batch::Unicasts(v) => v.len() as u64,
            Batch::Multicast(v, _) => v.len() as u64,
        }
    }
}

impl<M> Parcel for ShardPacket<M> {
    fn fanout(&self) -> u64 {
        match self {
            ShardPacket::Messages(b) => b.fanout(),
            ShardPacket::Activate(v) => v.len() as u64,
        }
    }

    /// Serialized size of the packet on the (in-process) wire — the
    /// cross-shard traffic `RunStats::shard_msg_bytes` accounts.
    fn size(&self) -> u64 {
        let id = std::mem::size_of::<VertexId>() as u64;
        match self {
            ShardPacket::Messages(Batch::Unicasts(v)) => {
                v.len() as u64 * std::mem::size_of::<(VertexId, M)>() as u64
            }
            ShardPacket::Messages(Batch::Multicast(v, _)) => {
                v.len() as u64 * id + std::mem::size_of::<M>() as u64
            }
            ShardPacket::Activate(v) => v.len() as u64 * id,
        }
    }
}

/// Two lanes of parcels per destination, one per iteration parity (see
/// [`Lanes::lane`]), shared by all posters: the per-partition inboxes
/// of one engine (`Lanes<Batch<M>>`, whose total counts deliveries)
/// and the shard bus of a run with peers (`Lanes<ShardPacket<M>>`, a
/// destination per shard, whose total counts wire bytes).
///
/// Workers post whenever their outboxes flush; a lane's owner drains
/// it at the iteration barrier. The bus is drained at the two
/// cross-shard synchronization points of an iteration — after compute
/// (so foreign messages are delivered at the same barrier a local
/// send would reach) and at the termination check (so barrier-phase
/// sends stay pending into the next iteration, exactly like a local
/// inbox).
#[derive(Debug)]
pub(crate) struct Lanes<T> {
    lanes: Vec<Mutex<Vec<T>>>,
    /// Parcels currently stored. Read by the termination check at the
    /// iteration boundary, where the quiesce barrier has already
    /// synchronized all posts — a relaxed [`Counter`] by contract.
    pending: Counter,
    /// [`Parcel::size`] of everything ever posted (statistics).
    total: Counter,
}

impl<T: Parcel> Lanes<T> {
    /// Lanes for `dests` destinations.
    pub(crate) fn new(dests: usize) -> Self {
        Lanes {
            lanes: (0..2 * dests).map(|_| Mutex::new(Vec::new())).collect(),
            pending: Counter::default(),
            total: Counter::default(),
        }
    }

    /// The lane of `dest` that iteration `iter`'s drain takes.
    pub(crate) fn lane(&self, iter: u32, dest: usize) -> usize {
        (iter % 2) as usize * (self.lanes.len() / 2) + dest
    }

    /// Posts one parcel to lane `lane` and returns the size booked for
    /// it; an empty parcel is dropped and books 0.
    pub(crate) fn post(&self, lane: usize, parcel: T) -> u64 {
        if parcel.fanout() == 0 {
            return 0;
        }
        let size = parcel.size();
        self.pending.inc();
        self.total.add(size);
        self.lanes[lane].lock().push(parcel);
        size
    }

    /// Takes everything queued for lane `lane`.
    pub(crate) fn drain(&self, lane: usize) -> Vec<T> {
        let got = std::mem::take(&mut *self.lanes[lane].lock());
        self.pending.sub(got.len() as u64);
        got
    }

    /// Parcels currently queued anywhere.
    pub(crate) fn pending(&self) -> u64 {
        self.pending.get()
    }

    /// [`Parcel::size`] summed over every parcel posted since
    /// construction.
    pub(crate) fn total(&self) -> u64 {
        self.total.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn post_and_drain_round_trip() {
        let b: Lanes<Batch<u32>> = Lanes::new(2);
        b.post(0, Batch::Unicasts(vec![(VertexId(1), 10)]));
        b.post(1, Batch::Multicast(vec![VertexId(2), VertexId(3)], 20));
        assert_eq!(b.pending(), 2);
        assert_eq!(b.total(), 3);
        let got0 = b.drain(0);
        assert_eq!(got0.len(), 1);
        assert_eq!(b.pending(), 1);
        let got1 = b.drain(1);
        assert_eq!(got1[0].fanout(), 2);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn empty_post_is_noop() {
        let b: Lanes<Batch<u32>> = Lanes::new(1);
        b.post(0, Batch::Unicasts(Vec::new()));
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn drain_empties_only_target() {
        let b: Lanes<Batch<()>> = Lanes::new(3);
        for p in 0..3 {
            b.post(p, Batch::Unicasts(vec![(VertexId(0), ())]));
        }
        b.drain(1);
        assert_eq!(b.pending(), 2);
        assert_eq!(b.drain(0).len(), 1);
        assert_eq!(b.drain(2).len(), 1);
    }

    #[test]
    fn a_post_for_the_next_iteration_waits_for_its_drain() {
        let b: Lanes<Batch<u32>> = Lanes::new(2);
        b.post(b.lane(4, 1), Batch::Unicasts(vec![(VertexId(1), 5)]));
        assert!(b.drain(b.lane(3, 1)).is_empty());
        assert!(b.drain(b.lane(4, 0)).is_empty());
        assert_eq!(b.pending(), 1);
        assert_eq!(b.drain(b.lane(4, 1)).len(), 1);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    fn concurrent_posts_all_arrive() {
        let b: std::sync::Arc<Lanes<Batch<u64>>> = std::sync::Arc::new(Lanes::new(2));
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
        assert_eq!(b.total(), 400);
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
        let bus: Lanes<ShardPacket<u32>> = Lanes::new(3);
        let unicasts = Batch::Unicasts(vec![(VertexId(9), 7), (VertexId(10), 8)]);
        assert_eq!(bus.post(1, ShardPacket::Messages(unicasts)), 2 * 8);
        let multicast = Batch::Multicast(vec![VertexId(1), VertexId(2), VertexId(3)], 5);
        assert_eq!(bus.post(2, ShardPacket::Messages(multicast)), 3 * 4 + 4);
        assert_eq!(bus.post(0, ShardPacket::Activate(vec![VertexId(4)])), 4);
        assert_eq!(bus.post(0, ShardPacket::Activate(Vec::new())), 0); // no-op
        let empty = Batch::Multicast(Vec::new(), 5);
        assert_eq!(bus.post(0, ShardPacket::Messages(empty)), 0); // no-op
        assert_eq!(bus.pending(), 3);
        // 2 packed (id, u32) pairs + 3 ids + 1 payload + 1 id.
        assert_eq!(bus.total(), 2 * 8 + (3 * 4 + 4) + 4);
        assert_eq!(bus.drain(1).len(), 1);
        assert_eq!(bus.pending(), 2);
        assert_eq!(bus.drain(2).len(), 1);
        assert_eq!(bus.drain(0).len(), 1);
        assert_eq!(bus.pending(), 0);
        assert!(bus.drain(0).is_empty());
    }
}
