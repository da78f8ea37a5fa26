//! Packet records and a recycling arena.

use crate::SimTime;
use epnet_topology::HostId;

/// Index of a live packet in the [`PacketArena`].
///
/// Debug builds carry the slot's allocation generation alongside the
/// index, so a stale id — one held across the packet's `free` — trips a
/// `debug_assert` instead of silently reading whatever packet was
/// recycled into the slot. Release builds keep the bare 4-byte index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketId {
    slot: u32,
    #[cfg(debug_assertions)]
    generation: u32,
}

impl PacketId {
    #[inline]
    pub(crate) fn index(self) -> usize {
        self.slot as usize
    }
}

/// Identifier of the message a packet belongs to. Slots recycle once
/// the last packet of a message delivers, so ids are dense over the
/// messages concurrently in flight rather than all messages ever
/// offered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MessageId(pub(crate) u32);

impl MessageId {
    /// Dense index of the message.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw slot, for free-list bookkeeping.
    #[inline]
    pub(crate) fn raw(self) -> u32 {
        self.0
    }
}

/// A packet in flight. Messages are segmented into packets of the
/// configured maximum size at injection time (§4.1's 512 KiB messages
/// become a train of packets).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Packet {
    /// Destination host.
    pub dst: HostId,
    /// Payload size in bytes.
    pub bytes: u32,
    /// When the owning message was offered to the network.
    pub created: SimTime,
    /// Owning message.
    pub message: MessageId,
    /// Inter-switch hops taken so far (diagnostics / tie-breaking).
    pub hops: u8,
    /// Remaining UGAL detour budget (non-minimal routing).
    pub misroutes_left: u8,
}

/// A free-list arena of packets: allocation never moves live packets and
/// completed packets are recycled, keeping memory proportional to the
/// number of packets *in flight* rather than the number simulated.
#[derive(Debug, Default)]
pub(crate) struct PacketArena {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: usize,
    /// Per-slot allocation generation, bumped on free (debug only).
    #[cfg(debug_assertions)]
    generations: Vec<u32>,
}

impl PacketArena {
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a packet, reusing a retired slot when available.
    pub fn alloc(&mut self, packet: Packet) -> PacketId {
        self.live += 1;
        let slot = if let Some(slot) = self.free.pop() {
            self.slots[slot as usize] = packet;
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX live packets");
            self.slots.push(packet);
            #[cfg(debug_assertions)]
            self.generations.push(0);
            slot
        };
        PacketId {
            slot,
            #[cfg(debug_assertions)]
            generation: self.generations[slot as usize],
        }
    }

    /// Retires a delivered packet, returning its record. The slot's
    /// generation advances, invalidating any copies of `id` still held.
    pub fn free(&mut self, id: PacketId) -> Packet {
        self.check(id);
        #[cfg(debug_assertions)]
        {
            let g = &mut self.generations[id.slot as usize];
            *g = g.wrapping_add(1);
        }
        self.live -= 1;
        self.free.push(id.slot);
        self.slots[id.index()]
    }

    /// Immutable access to a live packet.
    #[inline]
    pub fn get(&self, id: PacketId) -> &Packet {
        self.check(id);
        &self.slots[id.index()]
    }

    /// Mutable access to a live packet.
    #[inline]
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        self.check(id);
        &mut self.slots[id.index()]
    }

    /// Number of live (allocated, not yet freed) packets.
    #[allow(dead_code)] // diagnostic surface, exercised in tests
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live packets.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Debug-build staleness check: the id's generation must match the
    /// slot's current one.
    #[inline]
    fn check(&self, id: PacketId) {
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.generations[id.slot as usize], id.generation,
            "stale PacketId: slot {} was freed and reallocated",
            id.slot
        );
        let _ = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(bytes: u32) -> Packet {
        Packet {
            dst: HostId::new(1),
            bytes,
            created: SimTime::ZERO,
            message: MessageId(0),
            hops: 0,
            misroutes_left: 0,
        }
    }

    #[test]
    fn alloc_free_recycles_slots() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        let b = arena.alloc(pkt(200));
        assert_eq!(arena.live(), 2);
        assert_eq!(arena.get(a).bytes, 100);
        arena.free(a);
        assert_eq!(arena.live(), 1);
        let c = arena.alloc(pkt(300));
        // Slot reused, no growth.
        assert_eq!(c.index(), a.index());
        assert_eq!(arena.capacity(), 2);
        assert_eq!(arena.get(b).bytes, 200);
        assert_eq!(arena.get(c).bytes, 300);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(64));
        arena.get_mut(a).hops += 1;
        assert_eq!(arena.get(a).hops, 1);
        let freed = arena.free(a);
        assert_eq!(freed.hops, 1);
    }

    #[test]
    fn capacity_tracks_high_water_mark() {
        let mut arena = PacketArena::new();
        let ids: Vec<PacketId> = (0..10).map(|i| arena.alloc(pkt(i))).collect();
        assert_eq!(arena.capacity(), 10);
        for id in ids {
            arena.free(id);
        }
        for i in 0..10 {
            arena.alloc(pkt(i));
        }
        assert_eq!(arena.capacity(), 10, "slots recycled");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale PacketId")]
    fn stale_id_is_caught_in_debug_builds() {
        let mut arena = PacketArena::new();
        let a = arena.alloc(pkt(100));
        arena.free(a);
        // The slot was recycled into a different packet; the stale copy
        // of `a` must not silently read it.
        let _b = arena.alloc(pkt(200));
        let _ = arena.get(a);
    }
}
