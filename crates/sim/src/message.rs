//! Messages and their lifecycle bookkeeping.

use serde::{Deserialize, Serialize};
use star_graph::NodeId;
use star_routing::MessageRoutingState;

/// Dense message identifier.
pub type MessageId = u64;

/// A message in flight (or waiting in a source queue).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Message {
    /// Identifier, unique within a simulation run.
    pub id: MessageId,
    /// Source node.
    pub source: NodeId,
    /// Destination node.
    pub dest: NodeId,
    /// Length in flits.
    pub length: usize,
    /// Cycle at which the message was generated (entered the source queue).
    pub generated_at: u64,
    /// Cycle at which the header left the source queue and started competing
    /// for its first network channel (`None` while still queued).
    pub injected_at: Option<u64>,
    /// Cycle at which the last flit was consumed at the destination.
    pub delivered_at: Option<u64>,
    /// Routing state (hops taken, negative hops, escape-level floor).
    pub routing: MessageRoutingState,
    /// Whether this message was generated inside the measurement window.
    pub measured: bool,
    /// Flits already consumed at the destination.
    pub flits_consumed: usize,
}

impl Message {
    /// Creates a freshly generated message.
    #[must_use]
    pub fn new(
        id: MessageId,
        source: NodeId,
        dest: NodeId,
        length: usize,
        generated_at: u64,
        measured: bool,
    ) -> Self {
        Self {
            id,
            source,
            dest,
            length,
            generated_at,
            injected_at: None,
            delivered_at: None,
            routing: MessageRoutingState::at_source(),
            measured,
            flits_consumed: 0,
        }
    }

    /// Total latency in cycles (generation → last flit consumed), if delivered.
    #[must_use]
    pub fn total_latency(&self) -> Option<u64> {
        self.delivered_at.map(|d| d - self.generated_at)
    }

    /// Network latency in cycles (injection → last flit consumed), if delivered.
    #[must_use]
    pub fn network_latency(&self) -> Option<u64> {
        match (self.injected_at, self.delivered_at) {
            (Some(i), Some(d)) => Some(d - i),
            _ => None,
        }
    }

    /// Time spent waiting in the source queue, if the message was injected.
    #[must_use]
    pub fn source_queueing(&self) -> Option<u64> {
        self.injected_at.map(|i| i - self.generated_at)
    }
}

/// A dense, slot-indexed store of in-flight messages.
///
/// Channel state references messages by `u32` slot, so every lookup on the
/// hot path is one bounds-checked vector index instead of a hash probe.
/// Slots of delivered messages are recycled LIFO; recycling never affects
/// simulation results because nothing iterates the store — all traversal
/// order comes from the channel tables.
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    slots: Vec<Option<Message>>,
    free: Vec<u32>,
    live: usize,
}

impl MessageStore {
    /// An empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of messages currently stored.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no message is stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Inserts a message, returning its slot.
    pub fn insert(&mut self, message: Message) -> u32 {
        self.live += 1;
        if let Some(slot) = self.free.pop() {
            debug_assert!(self.slots[slot as usize].is_none());
            self.slots[slot as usize] = Some(message);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("more than u32::MAX live messages");
            self.slots.push(Some(message));
            slot
        }
    }

    /// Whether `slot` holds a live message.
    #[must_use]
    pub fn contains(&self, slot: u32) -> bool {
        self.slots.get(slot as usize).is_some_and(Option::is_some)
    }

    /// The message in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is vacant (a freed slot is never a valid handle).
    #[must_use]
    pub fn get(&self, slot: u32) -> &Message {
        self.slots[slot as usize].as_ref().expect("live message slot")
    }

    /// Mutable access to the message in `slot`.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub fn get_mut(&mut self, slot: u32) -> &mut Message {
        self.slots[slot as usize].as_mut().expect("live message slot")
    }

    /// Removes and returns the message in `slot`, recycling the slot.
    ///
    /// # Panics
    /// Panics if the slot is vacant.
    pub fn remove(&mut self, slot: u32) -> Message {
        let message = self.slots[slot as usize].take().expect("live message slot");
        self.free.push(slot);
        self.live -= 1;
        message
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_accessors() {
        let mut m = Message::new(1, 0, 5, 32, 100, true);
        assert_eq!(m.total_latency(), None);
        assert_eq!(m.network_latency(), None);
        assert_eq!(m.source_queueing(), None);
        m.injected_at = Some(110);
        m.delivered_at = Some(180);
        assert_eq!(m.total_latency(), Some(80));
        assert_eq!(m.network_latency(), Some(70));
        assert_eq!(m.source_queueing(), Some(10));
    }

    #[test]
    fn store_recycles_slots_and_tracks_len() {
        let mut store = MessageStore::new();
        assert!(store.is_empty());
        let a = store.insert(Message::new(0, 0, 1, 8, 0, false));
        let b = store.insert(Message::new(1, 2, 3, 8, 0, false));
        assert_eq!((a, b), (0, 1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(b).id, 1);
        assert!(store.contains(b) && !store.contains(2));
        store.get_mut(a).flits_consumed = 3;
        assert_eq!(store.get(a).flits_consumed, 3);
        let removed = store.remove(a);
        assert_eq!(removed.id, 0);
        assert!(!store.contains(a));
        assert_eq!(store.len(), 1);
        // freed slots are reused before the vector grows
        let c = store.insert(Message::new(2, 4, 5, 8, 0, true));
        assert_eq!(c, a);
        assert_eq!(store.get(c).id, 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    #[should_panic(expected = "live message slot")]
    fn store_rejects_vacant_slots() {
        let mut store = MessageStore::new();
        let slot = store.insert(Message::new(0, 0, 1, 8, 0, false));
        let _ = store.remove(slot);
        let _ = store.get(slot);
    }
}
