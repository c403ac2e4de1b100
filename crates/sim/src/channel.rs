//! Per-virtual-channel state of the router model.
//!
//! Every unidirectional physical channel carries `V` virtual channels.  The
//! sending side of a channel is an output virtual channel (ownership,
//! credits and the feed fixed at allocation, [`OutputVcTable`]), the
//! receiving side an input virtual channel (flit buffer, [`InputVcTable`]).
//! Flits are tracked as counters rather than individual objects: in wormhole
//! switching a virtual channel is owned by exactly one message at a time, so
//! a count of buffered flits plus the per-message totals fully determines
//! the channel state.
//!
//! Both tables hold one small record per virtual channel, indexed by the
//! global VC index.  The switch stage reads every field of the records it
//! visits, so one record is one cache line touch instead of one per field.

/// Sentinel for "no owning message slot" (and "no upstream channel").
const FREE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct InputVc {
    owner: u32,
    buffered: u32,
}

/// Input virtual-channel state: the flit buffer at a router input (or an
/// injection slot, whose "upstream" is the local processor), indexed by the
/// global input-VC index.
///
/// Owners are message *slots* in a
/// [`MessageStore`](crate::message::MessageStore), not message ids.
#[derive(Debug, Clone)]
pub struct InputVcTable {
    vcs: Vec<InputVc>,
}

impl InputVcTable {
    /// A table of `count` free input virtual channels.
    #[must_use]
    pub fn new(count: usize) -> Self {
        Self { vcs: vec![InputVc { owner: FREE, buffered: 0 }; count] }
    }

    /// Whether the virtual channel is free.
    #[must_use]
    #[inline]
    pub fn is_free(&self, idx: usize) -> bool {
        self.vcs[idx].owner == FREE
    }

    /// The owning message slot, if any.
    #[must_use]
    #[inline]
    pub fn owner(&self, idx: usize) -> Option<u32> {
        let owner = self.vcs[idx].owner;
        (owner != FREE).then_some(owner)
    }

    /// Flits currently buffered.
    #[must_use]
    #[inline]
    pub fn buffered(&self, idx: usize) -> u32 {
        self.vcs[idx].buffered
    }

    /// Claims the channel for a locally injected message whose `length` flits
    /// are all supplied by the source queue.
    #[inline]
    pub fn claim_for_injection(&mut self, idx: usize, slot: u32, length: u32) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        self.vcs[idx] = InputVc { owner: slot, buffered: length };
    }

    /// Claims the channel for a message whose header flit is arriving from
    /// the network (the buffer starts empty and fills via
    /// [`Self::push_flit`]).
    #[inline]
    pub fn claim_for_arrival(&mut self, idx: usize, slot: u32) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        self.vcs[idx] = InputVc { owner: slot, buffered: 0 };
    }

    /// Records one flit arriving into the buffer.
    #[inline]
    pub fn push_flit(&mut self, idx: usize) {
        self.vcs[idx].buffered += 1;
    }

    /// Records one flit leaving the buffer.
    #[inline]
    pub fn pop_flit(&mut self, idx: usize) {
        debug_assert!(self.vcs[idx].buffered > 0);
        self.vcs[idx].buffered -= 1;
    }

    /// Resets the channel to the free state.
    #[inline]
    pub fn release(&mut self, idx: usize) {
        self.vcs[idx] = InputVc { owner: FREE, buffered: 0 };
    }
}

/// Where an allocated output virtual channel takes its flits from and what
/// happens to them downstream, fixed when the header is routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VcFeed {
    /// The input VC (global index) whose buffered flits the channel forwards.
    pub source: u32,
    /// The output VC upstream of `source`, which every forwarded flit
    /// returns a credit to; `None` for an injection slot, whose flits come
    /// from the local processor.
    pub upstream: Option<u32>,
    /// Whether the channel leads into the message's destination, whose
    /// processor consumes every arriving flit at once.
    pub ejects: bool,
}

#[derive(Debug, Clone, Copy)]
struct OutputVc {
    owner: u32,
    credits: u32,
    flits_sent: u32,
    length: u32,
    source: u32,
    upstream: u32,
    ejects: bool,
}

/// Output virtual-channel state: ownership, credits and feed at a router
/// output, indexed by the global output-VC index.
///
/// Owners are message slots.
#[derive(Debug, Clone)]
pub struct OutputVcTable {
    vcs: Vec<OutputVc>,
}

impl OutputVcTable {
    /// A table of `count` free output virtual channels, each starting with
    /// `buffer_depth` credits.
    #[must_use]
    pub fn new(count: usize, buffer_depth: u32) -> Self {
        let free = OutputVc {
            owner: FREE,
            credits: buffer_depth,
            flits_sent: 0,
            length: 0,
            source: FREE,
            upstream: FREE,
            ejects: false,
        };
        Self { vcs: vec![free; count] }
    }

    /// Whether the channel is free for allocation.
    #[must_use]
    #[inline]
    pub fn is_free(&self, idx: usize) -> bool {
        self.vcs[idx].owner == FREE
    }

    /// The owning message slot, if any.
    #[must_use]
    #[inline]
    pub fn owner(&self, idx: usize) -> Option<u32> {
        let owner = self.vcs[idx].owner;
        (owner != FREE).then_some(owner)
    }

    /// Free buffer slots at the downstream input virtual channel.
    #[must_use]
    #[inline]
    pub fn credits(&self, idx: usize) -> u32 {
        self.vcs[idx].credits
    }

    /// The feed of the channel, if allocated.
    #[must_use]
    #[inline]
    pub fn feed(&self, idx: usize) -> Option<VcFeed> {
        let vc = &self.vcs[idx];
        (vc.owner != FREE).then(|| VcFeed {
            source: vc.source,
            upstream: (vc.upstream != FREE).then_some(vc.upstream),
            ejects: vc.ejects,
        })
    }

    /// Whether the channel may forward a flit this cycle: allocated, credit
    /// available and not all flits sent.
    #[must_use]
    #[inline]
    pub fn ready_to_send(&self, idx: usize) -> bool {
        let vc = &self.vcs[idx];
        vc.owner != FREE && vc.credits > 0 && vc.flits_sent < vc.length
    }

    /// Allocates the channel to a message of `length` flits with the given
    /// feed.
    #[inline]
    pub fn allocate(&mut self, idx: usize, slot: u32, length: u32, feed: VcFeed) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        let vc = &mut self.vcs[idx];
        vc.owner = slot;
        vc.flits_sent = 0;
        vc.length = length;
        vc.source = feed.source;
        vc.upstream = feed.upstream.unwrap_or(FREE);
        vc.ejects = feed.ejects;
    }

    /// Records one flit sent downstream (consumes a credit).
    #[inline]
    pub fn send_flit(&mut self, idx: usize) {
        let vc = &mut self.vcs[idx];
        debug_assert!(vc.credits > 0);
        vc.credits -= 1;
        vc.flits_sent += 1;
    }

    /// Returns one credit from downstream.
    #[inline]
    pub fn return_credit(&mut self, idx: usize) {
        self.vcs[idx].credits += 1;
    }

    /// Whether the tail flit has been sent downstream.
    #[must_use]
    #[inline]
    pub fn tail_sent(&self, idx: usize) -> bool {
        let vc = &self.vcs[idx];
        vc.owner != FREE && vc.flits_sent >= vc.length
    }

    /// Releases the channel.  Called once the tail flit has been sent *and*
    /// the downstream buffer has fully drained (all credits returned), which
    /// is when a wormhole virtual channel returns to the idle state.  Credits
    /// are preserved: they track downstream buffer space, not ownership.
    #[inline]
    pub fn release(&mut self, idx: usize) {
        let vc = &mut self.vcs[idx];
        vc.owner = FREE;
        vc.flits_sent = 0;
        vc.length = 0;
        vc.source = FREE;
        vc.upstream = FREE;
        vc.ejects = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_table_lifecycle() {
        let mut table = InputVcTable::new(4);
        assert!(table.is_free(2));
        table.claim_for_injection(2, 9, 32);
        assert_eq!(table.owner(2), Some(9));
        assert_eq!(table.buffered(2), 32);
        table.pop_flit(2);
        assert_eq!(table.buffered(2), 31);
        table.release(2);
        assert!(table.is_free(2));
        assert_eq!(table.buffered(2), 0);
        // network-arrival claims count flits up from zero
        table.claim_for_arrival(0, 5);
        assert_eq!(table.buffered(0), 0);
        table.push_flit(0);
        table.push_flit(0);
        assert_eq!(table.buffered(0), 2);
        assert!(!table.is_free(0) && table.is_free(1));
    }

    #[test]
    fn output_table_lifecycle_preserves_credits() {
        let mut table = OutputVcTable::new(3, 2);
        assert!(table.is_free(1));
        assert_eq!(table.credits(1), 2);
        assert!(!table.ready_to_send(1), "a free channel never sends");
        let feed = VcFeed { source: 4, upstream: Some(7), ejects: true };
        table.allocate(1, 3, 4, feed);
        assert_eq!(table.owner(1), Some(3));
        assert_eq!(table.feed(1), Some(feed));
        assert!(table.ready_to_send(1));
        assert!(!table.tail_sent(1));
        table.send_flit(1);
        assert_eq!(table.credits(1), 1);
        table.send_flit(1);
        assert_eq!(table.credits(1), 0);
        assert!(!table.ready_to_send(1), "no credits, no send");
        table.return_credit(1);
        table.send_flit(1);
        table.return_credit(1);
        table.send_flit(1);
        assert!(table.tail_sent(1));
        assert!(!table.ready_to_send(1), "all flits sent");
        table.return_credit(1);
        table.return_credit(1);
        table.release(1);
        assert!(table.is_free(1));
        assert!(!table.tail_sent(1));
        // credits track downstream buffer space, not ownership
        assert_eq!(table.credits(1), 2);
        assert_eq!(table.feed(1), None);
        // an injection feed has no upstream channel
        table.allocate(0, 8, 1, VcFeed { source: 2, upstream: None, ejects: false });
        assert_eq!(table.feed(0).unwrap().upstream, None);
    }
}
