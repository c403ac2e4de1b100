//! Per-virtual-channel state of the router model.
//!
//! Every unidirectional physical channel carries `V` virtual channels.  The
//! sending side of a channel is an output virtual channel (ownership +
//! credits, [`OutputVcTable`]), the receiving side an input virtual channel
//! (flit buffer + routing decision, [`InputVcTable`]).  Flits are tracked as
//! counters rather than individual objects: in wormhole switching a virtual
//! channel is owned by exactly one message at a time, so a count of buffered
//! flits plus the per-message totals fully determines the channel state.
//!
//! Both tables are struct-of-arrays: each per-VC field is one dense vector
//! indexed by the global VC index, so the hot loop touches contiguous memory.

/// Sentinel for "no owning message slot" in the struct-of-arrays tables.
const FREE: u32 = u32::MAX;
/// Sentinel for "header not yet routed" in [`InputVcTable`].
const NO_ROUTE: u16 = u16::MAX;

/// Input virtual-channel state: the flit buffer at a router input (or an
/// injection slot, whose "upstream" is the local processor), indexed by the
/// global input-VC index.
///
/// Owners are message *slots* in a
/// [`MessageStore`](crate::message::MessageStore), not message ids.
#[derive(Debug, Clone)]
pub struct InputVcTable {
    owner: Vec<u32>,
    buffered: Vec<u32>,
    received: Vec<u32>,
    route_port: Vec<u16>,
    route_vc: Vec<u16>,
}

impl InputVcTable {
    /// A table of `count` free input virtual channels.
    #[must_use]
    pub fn new(count: usize) -> Self {
        Self {
            owner: vec![FREE; count],
            buffered: vec![0; count],
            received: vec![0; count],
            route_port: vec![NO_ROUTE; count],
            route_vc: vec![NO_ROUTE; count],
        }
    }

    /// Whether the virtual channel is free.
    #[must_use]
    #[inline]
    pub fn is_free(&self, idx: usize) -> bool {
        self.owner[idx] == FREE
    }

    /// The owning message slot, if any.
    #[must_use]
    #[inline]
    pub fn owner(&self, idx: usize) -> Option<u32> {
        (self.owner[idx] != FREE).then_some(self.owner[idx])
    }

    /// Flits currently buffered.
    #[must_use]
    #[inline]
    pub fn buffered(&self, idx: usize) -> u32 {
        self.buffered[idx]
    }

    /// Flits of the current message received so far.
    #[must_use]
    #[inline]
    pub fn received(&self, idx: usize) -> u32 {
        self.received[idx]
    }

    /// The output `(port, vc)` assigned by the routing stage, `None` until
    /// the header has been routed.
    #[must_use]
    #[inline]
    pub fn route(&self, idx: usize) -> Option<(usize, usize)> {
        (self.route_port[idx] != NO_ROUTE)
            .then(|| (self.route_port[idx] as usize, self.route_vc[idx] as usize))
    }

    /// Claims the channel for a locally injected message whose `length` flits
    /// are all supplied by the source queue.
    #[inline]
    pub fn claim_for_injection(&mut self, idx: usize, slot: u32, length: u32) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        self.owner[idx] = slot;
        self.buffered[idx] = length;
        self.received[idx] = length;
        self.route_port[idx] = NO_ROUTE;
        self.route_vc[idx] = NO_ROUTE;
    }

    /// Claims the channel for a message whose header flit is arriving from
    /// the network (buffered/received start at zero and count up via
    /// [`Self::push_flit`]).
    #[inline]
    pub fn claim_for_arrival(&mut self, idx: usize, slot: u32) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        self.owner[idx] = slot;
        self.buffered[idx] = 0;
        self.received[idx] = 0;
        self.route_port[idx] = NO_ROUTE;
        self.route_vc[idx] = NO_ROUTE;
    }

    /// Records one flit arriving into the buffer.
    #[inline]
    pub fn push_flit(&mut self, idx: usize) {
        self.buffered[idx] += 1;
        self.received[idx] += 1;
    }

    /// Records one flit leaving the buffer.
    #[inline]
    pub fn pop_flit(&mut self, idx: usize) {
        debug_assert!(self.buffered[idx] > 0);
        self.buffered[idx] -= 1;
    }

    /// Sets the routing decision for the buffered header.
    #[inline]
    pub fn set_route(&mut self, idx: usize, port: usize, vc: usize) {
        self.route_port[idx] = port as u16;
        self.route_vc[idx] = vc as u16;
    }

    /// Resets the channel to the free state.
    #[inline]
    pub fn release(&mut self, idx: usize) {
        self.owner[idx] = FREE;
        self.buffered[idx] = 0;
        self.received[idx] = 0;
        self.route_port[idx] = NO_ROUTE;
        self.route_vc[idx] = NO_ROUTE;
    }
}

/// Output virtual-channel state: ownership and credits at a router output,
/// indexed by the global output-VC index.
///
/// Owners are message slots, sources are the feeding input `(port, vc)` with
/// `port == degree` denoting an injection slot.
#[derive(Debug, Clone)]
pub struct OutputVcTable {
    owner: Vec<u32>,
    credits: Vec<u32>,
    flits_sent: Vec<u32>,
    length: Vec<u32>,
    source_port: Vec<u16>,
    source_vc: Vec<u16>,
}

impl OutputVcTable {
    /// A table of `count` free output virtual channels, each starting with
    /// `buffer_depth` credits.
    #[must_use]
    pub fn new(count: usize, buffer_depth: u32) -> Self {
        Self {
            owner: vec![FREE; count],
            credits: vec![buffer_depth; count],
            flits_sent: vec![0; count],
            length: vec![0; count],
            source_port: vec![NO_ROUTE; count],
            source_vc: vec![NO_ROUTE; count],
        }
    }

    /// Whether the channel is free for allocation.
    #[must_use]
    #[inline]
    pub fn is_free(&self, idx: usize) -> bool {
        self.owner[idx] == FREE
    }

    /// The owning message slot, if any.
    #[must_use]
    #[inline]
    pub fn owner(&self, idx: usize) -> Option<u32> {
        (self.owner[idx] != FREE).then_some(self.owner[idx])
    }

    /// Free buffer slots at the downstream input virtual channel.
    #[must_use]
    #[inline]
    pub fn credits(&self, idx: usize) -> u32 {
        self.credits[idx]
    }

    /// The input `(port, vc)` feeding this channel, if allocated.
    #[must_use]
    #[inline]
    pub fn source(&self, idx: usize) -> Option<(usize, usize)> {
        (self.source_port[idx] != NO_ROUTE)
            .then(|| (self.source_port[idx] as usize, self.source_vc[idx] as usize))
    }

    /// Whether the channel may forward a flit this cycle: allocated, credit
    /// available and not all flits sent.
    #[must_use]
    #[inline]
    pub fn ready_to_send(&self, idx: usize) -> bool {
        self.owner[idx] != FREE && self.credits[idx] > 0 && self.flits_sent[idx] < self.length[idx]
    }

    /// Allocates the channel to a message of `length` flits fed from the
    /// given input.
    #[inline]
    pub fn allocate(&mut self, idx: usize, slot: u32, source: (usize, usize), length: u32) {
        debug_assert!(self.is_free(idx));
        debug_assert_ne!(slot, FREE);
        self.owner[idx] = slot;
        self.flits_sent[idx] = 0;
        self.length[idx] = length;
        self.source_port[idx] = source.0 as u16;
        self.source_vc[idx] = source.1 as u16;
    }

    /// Records one flit sent downstream (consumes a credit).
    #[inline]
    pub fn send_flit(&mut self, idx: usize) {
        debug_assert!(self.credits[idx] > 0);
        self.credits[idx] -= 1;
        self.flits_sent[idx] += 1;
    }

    /// Returns one credit from downstream.
    #[inline]
    pub fn return_credit(&mut self, idx: usize) {
        self.credits[idx] += 1;
    }

    /// Whether the tail flit has been sent downstream.
    #[must_use]
    #[inline]
    pub fn tail_sent(&self, idx: usize) -> bool {
        self.owner[idx] != FREE && self.flits_sent[idx] >= self.length[idx]
    }

    /// Releases the channel.  Called once the tail flit has been sent *and*
    /// the downstream buffer has fully drained (all credits returned), which
    /// is when a wormhole virtual channel returns to the idle state.  Credits
    /// are preserved: they track downstream buffer space, not ownership.
    #[inline]
    pub fn release(&mut self, idx: usize) {
        self.owner[idx] = FREE;
        self.flits_sent[idx] = 0;
        self.length[idx] = 0;
        self.source_port[idx] = NO_ROUTE;
        self.source_vc[idx] = NO_ROUTE;
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
        assert_eq!(table.received(2), 32);
        assert_eq!(table.route(2), None);
        table.set_route(2, 3, 1);
        assert_eq!(table.route(2), Some((3, 1)));
        table.pop_flit(2);
        assert_eq!(table.buffered(2), 31);
        table.release(2);
        assert!(table.is_free(2));
        assert_eq!(table.route(2), None);
        // network-arrival claims count flits up from zero
        table.claim_for_arrival(0, 5);
        assert_eq!(table.buffered(0), 0);
        table.push_flit(0);
        table.push_flit(0);
        assert_eq!((table.buffered(0), table.received(0)), (2, 2));
        assert!(!table.is_free(0) && table.is_free(1));
    }

    #[test]
    fn output_table_lifecycle_preserves_credits() {
        let mut table = OutputVcTable::new(3, 2);
        assert!(table.is_free(1));
        assert_eq!(table.credits(1), 2);
        assert!(!table.ready_to_send(1), "a free channel never sends");
        table.allocate(1, 3, (4, 0), 4);
        assert_eq!(table.owner(1), Some(3));
        assert_eq!(table.source(1), Some((4, 0)));
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
        assert_eq!(table.source(1), None);
    }
}
