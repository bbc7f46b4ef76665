//! Network packets and node identifiers.

use std::fmt;

use shrimp_mem::PhysAddr;
use shrimp_sim::{Payload, SimTime, XferMeta};

/// Identifies a node on the backplane.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u16);

impl NodeId {
    /// Wraps a raw node index.
    pub const fn new(raw: u16) -> Self {
        NodeId(raw)
    }

    /// The raw node index.
    pub const fn raw(self) -> u16 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// The §7 two-priority packet class. SHRIMP's network interface keeps
/// "two outgoing queues ... one for system packets and one for user
/// packets", with system packets taking priority at the network. The
/// fabric arbitrates at [`crate::Fabric::commit_next`]: among staged
/// entries whose `link_ready` ties, system-class packets pop first.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PacketClass {
    /// System packets: kernel-to-kernel control traffic and anything the
    /// OS marks urgent (e.g. RPC replies a server issues on behalf of a
    /// tenant). Wins ties against user packets.
    System,
    /// User packets: ordinary UDMA data transfers. The default — every
    /// packet a NIC builds is user-class unless the engine reclassifies
    /// it, which keeps single-class workloads' commit order (and so
    /// digests) identical to the pre-priority fabric.
    #[default]
    User,
}

impl PacketClass {
    /// The class's arbitration bit: `0` for system, `1` for user. Encoded
    /// above the [`shrimp_sim::XferId`] sequence bits in a staged entry's
    /// merge tag, so `(link_ready, tag)` ordering resolves equal-time
    /// ties by class first, then by transfer ID.
    pub const fn rank(self) -> u64 {
        match self {
            PacketClass::System => 0,
            PacketClass::User => 1,
        }
    }
}

/// One SHRIMP packet: a header naming the destination node and destination
/// *physical memory address*, plus the data (§8: the NIPT lookup produces
/// "a destination node ID and a destination page number", concatenated with
/// the offset "to form the destination physical address").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Packet {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Destination physical memory address on the receiving node.
    pub dst_paddr: PhysAddr,
    /// Message data — a pooled buffer the sending NIC filled once; its
    /// storage recycles into the NIC's [`shrimp_sim::BufPool`] when the
    /// receiver drops the packet.
    pub payload: Payload,
    /// When the packet entered the network (stamped by the fabric).
    pub sent_at: SimTime,
    /// Flight-recorder correlation block: the transfer ID the sending NIC
    /// minted plus the timestamps accumulated on the way to the wire.
    pub meta: XferMeta,
    /// §7 priority class (system or user); see [`PacketClass`].
    pub class: PacketClass,
}

impl Packet {
    /// Builds a packet (the fabric stamps `sent_at` on send). Accepts any
    /// payload source: a pooled [`Payload`] on the hot path, or a plain
    /// `Vec<u8>` in tests.
    pub fn new(src: NodeId, dst: NodeId, dst_paddr: PhysAddr, payload: impl Into<Payload>) -> Self {
        Packet {
            src,
            dst,
            dst_paddr,
            payload: payload.into(),
            sent_at: SimTime::ZERO,
            meta: XferMeta::default(),
            class: PacketClass::default(),
        }
    }

    /// The staged-queue tag: the class's arbitration bit in bit 63, the
    /// raw transfer ID below. `XferId` packs the source node into bits
    /// 48–63 and the sequence into the low 48 bits, so bit 63 is free on
    /// any machine up to 32K nodes — far above the 1024-node meshes the
    /// engine runs — and consecutive run members (`id + i`) stay
    /// consecutive under the encoding.
    pub fn merge_tag(&self) -> u64 {
        let raw = self.meta.id.raw();
        debug_assert_eq!(raw >> 63, 0, "node index too large for the class bit");
        (self.class.rank() << 63) | raw
    }

    /// Header size on the wire (node id + physical address + length).
    pub const HEADER_BYTES: u64 = 16;

    /// Total bytes the packet occupies on a link.
    pub fn wire_bytes(&self) -> u64 {
        Self::HEADER_BYTES + self.payload.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::new(3).to_string(), "node3");
    }

    #[test]
    fn wire_bytes_include_header() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 100]);
        assert_eq!(p.wire_bytes(), 116);
    }

    #[test]
    fn packets_default_to_user_class() {
        let p = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 4]);
        assert_eq!(p.class, PacketClass::User);
    }

    #[test]
    fn system_tags_sort_before_user_tags_at_any_id() {
        use shrimp_sim::XferId;
        let mut sys = Packet::new(NodeId::new(5), NodeId::new(1), PhysAddr::new(0), vec![0; 4]);
        sys.meta.id = XferId::new(5, u64::MAX >> 16);
        sys.class = PacketClass::System;
        let mut user = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 4]);
        user.meta.id = XferId::new(0, 0);
        assert!(sys.merge_tag() < user.merge_tag(), "system wins equal-time arbitration");
    }

    #[test]
    fn same_class_tags_preserve_transfer_id_order() {
        use shrimp_sim::XferId;
        let mut a = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 4]);
        a.meta.id = XferId::new(0, 7);
        let mut b = Packet::new(NodeId::new(0), NodeId::new(1), PhysAddr::new(0), vec![0; 4]);
        b.meta.id = XferId::new(0, 8);
        assert!(a.merge_tag() < b.merge_tag(), "within a class, XferId order is unchanged");
        assert_eq!(b.merge_tag() - a.merge_tag(), 1, "run members stay consecutive");
    }
}
