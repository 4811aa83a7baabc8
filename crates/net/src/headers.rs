//! Ethernet II, IPv4, UDP, and TCP headers: parse from and emit to byte
//! buffers, with explicit offsets and network byte order throughout.
//!
//! These are deliberately plain (no options, no IPv6): the paper's workloads
//! operate on ordinary IPv4 unicast traffic, and simple code keeps the
//! per-packet cost model transparent.

use crate::checksum;
use crate::error::ParseError;
use std::net::Ipv4Addr;

/// A 48-bit IEEE MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally administered unicast address derived from an index —
    /// handy for assigning per-port addresses in tests and examples.
    pub fn local(idx: u16) -> MacAddr {
        let [hi, lo] = idx.to_be_bytes();
        MacAddr([0x02, 0x00, 0x00, 0x00, hi, lo])
    }
}

impl std::fmt::Display for MacAddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let b = &self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// EtherType values used by this stack.
pub mod ethertype {
    /// IPv4.
    pub const IPV4: u16 = 0x0800;
    /// ARP (recognized, not processed).
    pub const ARP: u16 = 0x0806;
}

/// IP protocol numbers used by this stack.
pub mod ip_proto {
    /// TCP.
    pub const TCP: u8 = 6;
    /// UDP.
    pub const UDP: u8 = 17;
}

/// An Ethernet II frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// EtherType of the payload.
    pub ethertype: u16,
}

impl EthernetHeader {
    /// Header length in bytes.
    pub const LEN: usize = 14;

    /// Parse from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                what: "ethernet",
                need: Self::LEN,
                have: buf.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&buf[0..6]);
        src.copy_from_slice(&buf[6..12]);
        Ok(EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: u16::from_be_bytes([buf[12], buf[13]]),
        })
    }

    /// Write to the front of `buf` (panics if too short — emission is
    /// always into buffers we sized ourselves).
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..6].copy_from_slice(&self.dst.0);
        buf[6..12].copy_from_slice(&self.src.0);
        buf[12..14].copy_from_slice(&self.ethertype.to_be_bytes());
    }
}

/// An IPv4 header without options (IHL = 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services / TOS byte.
    pub dscp_ecn: u8,
    /// Total length of the IP datagram (header + payload).
    pub total_len: u16,
    /// Identification field.
    pub ident: u16,
    /// Flags (3 bits) and fragment offset (13 bits), packed.
    pub flags_frag: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol (see [`ip_proto`]).
    pub protocol: u8,
    /// Header checksum as found/emitted.
    pub checksum: u16,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Header length in bytes (no options).
    pub const LEN: usize = 20;
    /// Offset of the TTL byte within the header.
    pub const TTL_OFFSET: usize = 8;
    /// Offset of the checksum word within the header.
    pub const CHECKSUM_OFFSET: usize = 10;
    /// Offset of the source address within the header.
    pub const SRC_OFFSET: usize = 12;
    /// Offset of the destination address within the header.
    pub const DST_OFFSET: usize = 16;

    /// Parse from the front of `buf`, rejecting non-IPv4 and options.
    /// Does **not** verify the checksum; see [`verify_checksum`].
    ///
    /// [`verify_checksum`]: Self::verify_checksum
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated {
                what: "ipv4",
                need: Self::LEN,
                have: buf.len(),
            });
        }
        let version = buf[0] >> 4;
        if version != 4 {
            return Err(ParseError::Unsupported { what: "ip version", value: version.into() });
        }
        let ihl = buf[0] & 0x0F;
        if ihl != 5 {
            return Err(ParseError::Unsupported { what: "ipv4 ihl", value: ihl.into() });
        }
        let total_len = u16::from_be_bytes([buf[2], buf[3]]);
        if (total_len as usize) < Self::LEN {
            return Err(ParseError::BadLength { what: "ipv4" });
        }
        Ok(Ipv4Header {
            dscp_ecn: buf[1],
            total_len,
            ident: u16::from_be_bytes([buf[4], buf[5]]),
            flags_frag: u16::from_be_bytes([buf[6], buf[7]]),
            ttl: buf[8],
            protocol: buf[9],
            checksum: u16::from_be_bytes([buf[10], buf[11]]),
            src: Ipv4Addr::new(buf[12], buf[13], buf[14], buf[15]),
            dst: Ipv4Addr::new(buf[16], buf[17], buf[18], buf[19]),
        })
    }

    /// Check the header checksum over the raw bytes.
    pub fn verify_checksum(buf: &[u8]) -> bool {
        buf.len() >= Self::LEN && checksum::verify(&buf[..Self::LEN])
    }

    /// Write to the front of `buf`. If `compute_checksum`, the checksum
    /// field is computed from the emitted bytes; otherwise [`checksum`]
    /// is emitted verbatim.
    ///
    /// [`checksum`]: Self::checksum
    pub fn write_to(&self, buf: &mut [u8], compute_checksum: bool) {
        buf[0] = 0x45;
        buf[1] = self.dscp_ecn;
        buf[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        buf[4..6].copy_from_slice(&self.ident.to_be_bytes());
        buf[6..8].copy_from_slice(&self.flags_frag.to_be_bytes());
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10..12].copy_from_slice(&[0, 0]);
        buf[12..16].copy_from_slice(&self.src.octets());
        buf[16..20].copy_from_slice(&self.dst.octets());
        let ck = if compute_checksum {
            checksum::checksum(&buf[..Self::LEN])
        } else {
            self.checksum
        };
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
    }
}

/// A UDP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// UDP length (header + payload).
    pub length: u16,
    /// Checksum (0 = not computed, legal for IPv4).
    pub checksum: u16,
}

impl UdpHeader {
    /// Header length in bytes.
    pub const LEN: usize = 8;
    /// Offset of the checksum word within the header.
    pub const CHECKSUM_OFFSET: usize = 6;

    /// Parse from the front of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated { what: "udp", need: Self::LEN, have: buf.len() });
        }
        let length = u16::from_be_bytes([buf[4], buf[5]]);
        if (length as usize) < Self::LEN {
            return Err(ParseError::BadLength { what: "udp" });
        }
        Ok(UdpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            length,
            checksum: u16::from_be_bytes([buf[6], buf[7]]),
        })
    }

    /// Write to the front of `buf`.
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..6].copy_from_slice(&self.length.to_be_bytes());
        buf[6..8].copy_from_slice(&self.checksum.to_be_bytes());
    }
}

/// A TCP header without options (data offset = 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flag bits (FIN=0x01 .. CWR=0x80).
    pub flags: u8,
    /// Receive window.
    pub window: u16,
    /// Checksum.
    pub checksum: u16,
    /// Urgent pointer.
    pub urgent: u16,
}

impl TcpHeader {
    /// Header length in bytes (no options).
    pub const LEN: usize = 20;
    /// Offset of the checksum word within the header.
    pub const CHECKSUM_OFFSET: usize = 16;

    /// Parse from the front of `buf`. Options are tolerated (data offset
    /// > 5) but not returned.
    pub fn parse(buf: &[u8]) -> Result<Self, ParseError> {
        if buf.len() < Self::LEN {
            return Err(ParseError::Truncated { what: "tcp", need: Self::LEN, have: buf.len() });
        }
        let data_off = (buf[12] >> 4) as usize;
        if data_off < 5 {
            return Err(ParseError::BadLength { what: "tcp" });
        }
        Ok(TcpHeader {
            src_port: u16::from_be_bytes([buf[0], buf[1]]),
            dst_port: u16::from_be_bytes([buf[2], buf[3]]),
            seq: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            ack: u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]),
            flags: buf[13],
            window: u16::from_be_bytes([buf[14], buf[15]]),
            checksum: u16::from_be_bytes([buf[16], buf[17]]),
            urgent: u16::from_be_bytes([buf[18], buf[19]]),
        })
    }

    /// Write to the front of `buf` (data offset 5, reserved bits zero).
    pub fn write_to(&self, buf: &mut [u8]) {
        buf[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        buf[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        buf[4..8].copy_from_slice(&self.seq.to_be_bytes());
        buf[8..12].copy_from_slice(&self.ack.to_be_bytes());
        buf[12] = 5 << 4;
        buf[13] = self.flags;
        buf[14..16].copy_from_slice(&self.window.to_be_bytes());
        buf[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        buf[18..20].copy_from_slice(&self.urgent.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr::local(0x1234).to_string(), "02:00:00:00:12:34");
    }

    #[test]
    fn ethernet_roundtrip() {
        let h = EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: ethertype::IPV4,
        };
        let mut buf = [0u8; EthernetHeader::LEN];
        h.write_to(&mut buf);
        assert_eq!(EthernetHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn ethernet_truncated() {
        assert!(matches!(
            EthernetHeader::parse(&[0u8; 5]),
            Err(ParseError::Truncated { what: "ethernet", .. })
        ));
    }

    #[test]
    fn ipv4_roundtrip_with_checksum() {
        let h = Ipv4Header {
            dscp_ecn: 0,
            total_len: 100,
            ident: 0x4242,
            flags_frag: 0x4000,
            ttl: 64,
            protocol: ip_proto::UDP,
            checksum: 0,
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 1, 99),
        };
        let mut buf = [0u8; Ipv4Header::LEN];
        h.write_to(&mut buf, true);
        assert!(Ipv4Header::verify_checksum(&buf));
        let parsed = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed.src, h.src);
        assert_eq!(parsed.dst, h.dst);
        assert_eq!(parsed.ttl, 64);
        assert_ne!(parsed.checksum, 0);
    }

    #[test]
    fn ipv4_rejects_v6_and_options() {
        let mut buf = [0u8; 20];
        buf[0] = 0x60;
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParseError::Unsupported { what: "ip version", .. })
        ));
        buf[0] = 0x46;
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParseError::Unsupported { what: "ipv4 ihl", .. })
        ));
    }

    #[test]
    fn ipv4_rejects_short_total_len() {
        let h = Ipv4Header {
            dscp_ecn: 0,
            total_len: 10, // < 20
            ident: 0,
            flags_frag: 0,
            ttl: 1,
            protocol: 0,
            checksum: 0,
            src: Ipv4Addr::UNSPECIFIED,
            dst: Ipv4Addr::UNSPECIFIED,
        };
        let mut buf = [0u8; 20];
        h.write_to(&mut buf, true);
        assert!(matches!(Ipv4Header::parse(&buf), Err(ParseError::BadLength { .. })));
    }

    #[test]
    fn udp_roundtrip() {
        let h = UdpHeader { src_port: 53, dst_port: 4242, length: 36, checksum: 0xbeef };
        let mut buf = [0u8; UdpHeader::LEN];
        h.write_to(&mut buf);
        assert_eq!(UdpHeader::parse(&buf).unwrap(), h);
    }

    #[test]
    fn tcp_roundtrip() {
        let h = TcpHeader {
            src_port: 80,
            dst_port: 50000,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: 0x18, // PSH|ACK
            window: 65535,
            checksum: 0x1234,
            urgent: 0,
        };
        let mut buf = [0u8; TcpHeader::LEN];
        h.write_to(&mut buf);
        assert_eq!(TcpHeader::parse(&buf).unwrap(), h);
    }
}
