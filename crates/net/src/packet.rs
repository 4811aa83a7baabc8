//! The packet: real frame bytes plus the metadata the processing path needs.
//!
//! A [`Packet`] owns its bytes in a [`BytesMut`] (reused across the
//! processing chain, never reallocated per hop) and carries the simulated
//! address of the NIC buffer holding it, so elements can charge header and
//! payload accesses to the memory hierarchy at the right locations.

use crate::error::ParseError;
use crate::fivetuple::FlowKey;
use crate::headers::{ethertype, ip_proto, EthernetHeader, Ipv4Header, TcpHeader, UdpHeader};
use bytes::BytesMut;
use std::net::Ipv4Addr;

/// A packet moving through the processing path. See the module docs.
#[derive(Debug, Clone)]
pub struct Packet {
    /// The full Ethernet frame.
    pub data: BytesMut,
    /// Simulated address of the NIC buffer holding this packet
    /// (0 until assigned by the receive path).
    pub buf_addr: u64,
    /// Simulated cycle at which the receive path delivered this packet
    /// (0 until stamped). Latency accounting reads egress − ingress; the
    /// stamp is host-side metadata and charges nothing to the hierarchy.
    pub ingress_cycle: u64,
}

impl Packet {
    /// Wrap raw frame bytes.
    pub fn from_bytes(data: BytesMut) -> Self {
        Packet { data, buf_addr: 0, ingress_cycle: 0 }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the frame is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Parse the Ethernet header.
    pub fn ethernet(&self) -> Result<EthernetHeader, ParseError> {
        EthernetHeader::parse(&self.data)
    }

    /// Byte offset where the IPv4 header starts.
    pub fn l3_offset(&self) -> usize {
        EthernetHeader::LEN
    }

    /// Parse the IPv4 header (assumes EtherType was checked by the caller).
    pub fn ipv4(&self) -> Result<Ipv4Header, ParseError> {
        Ipv4Header::parse(&self.data[self.l3_offset()..])
    }

    /// Byte offset where the L4 header starts (fixed 20-byte IPv4 header).
    fn l4_offset(&self) -> usize {
        self.l3_offset() + Ipv4Header::LEN
    }

    /// Byte offset where the application payload starts, given the parsed
    /// IPv4 protocol.
    pub fn payload_offset(&self) -> Result<usize, ParseError> {
        let ip = self.ipv4()?;
        let l4 = match ip.protocol {
            ip_proto::UDP => UdpHeader::LEN,
            ip_proto::TCP => TcpHeader::LEN,
            other => {
                return Err(ParseError::Unsupported { what: "ip protocol", value: other.into() })
            }
        };
        Ok(self.l4_offset() + l4)
    }

    /// The application payload bytes, bounded by the IP total length so
    /// Ethernet minimum-frame padding is excluded.
    pub fn payload(&self) -> Result<&[u8], ParseError> {
        let off = self.payload_offset()?;
        let ip = self.ipv4()?;
        let end = (self.l3_offset() + ip.total_len as usize).min(self.data.len());
        Ok(&self.data[off.min(end)..end])
    }

    /// Extract the 5-tuple flow key (src/dst address, protocol, ports).
    pub fn flow_key(&self) -> Result<FlowKey, ParseError> {
        let ip = self.ipv4()?;
        let l4 = &self.data[self.l4_offset()..];
        let (sport, dport) = match ip.protocol {
            ip_proto::UDP => {
                let u = UdpHeader::parse(l4)?;
                (u.src_port, u.dst_port)
            }
            ip_proto::TCP => {
                let t = TcpHeader::parse(l4)?;
                (t.src_port, t.dst_port)
            }
            other => {
                return Err(ParseError::Unsupported { what: "ip protocol", value: other.into() })
            }
        };
        Ok(FlowKey {
            src: ip.src,
            dst: ip.dst,
            protocol: ip.protocol,
            src_port: sport,
            dst_port: dport,
        })
    }

    /// Offset of this packet's L4 checksum word within the frame, or `None`
    /// for protocols without one we know.
    fn l4_checksum_offset(&self) -> Option<usize> {
        match self.ipv4().ok()?.protocol {
            ip_proto::UDP => Some(self.l4_offset() + UdpHeader::CHECKSUM_OFFSET),
            ip_proto::TCP => Some(self.l4_offset() + TcpHeader::CHECKSUM_OFFSET),
            _ => None,
        }
    }

    /// Patch the L4 checksum for a covered word change `old -> new`,
    /// honouring UDP's "0 means not computed" rule.
    fn patch_l4(&mut self, old: u16, new: u16) {
        let Some(off) = self.l4_checksum_offset() else { return };
        let stored = u16::from_be_bytes([self.data[off], self.data[off + 1]]);
        let is_udp = self.ipv4().map(|ip| ip.protocol == ip_proto::UDP).unwrap_or(false);
        if is_udp && stored == 0 {
            return; // checksum not computed; stays 0
        }
        let mut patched = crate::checksum::update16(stored, old, new);
        if is_udp && patched == 0 {
            patched = 0xFFFF; // RFC 768: transmit 0 as all-ones
        }
        self.data[off..off + 2].copy_from_slice(&patched.to_be_bytes());
    }

    /// Rewrite one IP address field (at `addr_off`) and one port field (at
    /// `port_off`), incrementally patching the IP header checksum and the
    /// L4 checksum (whose pseudo-header covers the address).
    fn rewrite_endpoint(&mut self, addr_off: usize, port_off: usize, ip: Ipv4Addr, port: u16) {
        let l3 = self.l3_offset();
        let old_ip = u32::from_be_bytes([
            self.data[l3 + addr_off],
            self.data[l3 + addr_off + 1],
            self.data[l3 + addr_off + 2],
            self.data[l3 + addr_off + 3],
        ]);
        let new_ip = u32::from(ip);

        // IP header checksum covers the address words.
        let ck_off = l3 + Ipv4Header::CHECKSUM_OFFSET;
        let old_ck = u16::from_be_bytes([self.data[ck_off], self.data[ck_off + 1]]);
        let new_ck = crate::checksum::update32(old_ck, old_ip, new_ip);
        self.data[ck_off..ck_off + 2].copy_from_slice(&new_ck.to_be_bytes());
        // The L4 pseudo-header covers them too.
        self.patch_l4((old_ip >> 16) as u16, (new_ip >> 16) as u16);
        self.patch_l4(old_ip as u16, new_ip as u16);
        self.data[l3 + addr_off..l3 + addr_off + 4].copy_from_slice(&ip.octets());

        // The port is covered by the L4 checksum only.
        let po = self.l4_offset() + port_off;
        let old_port = u16::from_be_bytes([self.data[po], self.data[po + 1]]);
        self.patch_l4(old_port, port);
        self.data[po..po + 2].copy_from_slice(&port.to_be_bytes());
    }

    /// Rewrite the source address and port in place (what a source NAT
    /// does on the outbound path), incrementally patching the IP and L4
    /// checksums so both remain valid.
    pub fn rewrite_src(&mut self, ip: Ipv4Addr, port: u16) -> Result<(), ParseError> {
        self.ipv4()?; // validate before mutating
        self.rewrite_endpoint(Ipv4Header::SRC_OFFSET, 0, ip, port);
        Ok(())
    }

    /// Verify the L4 (UDP/TCP) checksum against the pseudo-header. A UDP
    /// checksum of 0 counts as valid ("not computed").
    pub fn verify_l4_checksum(&self) -> Result<bool, ParseError> {
        let ip = self.ipv4()?;
        let seg_start = self.l4_offset();
        let seg_end = (self.l3_offset() + ip.total_len as usize).min(self.data.len());
        Ok(crate::checksum::verify_l4(
            ip.src.octets(),
            ip.dst.octets(),
            ip.protocol,
            &self.data[seg_start..seg_end],
        ))
    }

    /// Decrement the TTL in place and incrementally patch the IP checksum
    /// (RFC 1624), as the paper's IP element does. Returns the new TTL, or
    /// `None` if the TTL was already 0 (the packet should be dropped).
    pub fn dec_ttl(&mut self) -> Option<u8> {
        let off = self.l3_offset();
        let ttl = self.data[off + Ipv4Header::TTL_OFFSET];
        if ttl == 0 {
            return None;
        }
        let new_ttl = ttl - 1;
        let old_word = u16::from_be_bytes([
            self.data[off + Ipv4Header::TTL_OFFSET],
            self.data[off + Ipv4Header::TTL_OFFSET + 1],
        ]);
        self.data[off + Ipv4Header::TTL_OFFSET] = new_ttl;
        let new_word = u16::from_be_bytes([
            self.data[off + Ipv4Header::TTL_OFFSET],
            self.data[off + Ipv4Header::TTL_OFFSET + 1],
        ]);
        let ck_off = off + Ipv4Header::CHECKSUM_OFFSET;
        let old_ck = u16::from_be_bytes([self.data[ck_off], self.data[ck_off + 1]]);
        let new_ck = crate::checksum::update16(old_ck, old_word, new_word);
        self.data[ck_off..ck_off + 2].copy_from_slice(&new_ck.to_be_bytes());
        Some(new_ttl)
    }
}

/// Builder for well-formed UDP/IPv4/Ethernet frames, used by traffic
/// generators and tests.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    /// Ethernet source.
    pub eth_src: crate::headers::MacAddr,
    /// Ethernet destination.
    pub eth_dst: crate::headers::MacAddr,
    /// IP TTL for generated packets.
    pub ttl: u8,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder {
            eth_src: crate::headers::MacAddr::local(1),
            eth_dst: crate::headers::MacAddr::local(2),
            ttl: 64,
        }
    }
}

impl PacketBuilder {
    /// Build a UDP packet with the given addressing and payload. The frame
    /// is padded to at least the 60-byte Ethernet minimum (without FCS).
    pub fn udp(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Packet {
        let ip_len = Ipv4Header::LEN + UdpHeader::LEN + payload.len();
        let frame_len = (EthernetHeader::LEN + ip_len).max(60);
        let mut buf = BytesMut::zeroed(frame_len);

        EthernetHeader { dst: self.eth_dst, src: self.eth_src, ethertype: ethertype::IPV4 }
            .write_to(&mut buf);
        Ipv4Header {
            dscp_ecn: 0,
            total_len: ip_len as u16,
            ident: 0,
            flags_frag: 0x4000, // don't fragment
            ttl: self.ttl,
            protocol: ip_proto::UDP,
            checksum: 0,
            src,
            dst,
        }
        .write_to(&mut buf[EthernetHeader::LEN..], true);
        UdpHeader {
            src_port,
            dst_port,
            length: (UdpHeader::LEN + payload.len()) as u16,
            checksum: 0,
        }
        .write_to(&mut buf[EthernetHeader::LEN + Ipv4Header::LEN..]);
        let off = EthernetHeader::LEN + Ipv4Header::LEN + UdpHeader::LEN;
        buf[off..off + payload.len()].copy_from_slice(payload);
        Packet::from_bytes(buf)
    }

    /// Build a UDP packet with a *computed* UDP checksum (the default
    /// [`udp`](Self::udp) leaves it 0, which IPv4 permits).
    pub fn udp_checksummed(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        payload: &[u8],
    ) -> Packet {
        let mut pkt = self.udp(src, dst, src_port, dst_port, payload);
        let seg_start = pkt.l4_offset();
        let seg_len = UdpHeader::LEN + payload.len();
        let ck = crate::checksum::l4_checksum(
            src.octets(),
            dst.octets(),
            ip_proto::UDP,
            &pkt.data[seg_start..seg_start + seg_len],
        );
        let off = seg_start + UdpHeader::CHECKSUM_OFFSET;
        pkt.data[off..off + 2].copy_from_slice(&ck.to_be_bytes());
        pkt
    }

    /// Build a TCP packet (no options, PSH+ACK) with a valid TCP checksum.
    /// The frame is padded to at least the 60-byte Ethernet minimum.
    pub fn tcp(
        &self,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        src_port: u16,
        dst_port: u16,
        seq: u32,
        payload: &[u8],
    ) -> Packet {
        let ip_len = Ipv4Header::LEN + TcpHeader::LEN + payload.len();
        let frame_len = (EthernetHeader::LEN + ip_len).max(60);
        let mut buf = BytesMut::zeroed(frame_len);

        EthernetHeader { dst: self.eth_dst, src: self.eth_src, ethertype: ethertype::IPV4 }
            .write_to(&mut buf);
        Ipv4Header {
            dscp_ecn: 0,
            total_len: ip_len as u16,
            ident: 0,
            flags_frag: 0x4000,
            ttl: self.ttl,
            protocol: ip_proto::TCP,
            checksum: 0,
            src,
            dst,
        }
        .write_to(&mut buf[EthernetHeader::LEN..], true);
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: 0x18, // PSH|ACK
            window: 0xFFFF,
            checksum: 0,
            urgent: 0,
        }
        .write_to(&mut buf[EthernetHeader::LEN + Ipv4Header::LEN..]);
        let off = EthernetHeader::LEN + Ipv4Header::LEN + TcpHeader::LEN;
        buf[off..off + payload.len()].copy_from_slice(payload);

        let seg_start = EthernetHeader::LEN + Ipv4Header::LEN;
        let ck = crate::checksum::l4_checksum(
            src.octets(),
            dst.octets(),
            ip_proto::TCP,
            &buf[seg_start..seg_start + TcpHeader::LEN + payload.len()],
        );
        let ck_off = seg_start + TcpHeader::CHECKSUM_OFFSET;
        buf[ck_off..ck_off + 2].copy_from_slice(&ck.to_be_bytes());
        Packet::from_bytes(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Packet {
        PacketBuilder::default().udp(
            Ipv4Addr::new(10, 1, 2, 3),
            Ipv4Addr::new(192, 0, 2, 77),
            1111,
            2222,
            b"payload-bytes",
        )
    }

    #[test]
    fn built_packet_parses_back() {
        let p = sample();
        let eth = p.ethernet().unwrap();
        assert_eq!(eth.ethertype, ethertype::IPV4);
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(10, 1, 2, 3));
        assert_eq!(ip.dst, Ipv4Addr::new(192, 0, 2, 77));
        assert_eq!(ip.protocol, ip_proto::UDP);
        assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        assert_eq!(p.payload().unwrap(), b"payload-bytes");
    }

    #[test]
    fn flow_key_extraction() {
        let p = sample();
        let k = p.flow_key().unwrap();
        assert_eq!(k.src_port, 1111);
        assert_eq!(k.dst_port, 2222);
        assert_eq!(k.protocol, ip_proto::UDP);
    }

    #[test]
    fn min_frame_padding() {
        let p = PacketBuilder::default().udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"",
        );
        assert_eq!(p.len(), 60);
    }

    #[test]
    fn dec_ttl_patches_checksum_incrementally() {
        let mut p = sample();
        let before = p.ipv4().unwrap();
        assert_eq!(p.dec_ttl(), Some(before.ttl - 1));
        let after = p.ipv4().unwrap();
        assert_eq!(after.ttl, before.ttl - 1);
        assert!(
            Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]),
            "checksum must remain valid after incremental update"
        );
    }

    #[test]
    fn dec_ttl_at_zero_signals_drop() {
        let mut p = PacketBuilder { ttl: 0, ..Default::default() }.udp(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            1,
            2,
            b"x",
        );
        assert_eq!(p.dec_ttl(), None);
    }

    #[test]
    fn repeated_dec_ttl_keeps_checksum_valid() {
        let mut p = sample();
        for _ in 0..63 {
            assert!(p.dec_ttl().is_some());
            assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        }
        assert_eq!(p.ipv4().unwrap().ttl, 1);
    }

    #[test]
    fn tcp_builder_produces_valid_checksums() {
        let p = PacketBuilder::default().tcp(
            Ipv4Addr::new(10, 0, 0, 9),
            Ipv4Addr::new(198, 51, 100, 3),
            49152,
            443,
            0xDEADBEEF,
            b"GET / HTTP/1.1",
        );
        assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        assert!(p.verify_l4_checksum().unwrap());
        let k = p.flow_key().unwrap();
        assert_eq!((k.src_port, k.dst_port, k.protocol), (49152, 443, ip_proto::TCP));
        assert_eq!(p.payload().unwrap(), b"GET / HTTP/1.1");
    }

    #[test]
    fn udp_checksummed_builder_verifies() {
        let p = PacketBuilder::default().udp_checksummed(
            Ipv4Addr::new(10, 1, 1, 1),
            Ipv4Addr::new(10, 2, 2, 2),
            1234,
            53,
            b"query",
        );
        assert!(p.verify_l4_checksum().unwrap());
        // And the checksum field is actually non-zero (computed).
        let off = p.l4_offset() + UdpHeader::CHECKSUM_OFFSET;
        assert_ne!(u16::from_be_bytes([p.data[off], p.data[off + 1]]), 0);
    }

    #[test]
    fn rewrite_src_keeps_both_checksums_valid_udp() {
        let mut p = PacketBuilder::default().udp_checksummed(
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            53,
            b"payload",
        );
        p.rewrite_src(Ipv4Addr::new(203, 0, 113, 20), 61001).unwrap();
        let ip = p.ipv4().unwrap();
        assert_eq!(ip.src, Ipv4Addr::new(203, 0, 113, 20));
        assert_eq!(p.flow_key().unwrap().src_port, 61001);
        assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        assert!(p.verify_l4_checksum().unwrap(), "UDP checksum must be patched");
        assert_eq!(p.payload().unwrap(), b"payload", "payload untouched");
    }

    #[test]
    fn rewrite_src_keeps_both_checksums_valid_tcp() {
        let mut p = PacketBuilder::default().tcp(
            Ipv4Addr::new(172, 16, 3, 4),
            Ipv4Addr::new(8, 8, 8, 8),
            50000,
            80,
            7,
            b"body",
        );
        p.rewrite_src(Ipv4Addr::new(198, 51, 100, 99), 62000).unwrap();
        assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        assert!(p.verify_l4_checksum().unwrap());
    }

    #[test]
    fn rewrite_src_is_exactly_invertible() {
        // Rewriting to new values and back to the original ones restores
        // the original bytes exactly.
        let orig = PacketBuilder::default().udp_checksummed(
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(93, 184, 216, 34),
            40000,
            53,
            b"x",
        );
        let mut p = orig.clone();
        p.rewrite_src(Ipv4Addr::new(203, 0, 113, 20), 61001).unwrap();
        p.rewrite_src(Ipv4Addr::new(10, 0, 0, 7), 40000).unwrap();
        assert_eq!(p.data, orig.data, "rewrite is exactly invertible");
    }

    #[test]
    fn rewrite_with_uncomputed_udp_checksum_leaves_it_zero() {
        let mut p = sample(); // plain udp(): checksum 0
        p.rewrite_src(Ipv4Addr::new(203, 0, 113, 20), 61001).unwrap();
        let off = p.l4_offset() + UdpHeader::CHECKSUM_OFFSET;
        assert_eq!(u16::from_be_bytes([p.data[off], p.data[off + 1]]), 0);
        assert!(Ipv4Header::verify_checksum(&p.data[p.l3_offset()..]));
        assert!(p.verify_l4_checksum().unwrap(), "0 still means 'not computed'");
    }
}
