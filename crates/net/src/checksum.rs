//! The Internet checksum (RFC 1071) and incremental updates (RFC 1624).
//!
//! The IP workload in the paper performs "checksum computation and
//! time-to-live update" per packet; real routers use the incremental form
//! ([`update16`]) for the TTL decrement, and so do our elements.

/// One's-complement sum of a byte slice, folded to 16 bits (not inverted).
/// Odd-length data is padded with a zero byte, per RFC 1071.
fn ones_complement_sum(data: &[u8]) -> u16 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for c in &mut chunks {
        sum += u32::from(u16::from_be_bytes([c[0], c[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum as u16
}

/// The Internet checksum of `data`: the one's complement of the
/// one's-complement sum.
pub fn checksum(data: &[u8]) -> u16 {
    !ones_complement_sum(data)
}

/// Verify data that *includes* its checksum field: valid iff the
/// one's-complement sum is `0xFFFF`.
pub fn verify(data: &[u8]) -> bool {
    ones_complement_sum(data) == 0xFFFF
}

/// Incrementally update a checksum when one 16-bit word of the covered data
/// changes from `old` to `new` (RFC 1624, eqn. 3: `HC' = ~(~HC + ~m + m')`).
pub fn update16(cksum: u16, old: u16, new: u16) -> u16 {
    let mut sum: u32 = u32::from(!cksum) + u32::from(!old) + u32::from(new);
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// Incrementally update a checksum for a 32-bit change (an IPv4 address is
/// two covered words).
pub fn update32(cksum: u16, old: u32, new: u32) -> u16 {
    let c = update16(cksum, (old >> 16) as u16, (new >> 16) as u16);
    update16(c, old as u16, new as u16)
}

/// The UDP/TCP checksum over the IPv4 pseudo-header plus the transport
/// segment (header + payload). For UDP, a computed value of 0 must be
/// transmitted as `0xFFFF` (RFC 768); this function performs that mapping
/// when `proto` is UDP.
pub fn l4_checksum(src: [u8; 4], dst: [u8; 4], proto: u8, segment: &[u8]) -> u16 {
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src);
    pseudo[4..8].copy_from_slice(&dst);
    pseudo[9] = proto;
    pseudo[10..12].copy_from_slice(&(segment.len() as u16).to_be_bytes());
    let mut sum = u32::from(ones_complement_sum(&pseudo));
    sum += u32::from(ones_complement_sum(segment));
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    let ck = !(sum as u16);
    if ck == 0 && proto == crate::headers::ip_proto::UDP {
        0xFFFF
    } else {
        ck
    }
}

/// Verify a transport segment that includes its checksum field: valid iff
/// the pseudo-header + segment sum folds to `0xFFFF`. A UDP checksum of 0
/// (not computed) is accepted, per RFC 768.
pub fn verify_l4(src: [u8; 4], dst: [u8; 4], proto: u8, segment: &[u8]) -> bool {
    if proto == crate::headers::ip_proto::UDP
        && segment.len() >= 8
        && segment[6] == 0
        && segment[7] == 0
    {
        return true;
    }
    let mut pseudo = [0u8; 12];
    pseudo[0..4].copy_from_slice(&src);
    pseudo[4..8].copy_from_slice(&dst);
    pseudo[9] = proto;
    pseudo[10..12].copy_from_slice(&(segment.len() as u16).to_be_bytes());
    let mut sum = u32::from(ones_complement_sum(&pseudo));
    sum += u32::from(ones_complement_sum(segment));
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    sum == 0xFFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 1071 worked example: 00 01 f2 03 f4 f5 f6 f7 sums to ddf2.
    #[test]
    fn rfc1071_example() {
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&data), 0xddf2);
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(ones_complement_sum(&[0xab]), ones_complement_sum(&[0xab, 0x00]));
    }

    #[test]
    fn zero_data_checksums_to_ffff() {
        assert_eq!(checksum(&[0u8; 20]), 0xFFFF);
    }

    #[test]
    fn verify_accepts_valid_header() {
        // A real IPv4 header (from a capture), checksum 0xb861 at offset 10.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xb8, 0x61,
            0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        assert!(verify(&hdr));
        // Recomputing over the header with the checksum field zeroed gives
        // the stored value back.
        let mut z = hdr;
        z[10] = 0;
        z[11] = 0;
        assert_eq!(checksum(&z), 0xb861);
    }

    #[test]
    fn verify_rejects_corruption() {
        let mut hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xb8, 0x61,
            0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        hdr[15] ^= 0x40;
        assert!(!verify(&hdr));
    }

    #[test]
    fn incremental_update_matches_recompute() {
        // Decrement the TTL of a valid header both ways and compare.
        let hdr: [u8; 20] = [
            0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00, 0x40, 0x11, 0xb8, 0x61,
            0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
        ];
        let mut new_hdr = hdr;
        new_hdr[8] -= 1; // TTL 0x40 -> 0x3f
        let old_word = u16::from_be_bytes([hdr[8], hdr[9]]);
        let new_word = u16::from_be_bytes([new_hdr[8], new_hdr[9]]);
        let old_ck = u16::from_be_bytes([hdr[10], hdr[11]]);
        let incr = update16(old_ck, old_word, new_word);

        let mut z = new_hdr;
        z[10] = 0;
        z[11] = 0;
        assert_eq!(incr, checksum(&z));
    }

    #[test]
    fn incremental_update_roundtrip() {
        let ck = 0x1234;
        let ck2 = update16(ck, 0xaaaa, 0xbbbb);
        let ck3 = update16(ck2, 0xbbbb, 0xaaaa);
        assert_eq!(ck, ck3);
    }

    #[test]
    fn update32_equals_two_word_updates() {
        let ck = 0xbeef;
        let a = update32(ck, 0x0a00_0001, 0xc0a8_0105);
        let b = update16(update16(ck, 0x0a00, 0xc0a8), 0x0001, 0x0105);
        assert_eq!(a, b);
    }

    #[test]
    fn l4_checksum_verifies_itself() {
        let src = [10, 0, 0, 1];
        let dst = [192, 168, 1, 9];
        // A UDP segment: ports 53/999, length 12, checksum zeroed, 4 bytes.
        let mut seg = vec![0u8; 12];
        seg[0..2].copy_from_slice(&53u16.to_be_bytes());
        seg[2..4].copy_from_slice(&999u16.to_be_bytes());
        seg[4..6].copy_from_slice(&12u16.to_be_bytes());
        seg[8..12].copy_from_slice(b"data");
        let ck = l4_checksum(src, dst, 17, &seg);
        seg[6..8].copy_from_slice(&ck.to_be_bytes());
        assert!(verify_l4(src, dst, 17, &seg));
        // Corruption is caught.
        seg[9] ^= 1;
        assert!(!verify_l4(src, dst, 17, &seg));
    }

    #[test]
    fn udp_zero_checksum_accepted_as_uncomputed() {
        let seg = [0u8; 8];
        assert!(verify_l4([1, 1, 1, 1], [2, 2, 2, 2], 17, &seg));
        // But TCP with a zero checksum must actually verify.
        assert!(!verify_l4([1, 1, 1, 1], [2, 2, 2, 2], 6, &[0u8; 20]));
    }

    #[test]
    fn incremental_l4_update_tracks_address_rewrite() {
        // NAT's core correctness property: patching the checksum for an
        // address change equals recomputing it from scratch.
        let src = [10, 0, 0, 7];
        let new_src = [203, 0, 113, 20];
        let dst = [93, 184, 216, 34];
        let mut seg = vec![0u8; 20];
        seg[0..2].copy_from_slice(&40000u16.to_be_bytes());
        seg[2..4].copy_from_slice(&80u16.to_be_bytes());
        seg[4..6].copy_from_slice(&20u16.to_be_bytes());
        seg[8..20].copy_from_slice(b"hello world!");
        let ck = l4_checksum(src, dst, 17, &seg);
        let patched = update32(
            ck,
            u32::from_be_bytes(src),
            u32::from_be_bytes(new_src),
        );
        let recomputed = l4_checksum(new_src, dst, 17, &seg);
        assert_eq!(patched, recomputed);
    }
}
