//! AES-128, implemented from scratch with the classic 32-bit T-table
//! formulation — the style of software AES the paper's 2012-era VPN
//! workload used (pre-AES-NI Click).
//!
//! Besides the plain [`Aes128::encrypt_block`], a *traced* variant reports
//! every table lookup `(table, index)` to a callback, so the VPN element
//! can charge each lookup to the simulated cache hierarchy at the T-tables'
//! simulated addresses. The S-box and T-tables are derived programmatically
//! from the GF(2⁸) arithmetic (no 256-line constant pastes), and verified
//! against the FIPS-197 vectors.

use std::sync::OnceLock;

/// Multiply in GF(2^8) with the AES polynomial x^8 + x^4 + x^3 + x + 1.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1B;
        }
        b >>= 1;
    }
    p
}

/// The AES tables: S-box, inverse is not needed (CTR mode only encrypts).
struct Tables {
    sbox: [u8; 256],
    /// T0..T3: the four round tables (each entry combines SubBytes,
    /// ShiftRows, and MixColumns for one byte position).
    t: [[u32; 256]; 4],
    rcon: [u8; 11],
}

fn build_tables() -> Tables {
    // Multiplicative inverse via exhaustive search (256^2 once, at init).
    let mut inv = [0u8; 256];
    for a in 1..=255u8 {
        for b in 1..=255u8 {
            if gf_mul(a, b) == 1 {
                inv[a as usize] = b;
                break;
            }
        }
    }
    let mut sbox = [0u8; 256];
    for (x, s) in sbox.iter_mut().enumerate() {
        let i = inv[x];
        // Affine transform: b ^ rotl(b,1) ^ rotl(b,2) ^ rotl(b,3) ^ rotl(b,4) ^ 0x63.
        let mut y = i;
        for r in 1..5 {
            y ^= i.rotate_left(r);
        }
        *s = y ^ 0x63;
    }
    let mut t = [[0u32; 256]; 4];
    for x in 0..256 {
        let s = sbox[x];
        let s2 = gf_mul(s, 2);
        let s3 = gf_mul(s, 3);
        let w = u32::from_be_bytes([s2, s, s, s3]);
        t[0][x] = w;
        t[1][x] = w.rotate_right(8);
        t[2][x] = w.rotate_right(16);
        t[3][x] = w.rotate_right(24);
    }
    let mut rcon = [0u8; 11];
    let mut c = 1u8;
    for r in rcon.iter_mut().skip(1) {
        *r = c;
        c = gf_mul(c, 2);
    }
    Tables { sbox, t, rcon }
}

fn tables() -> &'static Tables {
    static T: OnceLock<Tables> = OnceLock::new();
    T.get_or_init(build_tables)
}

/// Identifies which table a traced lookup hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TableRef {
    /// Round table T0..T3.
    T(u8),
    /// The S-box (final round).
    Sbox,
}

/// An AES-128 key schedule.
#[derive(Debug, Clone)]
pub struct Aes128 {
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expand a 128-bit key.
    pub fn new(key: [u8; 16]) -> Self {
        let tb = tables();
        let mut w = [0u32; 44];
        for i in 0..4 {
            w[i] = u32::from_be_bytes([
                key[4 * i],
                key[4 * i + 1],
                key[4 * i + 2],
                key[4 * i + 3],
            ]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                let rot = temp.rotate_left(8);
                let b = rot.to_be_bytes();
                temp = u32::from_be_bytes([
                    tb.sbox[b[0] as usize],
                    tb.sbox[b[1] as usize],
                    tb.sbox[b[2] as usize],
                    tb.sbox[b[3] as usize],
                ]) ^ ((tb.rcon[i / 4] as u32) << 24);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Aes128 { round_keys: w }
    }

    /// Encrypt one block (pure computation, no tracing).
    pub fn encrypt_block(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_block_traced(block, &mut |_, _| {})
    }

    /// Encrypt one block, reporting every table lookup to `trace`.
    ///
    /// Lookups are reported in execution order: 16 per main round
    /// (rounds 1..=9), then 16 S-box lookups in the final round.
    pub fn encrypt_block_traced(
        &self,
        block: [u8; 16],
        trace: &mut impl FnMut(TableRef, u8),
    ) -> [u8; 16] {
        let tb = tables();
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for i in 0..4 {
            s[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]) ^ rk[i];
        }
        for round in 1..10 {
            let mut n = [0u32; 4];
            for (i, nx) in n.iter_mut().enumerate() {
                let b0 = (s[i] >> 24) as u8;
                let b1 = (s[(i + 1) % 4] >> 16) as u8;
                let b2 = (s[(i + 2) % 4] >> 8) as u8;
                let b3 = s[(i + 3) % 4] as u8;
                trace(TableRef::T(0), b0);
                trace(TableRef::T(1), b1);
                trace(TableRef::T(2), b2);
                trace(TableRef::T(3), b3);
                *nx = tb.t[0][b0 as usize]
                    ^ tb.t[1][b1 as usize]
                    ^ tb.t[2][b2 as usize]
                    ^ tb.t[3][b3 as usize]
                    ^ rk[4 * round + i];
            }
            s = n;
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey (no MixColumns).
        let mut out = [0u8; 16];
        for i in 0..4 {
            let b0 = (s[i] >> 24) as u8;
            let b1 = (s[(i + 1) % 4] >> 16) as u8;
            let b2 = (s[(i + 2) % 4] >> 8) as u8;
            let b3 = s[(i + 3) % 4] as u8;
            for b in [b0, b1, b2, b3] {
                trace(TableRef::Sbox, b);
            }
            let w = u32::from_be_bytes([
                tb.sbox[b0 as usize],
                tb.sbox[b1 as usize],
                tb.sbox[b2 as usize],
                tb.sbox[b3 as usize],
            ]) ^ rk[40 + i];
            out[4 * i..4 * i + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// One 16-byte block of CTR-mode keystream: the encryption of
    /// `nonce ‖ counter` (both big-endian), reporting lookups to `trace`.
    pub fn ctr_block_traced(
        &self,
        nonce: u64,
        counter: u64,
        trace: &mut impl FnMut(TableRef, u8),
    ) -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..8].copy_from_slice(&nonce.to_be_bytes());
        block[8..].copy_from_slice(&counter.to_be_bytes());
        self.encrypt_block_traced(block, trace)
    }

    /// Generate `len` bytes of CTR-mode keystream for (`nonce`, starting
    /// `counter`), reporting lookups to `trace`.
    pub fn ctr_keystream_traced(
        &self,
        nonce: u64,
        mut counter: u64,
        len: usize,
        trace: &mut impl FnMut(TableRef, u8),
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let ks = self.ctr_block_traced(nonce, counter, trace);
            let take = (len - out.len()).min(16);
            out.extend_from_slice(&ks[..take]);
            counter = counter.wrapping_add(1);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn sbox_known_values() {
        let tb = tables();
        assert_eq!(tb.sbox[0x00], 0x63);
        assert_eq!(tb.sbox[0x01], 0x7c);
        assert_eq!(tb.sbox[0x53], 0xed);
        assert_eq!(tb.sbox[0xff], 0x16);
    }

    #[test]
    fn fips197_appendix_b() {
        let key: [u8; 16] = hex("2b7e151628aed2a6abf7158809cf4f3c").try_into().unwrap();
        let pt: [u8; 16] = hex("3243f6a8885a308d313198a2e0370734").try_into().unwrap();
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(pt).to_vec(), hex("3925841d02dc09fbdc118597196a0b32"));
    }

    #[test]
    fn fips197_appendix_c1() {
        let key: [u8; 16] = hex("000102030405060708090a0b0c0d0e0f").try_into().unwrap();
        let pt: [u8; 16] = hex("00112233445566778899aabbccddeeff").try_into().unwrap();
        let aes = Aes128::new(key);
        assert_eq!(aes.encrypt_block(pt).to_vec(), hex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn traced_matches_untraced_and_counts_lookups() {
        let aes = Aes128::new([7u8; 16]);
        let block = [0x42u8; 16];
        let mut lookups = 0u32;
        let traced = aes.encrypt_block_traced(block, &mut |_, _| lookups += 1);
        assert_eq!(traced, aes.encrypt_block(block));
        // 9 main rounds x 16 T-lookups + 16 S-box lookups.
        assert_eq!(lookups, 9 * 16 + 16);
    }

    #[test]
    fn ctr_keystream_is_deterministic_and_nonrepeating() {
        let aes = Aes128::new([1u8; 16]);
        let a = aes.ctr_keystream_traced(99, 0, 48, &mut |_, _| {});
        let b = aes.ctr_keystream_traced(99, 0, 48, &mut |_, _| {});
        assert_eq!(a, b);
        assert_ne!(&a[0..16], &a[16..32], "consecutive counter blocks must differ");
        let c = aes.ctr_keystream_traced(100, 0, 16, &mut |_, _| {});
        assert_ne!(&a[0..16], &c[..], "different nonces must differ");
    }

    #[test]
    fn ctr_roundtrip_encrypt_decrypt() {
        let aes = Aes128::new([9u8; 16]);
        let msg = b"attack at dawn, bring snacks!!!".to_vec();
        let ks = aes.ctr_keystream_traced(5, 0, msg.len(), &mut |_, _| {});
        let ct: Vec<u8> = msg.iter().zip(&ks).map(|(m, k)| m ^ k).collect();
        assert_ne!(ct, msg);
        let pt: Vec<u8> = ct.iter().zip(&ks).map(|(c, k)| c ^ k).collect();
        assert_eq!(pt, msg);
    }

    #[test]
    fn gf_mul_basics() {
        assert_eq!(gf_mul(0x57, 0x83), 0xc1); // FIPS-197 §4.2 example
        assert_eq!(gf_mul(0x57, 0x13), 0xfe);
        assert_eq!(gf_mul(1, 0xab), 0xab);
        assert_eq!(gf_mul(0, 0xab), 0);
    }
}
