//! The PRINCE low-latency 64-bit block cipher (Borghoff et al., ASIACRYPT
//! 2012).
//!
//! The RRS paper (§4.4) generates swap destinations with "a low-latency
//! cipher (64-bit PRINCE cipher has < 2ns latency) in CTR-mode", and its
//! Collision Avoidance Tables index with "independent hashes … constructed
//! using a low latency cipher with different keys" (§6.1, following MIRAGE).
//! This module is a complete software implementation of that cipher: the
//! full 12-round α-reflective construction with FX-style whitening.
//!
//! The implementation is validated against the published test vectors from
//! the PRINCE paper's appendix (see the tests).
//!
//! # Example
//!
//! ```
//! use rrs_core::prince::Prince;
//!
//! let cipher = Prince::new(0x0011_2233_4455_6677_8899_aabb_ccdd_eeff);
//! let ct = cipher.encrypt(42);
//! assert_eq!(cipher.decrypt(ct), 42);
//! ```

/// The PRINCE α constant (also the last round constant). The round
/// constants satisfy `RC[i] ^ RC[11-i] == ALPHA`, which gives the cipher its
/// reflection property: decryption equals encryption under a related key.
pub const ALPHA: u64 = 0xc0ac29b7c97c50dd;

/// Round constants `RC0..RC11` (digits of π).
const RC: [u64; 12] = [
    0x0000000000000000,
    0x13198a2e03707344,
    0xa4093822299f31d0,
    0x082efa98ec4e6c89,
    0x452821e638d01377,
    0xbe5466cf34e90c6c,
    0x7ef84f78fd955cb1,
    0x85840851f1ac43aa,
    0xc882d32f25323c54,
    0x64a51195e0e3610d,
    0xd3b5a399ca0c2399,
    0xc0ac29b7c97c50dd,
];

/// The PRINCE S-box.
const SBOX: [u8; 16] = [
    0xB, 0xF, 0x3, 0x2, 0xA, 0xC, 0x9, 0x1, 0x6, 0x7, 0x8, 0x0, 0xE, 0x5, 0xD, 0x4,
];

/// The inverse S-box.
const SBOX_INV: [u8; 16] = [
    0xB, 0x7, 0x3, 0x2, 0xF, 0xD, 0x8, 0x9, 0xA, 0x6, 0x4, 0x0, 0x5, 0xE, 0xC, 0x1,
];

/// ShiftRows nibble permutation: output nibble `i` (0 = most significant)
/// takes input nibble `SR[i]`, exactly the AES ShiftRows pattern on a 4×4
/// nibble matrix filled in row-major order.
const SR: [usize; 16] = [0, 5, 10, 15, 4, 9, 14, 3, 8, 13, 2, 7, 12, 1, 6, 11];

/// Inverse ShiftRows permutation.
const SR_INV: [usize; 16] = [0, 13, 10, 7, 4, 1, 14, 11, 8, 5, 2, 15, 12, 9, 6, 3];

/// Builds the 64 input-parity masks of the involutive `M'` matrix.
///
/// `M'` is block-diagonal: `diag(M̂0, M̂1, M̂1, M̂0)`, where each `M̂k` is a
/// 16×16 binary matrix assembled from the 4×4 blocks `m0..m3` (`mi` is the
/// identity with row `i` zeroed):
///
/// ```text
/// M̂0 = [m0 m1 m2 m3; m1 m2 m3 m0; m2 m3 m0 m1; m3 m0 m1 m2]
/// M̂1 = [m1 m2 m3 m0; m2 m3 m0 m1; m3 m0 m1 m2; m0 m1 m2 m3]
/// ```
///
/// Bit 0 in the spec is the most significant bit of the `u64`.
const fn build_m_prime_masks() -> [u64; 64] {
    let mut masks = [0u64; 64];
    let mut out = 0usize;
    while out < 64 {
        let chunk = out / 16; // which 16-bit chunk (0..4)
        let hat = if chunk == 0 || chunk == 3 { 0 } else { 1 };
        let r = out % 16; // row within the 16x16 M̂ matrix
        let block_row = r / 4; // which block row (0..4)
        let bit_in_block = r % 4; // row within the 4x4 m block
        let mut mask = 0u64;
        let mut block_col = 0usize;
        while block_col < 4 {
            // Block at (block_row, block_col) of M̂hat is m_{(block_row +
            // block_col + hat) mod 4}; m_k is identity-with-row-k-zeroed, so
            // it contributes input bit `bit_in_block` of the column group
            // unless k == bit_in_block.
            let k = (block_row + block_col + hat) % 4;
            if k != bit_in_block {
                let in_bit = chunk * 16 + block_col * 4 + bit_in_block;
                mask |= 1u64 << (63 - in_bit);
            }
            block_col += 1;
        }
        masks[out] = mask;
        out += 1;
    }
    masks
}

/// Precomputed parity masks for the `M'` layer.
const M_PRIME_MASKS: [u64; 64] = build_m_prime_masks();

/// Transpose of `M'`: `cols[i]` is the output pattern toggled when input
/// bit `i` (spec order, 0 = MSB) is set. Because `M'` is linear over GF(2),
/// `M'(x) = XOR of cols[i] over set bits of x`.
const fn build_m_prime_cols() -> [u64; 64] {
    let mut cols = [0u64; 64];
    let mut o = 0;
    while o < 64 {
        let mask = M_PRIME_MASKS[o];
        let mut i = 0;
        while i < 64 {
            if mask & (1u64 << (63 - i)) != 0 {
                cols[i] |= 1u64 << (63 - o);
            }
            i += 1;
        }
        o += 1;
    }
    cols
}

const M_PRIME_COLS: [u64; 64] = build_m_prime_cols();

/// Byte-indexed XOR tables: `M_PRIME_BYTES[b][v]` is the combined column
/// contribution of byte `b` (0 = most significant) holding value `v`.
const fn build_m_prime_bytes() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v: usize = 1;
        while v < 256 {
            let lsb = v & v.wrapping_neg();
            let rest = v ^ lsb;
            let k = lsb.trailing_zeros() as usize; // bit within the byte, 0 = LSB
            let i = b * 8 + (7 - k); // spec bit index
            t[b][v] = t[b][rest] ^ M_PRIME_COLS[i];
            v += 1;
        }
        b += 1;
    }
    t
}

const M_PRIME_BYTES: [[u64; 256]; 8] = build_m_prime_bytes();

/// Byte-level S-box tables (two nibbles per lookup).
const fn build_sbox_bytes(sbox: &[u8; 16]) -> [u8; 256] {
    let mut t = [0u8; 256];
    let mut v = 0;
    while v < 256 {
        t[v] = (sbox[v >> 4] << 4) | sbox[v & 0xF];
        v += 1;
    }
    t
}

const SBOX_BYTES: [u8; 256] = build_sbox_bytes(&SBOX);
const SBOX_INV_BYTES: [u8; 256] = build_sbox_bytes(&SBOX_INV);

#[inline]
#[expect(clippy::indexing_slicing, reason = "u8 index into a 256-entry table")]
fn apply_sbox_bytes(state: u64, table: &[u8; 256]) -> u64 {
    state
        .to_be_bytes()
        .into_iter()
        .fold(0u64, |out, b| (out << 8) | u64::from(table[b as usize]))
}

/// Const-evaluable `M'` (XOR of output columns over set input bits); the
/// runtime path uses the byte tables, this exists to build fused tables.
const fn m_prime_const(x: u64) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 64 {
        if x & (1u64 << (63 - i)) != 0 {
            out ^= M_PRIME_COLS[i];
        }
        i += 1;
    }
    out
}

/// Const-evaluable nibble permutation (same semantics as the former
/// runtime `permute_nibbles`, retained in the tests for cross-checking).
const fn permute_nibbles_const(state: u64, perm: &[usize; 16]) -> u64 {
    let mut out = 0u64;
    let mut i = 0;
    while i < 16 {
        let nib = (state >> (60 - 4 * perm[i])) & 0xF;
        out |= nib << (60 - 4 * i);
        i += 1;
    }
    out
}

/// Fused forward-round tables: `T_FWD[b][v]` is `SR(M'(S(v at byte b)))`.
/// The S-box is byte-local and `M'`/`SR` are linear over GF(2), so a full
/// forward round body is the XOR of eight lookups instead of three passes.
const fn build_round_fwd() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 256 {
            t[b][v] = permute_nibbles_const(M_PRIME_BYTES[b][SBOX_BYTES[v] as usize], &SR);
            v += 1;
        }
        b += 1;
    }
    t
}

const T_FWD: [[u64; 256]; 8] = build_round_fwd();

/// Fused backward-round linear tables: `T_BWD[b][v]` is
/// `M'(SR⁻¹(v at byte b))`. A backward round's inverse S-box is byte-local,
/// so [`backward_round`] applies it inside the next round's lookups.
const fn build_round_bwd() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 256 {
            let placed = (v as u64) << ((7 - b) * 8);
            t[b][v] = m_prime_const(permute_nibbles_const(placed, &SR_INV));
            v += 1;
        }
        b += 1;
    }
    t
}

const T_BWD: [[u64; 256]; 8] = build_round_bwd();

/// Fused middle-layer tables: `T_MID[b][v]` is `M'(S(v at byte b))` — the
/// composition of the byte S-box and the `M'` byte tables.
const fn build_round_mid() -> [[u64; 256]; 8] {
    let mut t = [[0u64; 256]; 8];
    let mut b = 0;
    while b < 8 {
        let mut v = 0;
        while v < 256 {
            t[b][v] = M_PRIME_BYTES[b][SBOX_BYTES[v] as usize];
            v += 1;
        }
        b += 1;
    }
    t
}

const T_MID: [[u64; 256]; 8] = build_round_mid();

/// XORs the eight per-byte table lookups for `state` — the linear part of
/// one fused round.
#[inline]
fn fused_round(state: u64, tables: &[[u64; 256]; 8]) -> u64 {
    let mut out = 0u64;
    for (table, byte) in tables.iter().zip(state.to_be_bytes()) {
        // A u8 index into a 256-entry table is always in bounds, so the
        // `.get` never misses and the fallback is unreachable.
        out ^= table.get(usize::from(byte)).copied().unwrap_or(0);
    }
    out
}

/// One backward round on the state `y` before its inverse S-box:
/// `T_BWD(S⁻¹(y) ^ rk)`. `S⁻¹` and the key are byte-local, so each byte is
/// substituted and keyed inside its own lookup (`T_BWD[b][S⁻¹(y_b) ^ k_b]`),
/// and no serial byte reassembly runs between rounds.
#[inline]
#[expect(clippy::indexing_slicing, reason = "u8 indices into 256-entry tables")]
fn backward_round(y: u64, rk: u64) -> u64 {
    let mut out = 0u64;
    for ((table, byte), k) in T_BWD.iter().zip(y.to_be_bytes()).zip(rk.to_be_bytes()) {
        out ^= table[usize::from(SBOX_INV_BYTES[usize::from(byte)] ^ k)];
    }
    out
}

/// The PRINCE block cipher with a fixed 128-bit key.
///
/// The per-round keys `RC[i] ^ k1` are expanded once at construction
/// (`rks`), so the per-block work is pure table lookups and XORs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Prince {
    k0: u64,
    k0_prime: u64,
    k1: u64,
    rks: [u64; 12],
}

impl Prince {
    /// Creates a cipher from a 128-bit key `k0 || k1` (`k0` in the high
    /// 64 bits, per the PRINCE paper's key expansion).
    pub fn new(key: u128) -> Self {
        let k0 = (key >> 64) as u64;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "k1 is the low 64 bits of the key"
        )]
        let k1 = key as u64;
        Self::from_parts(k0, k0.rotate_right(1) ^ (k0 >> 63), k1)
    }

    /// Builds a cipher from explicit subkeys, expanding the round-key
    /// schedule. `new` and the α-reflected cipher in `decrypt` both funnel
    /// through here.
    fn from_parts(k0: u64, k0_prime: u64, k1: u64) -> Self {
        let mut rks = [0u64; 12];
        for (rk, rc) in rks.iter_mut().zip(RC) {
            *rk = rc ^ k1;
        }
        Prince {
            k0,
            k0_prime,
            k1,
            rks,
        }
    }

    /// The whitening keys and core key `(k0, k0', k1)`.
    pub fn subkeys(&self) -> (u64, u64, u64) {
        (self.k0, self.k0_prime, self.k1)
    }

    /// Encrypts one 64-bit block: the one-lane case of
    /// [`Prince::encrypt_lanes`].
    #[inline]
    pub fn encrypt(&self, plaintext: u64) -> u64 {
        let [ciphertext] = Self::encrypt_lanes([(self, plaintext)]);
        ciphertext
    }

    /// Encrypts `N` independent `(cipher, block)` lanes, round by round.
    ///
    /// Each lane equals `cipher.encrypt(block)`. Running the lanes side by
    /// side lets their table lookups overlap, the software counterpart of
    /// the pipelined hardware cipher (§4.4): the CTR keystream encrypts
    /// eight counters at once and a CAT hashes one tag under both keys.
    ///
    /// Round schedule: five fused forward rounds, the middle layer, five
    /// backward rounds and the output whitening. From the middle layer on,
    /// the state is kept before its inverse S-box, which each backward
    /// round applies inside its lookups, so the serial `S⁻¹` byte pass runs
    /// once per block, before the whitening.
    #[inline]
    pub fn encrypt_lanes<const N: usize>(lanes: [(&Prince, u64); N]) -> [u64; N] {
        let mut s = lanes.map(|(c, block)| block ^ c.k0 ^ c.rks[0]);
        for round in 1..6 {
            for (x, (c, _)) in s.iter_mut().zip(&lanes) {
                *x = fused_round(*x, &T_FWD) ^ c.round_key(round);
            }
        }
        for x in &mut s {
            *x = fused_round(*x, &T_MID);
        }
        for round in 6..11 {
            for (x, (c, _)) in s.iter_mut().zip(&lanes) {
                *x = backward_round(*x, c.round_key(round));
            }
        }
        for (x, (c, _)) in s.iter_mut().zip(&lanes) {
            *x = apply_sbox_bytes(*x, &SBOX_INV_BYTES) ^ c.rks[11] ^ c.k0_prime;
        }
        s
    }

    /// Round key `round` (`RC[round] ^ k1`); the rounds `encrypt_lanes`
    /// asks for are all below 12, so the fallback is unreachable.
    #[inline]
    fn round_key(&self, round: usize) -> u64 {
        self.rks.get(round).copied().unwrap_or(0)
    }

    /// Decrypts one 64-bit block.
    ///
    /// Uses the α-reflection property: `D(k0, k0', k1) = E(k0', k0, k1 ^ α)`.
    pub fn decrypt(&self, ciphertext: u64) -> u64 {
        Self::from_parts(self.k0_prime, self.k0, self.k1 ^ ALPHA).encrypt(ciphertext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference `M'` straight off the byte tables (the fused tables are
    /// checked against this below).
    fn m_prime(state: u64) -> u64 {
        let mut out = 0u64;
        for (table, byte) in M_PRIME_BYTES.iter().zip(state.to_be_bytes()) {
            out ^= table[byte as usize];
        }
        out
    }

    /// Reference nibble-at-a-time S-box layer.
    fn apply_sbox(state: u64, sbox: &[u8; 16]) -> u64 {
        let mut out = 0u64;
        for i in 0..16 {
            let nib = ((state >> (60 - 4 * i)) & 0xF) as usize;
            out |= (sbox[nib] as u64) << (60 - 4 * i);
        }
        out
    }

    /// Reference runtime nibble permutation.
    fn permute_nibbles(state: u64, perm: &[usize; 16]) -> u64 {
        let mut out = 0u64;
        for (i, &src) in perm.iter().enumerate() {
            let nib = (state >> (60 - 4 * src)) & 0xF;
            out |= nib << (60 - 4 * i);
        }
        out
    }

    /// Test vectors from the PRINCE paper (Borghoff et al. 2012, Appendix A).
    const VECTORS: &[(u64, u64, u64, u64)] = &[
        // (k0, k1, plaintext, ciphertext)
        (0, 0, 0, 0x818665aa0d02dfda),
        (0, 0, 0xffffffffffffffff, 0x604ae6ca03c20ada),
        (0xffffffffffffffff, 0, 0, 0x9fb51935fc3df524),
        (0, 0xffffffffffffffff, 0, 0x78a54cbe737bb7ef),
        (
            0,
            0xfedcba9876543210,
            0x0123456789abcdef,
            0xae25ad3ca8fa9ccf,
        ),
    ];

    fn cipher(k0: u64, k1: u64) -> Prince {
        Prince::new(((k0 as u128) << 64) | k1 as u128)
    }

    #[test]
    fn published_test_vectors() {
        for &(k0, k1, pt, ct) in VECTORS {
            let c = cipher(k0, k1);
            assert_eq!(
                c.encrypt(pt),
                ct,
                "encrypt failed for k0={k0:016x} k1={k1:016x} pt={pt:016x}"
            );
        }
    }

    /// The cipher round by round from the unfused reference layers: each
    /// forward round is S, `M'`, SR and the round key; the middle layer is
    /// S, `M'`, S⁻¹; each backward round is the round key, SR⁻¹, `M'`, S⁻¹.
    fn reference_encrypt(c: &Prince, plaintext: u64) -> u64 {
        let mut s = plaintext ^ c.k0 ^ c.rks[0];
        for rk in &c.rks[1..6] {
            s = permute_nibbles(m_prime(apply_sbox(s, &SBOX)), &SR) ^ rk;
        }
        s = apply_sbox(m_prime(apply_sbox(s, &SBOX)), &SBOX_INV);
        for rk in &c.rks[6..11] {
            s = apply_sbox(m_prime(permute_nibbles(s ^ rk, &SR_INV)), &SBOX_INV);
        }
        s ^ c.rks[11] ^ c.k0_prime
    }

    #[test]
    fn lanes_match_per_block_encrypt_on_vectors() {
        let ciphers: Vec<Prince> = VECTORS.iter().map(|&(k0, k1, ..)| cipher(k0, k1)).collect();
        let lanes: [(&Prince, u64); 5] = std::array::from_fn(|i| (&ciphers[i], VECTORS[i].2));
        let expected: [u64; 5] = std::array::from_fn(|i| VECTORS[i].3);
        assert_eq!(Prince::encrypt_lanes(lanes), expected);
        for (c, &(_, _, pt, ct)) in ciphers.iter().zip(VECTORS) {
            assert_eq!(Prince::encrypt_lanes([(c, pt)]), [ct]);
            assert_eq!(reference_encrypt(c, pt), ct);
        }
    }

    /// `N` lanes under independent random keys and blocks equal `N`
    /// one-block encryptions, and both equal the round-by-round reference.
    fn check_random_lanes<const N: usize>(seed: u64) {
        let mut x = seed;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x
        };
        for _ in 0..200 {
            let ciphers: [Prince; N] =
                std::array::from_fn(|_| Prince::new(u128::from(next()) << 64 | u128::from(next())));
            let blocks: [u64; N] = std::array::from_fn(|_| next());
            let lanes: [(&Prince, u64); N] = std::array::from_fn(|i| (&ciphers[i], blocks[i]));
            let got = Prince::encrypt_lanes(lanes);
            for i in 0..N {
                assert_eq!(got[i], ciphers[i].encrypt(blocks[i]), "lane {i} of {N}");
                assert_eq!(got[i], reference_encrypt(&ciphers[i], blocks[i]));
            }
        }
    }

    #[test]
    fn lanes_match_per_block_encrypt_on_random_keys() {
        check_random_lanes::<1>(1);
        check_random_lanes::<2>(2);
        check_random_lanes::<8>(8);
    }

    #[test]
    fn lanes_sharing_one_cipher_match_per_block_encrypt() {
        let c = Prince::new(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        let blocks: [u64; 8] = std::array::from_fn(|i| 1000 + i as u64);
        let got = Prince::encrypt_lanes(blocks.map(|b| (&c, b)));
        assert_eq!(got, blocks.map(|b| c.encrypt(b)));
    }

    #[test]
    fn decrypt_inverts_encrypt_on_vectors() {
        for &(k0, k1, pt, ct) in VECTORS {
            let c = cipher(k0, k1);
            assert_eq!(c.decrypt(ct), pt);
        }
    }

    #[test]
    fn round_trip_random_blocks() {
        let c = Prince::new(0xdeadbeef_cafebabe_01234567_89abcdef);
        let mut x = 0x1234_5678_9abc_def0u64;
        for _ in 0..1000 {
            // Cheap LCG to vary inputs.
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            assert_eq!(c.decrypt(c.encrypt(x)), x);
        }
    }

    #[test]
    fn m_prime_is_involution() {
        let mut x = 7u64;
        for _ in 0..200 {
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(13);
            assert_eq!(m_prime(m_prime(x)), x);
        }
    }

    #[test]
    fn const_helpers_match_reference() {
        let mut x = 3u64;
        for _ in 0..200 {
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(17);
            assert_eq!(m_prime_const(x), m_prime(x));
            assert_eq!(permute_nibbles_const(x, &SR), permute_nibbles(x, &SR));
            assert_eq!(
                permute_nibbles_const(x, &SR_INV),
                permute_nibbles(x, &SR_INV)
            );
        }
    }

    #[test]
    fn fused_rounds_match_unfused_composition() {
        let mut s = 0x0123_4567_89ab_cdefu64;
        for _ in 0..500 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            // Forward round body: S → M' → SR.
            let fwd = permute_nibbles(m_prime(apply_sbox(s, &SBOX)), &SR);
            assert_eq!(fused_round(s, &T_FWD), fwd, "forward round at {s:016x}");
            // Backward round linear part: SR⁻¹ → M' (S⁻¹ applied after).
            let bwd = m_prime(permute_nibbles(s, &SR_INV));
            assert_eq!(fused_round(s, &T_BWD), bwd, "backward round at {s:016x}");
            // Middle layer: S → M' (S⁻¹ applied after).
            let mid = m_prime(apply_sbox(s, &SBOX));
            assert_eq!(fused_round(s, &T_MID), mid, "middle layer at {s:016x}");
        }
    }

    #[test]
    fn shift_rows_permutations_are_inverse() {
        for i in 0..16 {
            assert_eq!(SR_INV[SR[i]], i);
            assert_eq!(SR[SR_INV[i]], i);
        }
    }

    #[test]
    fn sboxes_are_inverse() {
        for i in 0..16u8 {
            assert_eq!(SBOX_INV[SBOX[i as usize] as usize], i);
        }
    }

    #[test]
    fn round_constants_satisfy_alpha_reflection() {
        for i in 0..12 {
            assert_eq!(RC[i] ^ RC[11 - i], ALPHA);
        }
    }

    #[test]
    fn different_keys_give_different_ciphertexts() {
        let a = Prince::new(1);
        let b = Prince::new(2);
        assert_ne!(a.encrypt(0), b.encrypt(0));
    }

    #[test]
    fn encryption_diffuses_single_bit_flips() {
        // Flipping any single input bit should change roughly half the
        // output bits (avalanche); require at least 16 of 64 for all bits.
        let c = Prince::new(0x0f0e0d0c0b0a0908_0706050403020100);
        let base = c.encrypt(0x0123456789abcdef);
        for bit in 0..64 {
            let flipped = c.encrypt(0x0123456789abcdef ^ (1u64 << bit));
            let dist = (base ^ flipped).count_ones();
            assert!(dist >= 16, "bit {bit}: hamming distance only {dist}");
        }
    }
}
