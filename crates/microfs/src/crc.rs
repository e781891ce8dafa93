//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the integrity
//! check for log records, snapshots, the superblock, NVMf capsules and
//! mirror manifests. Implemented in-tree to keep the workspace within the
//! approved dependency set.
//!
//! **Kernel: slicing-by-16.** [`crc32_update`] consumes 16 input bytes per
//! step through 16 lookup tables, where table `k` holds the CRC
//! contribution of a byte followed by `k` zero bytes. The 16 lookups of a
//! step are independent loads XOR-ed together, so only one table lookup
//! per 16 bytes sits on the serial dependency chain through the CRC
//! register, against one per byte in the classic bytewise loop (kept only
//! as a test oracle). The tables are built at compile time.
//!
//! **Shift: one operator per set bit.** Advancing a CRC state through `n`
//! zero bytes is linear over GF(2). `SHIFT_OPS` holds the 32×32 bit
//! matrices advancing `2^k` zero bytes for every `k < 64`, squared out once
//! at compile time, so [`crc32_shift`] and [`crc32_concat`] cost one
//! matrix-vector product per set bit of `n` — tens of nanoseconds for a
//! power-of-two length, about a microsecond for 40 set bits, where
//! rescanning 64 KiB takes tens of microseconds. That is what makes the
//! pre-CRC capsule encode and extent-map merges worth taking.
//!
//! **No carry-less multiply.** A CLMUL / ARMv8 CRC kernel would run faster
//! still, but reaching it from Rust needs `std::arch` intrinsics behind
//! runtime feature detection, i.e. `unsafe`, and every library crate of
//! the workspace forbids `unsafe` code.

/// Reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[k][b]`: the CRC-register contribution of byte `b` followed by
/// `k` zero bytes. `TABLES[0]` is the classic bytewise table.
static TABLES: [[u32; 256]; 16] = build_tables();

const fn build_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32 of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming update: feed `state` (start from `0xFFFF_FFFF`, finish by
/// XOR-ing with `0xFFFF_FFFF`).
pub fn crc32_update(state: u32, data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = state;
    let blocks = data.chunks_exact(16);
    let tail = blocks.remainder();
    for b in blocks {
        let b: &[u8; 16] = b.try_into().expect("chunks_exact yields 16 bytes");
        // The register folds into the first four bytes; each byte's
        // contribution is then read from the table for the number of
        // bytes still following it in the block.
        let a = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(a & 0xFF) as usize]
            ^ t[14][((a >> 8) & 0xFF) as usize]
            ^ t[13][((a >> 16) & 0xFF) as usize]
            ^ t[12][(a >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &byte in tail {
        c = t[0][((c ^ u32::from(byte)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Multiply the GF(2) matrix `mat` by the bit-vector `vec`.
const fn gf2_matrix_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// The GF(2) operator `mat` applied twice.
const fn gf2_matrix_square(mat: &[u32; 32]) -> [u32; 32] {
    let mut sq = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        sq[n] = gf2_matrix_times(mat, mat[n]);
        n += 1;
    }
    sq
}

/// Operator advancing a CRC state through one zero *bit*.
const fn zero_bit_op() -> [u32; 32] {
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut n = 1;
    while n < 32 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    op
}

/// `SHIFT_OPS[k]`: the operator advancing a CRC state through `2^k` zero
/// bytes.
static SHIFT_OPS: [[u32; 32]; 64] = build_shift_ops();

const fn build_shift_ops() -> [[u32; 32]; 64] {
    let mut ops = [[0u32; 32]; 64];
    // One zero byte is the one-bit operator squared three times.
    let two_bits = gf2_matrix_square(&zero_bit_op());
    let four_bits = gf2_matrix_square(&two_bits);
    ops[0] = gf2_matrix_square(&four_bits);
    let mut k = 1;
    while k < 64 {
        ops[k] = gf2_matrix_square(&ops[k - 1]);
        k += 1;
    }
    ops
}

/// Advance a CRC `state` (the streaming form of [`crc32_update`]) through
/// `len` zero bytes: the zlib `crc32_combine` trick, with the per-zero-byte
/// update applied as a 32×32 GF(2) matrix raised to the `len`-th power.
/// The powers `2^k` come precomputed from `SHIFT_OPS`, so the cost is one
/// matrix-vector product per set bit of `len`.
pub fn crc32_shift(state: u32, len: u64) -> u32 {
    let mut crc = state;
    let mut rest = len;
    while rest != 0 && crc != 0 {
        let k = rest.trailing_zeros() as usize;
        crc = gf2_matrix_times(&SHIFT_OPS[k], crc);
        rest &= rest - 1;
    }
    crc
}

/// CRC-32 of the concatenation `a ‖ b` from the two pieces' checksums:
/// `crc32(a ‖ b) = crc32_shift(crc32(a), len_b) ^ crc32(b)`. Lets callers
/// checksum each payload once and still derive checksums of merged
/// extents without re-reading the bytes.
pub fn crc32_concat(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    crc32_shift(crc_a, len_b) ^ crc_b
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The classic one-byte-per-step loop: the oracle the slicing kernel
    /// must agree with bit for bit.
    fn crc32_update_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        c
    }

    /// The previous `crc32_shift`: squares the operator afresh on every
    /// call, consuming `len` one bit at a time. Oracle for the table-driven
    /// shift.
    fn crc32_shift_squaring(state: u32, mut len: u64) -> u32 {
        if len == 0 || state == 0 {
            return state;
        }
        let mut odd = gf2_matrix_square(&gf2_matrix_square(&zero_bit_op()));
        let mut even;
        let mut crc = state;
        loop {
            even = gf2_matrix_square(&odd);
            if len & 1 != 0 {
                crc = gf2_matrix_times(&even, crc);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
            odd = gf2_matrix_square(&even);
            if len & 1 != 0 {
                crc = gf2_matrix_times(&odd, crc);
            }
            len >>= 1;
            if len == 0 {
                break;
            }
        }
        crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32 check values.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"metadata provenance log record";
        let split = 10;
        let mut st = 0xFFFF_FFFFu32;
        st = crc32_update(st, &data[..split]);
        st = crc32_update(st, &data[split..]);
        assert_eq!(st ^ 0xFFFF_FFFF, crc32(data));
    }

    #[test]
    fn shift_matches_feeding_zero_bytes() {
        for len in [0u64, 1, 2, 7, 8, 63, 64, 255, 4096] {
            let state = crc32_update(0xFFFF_FFFF, b"seed bytes");
            let zeros = vec![0u8; len as usize];
            assert_eq!(
                crc32_shift(state, len),
                crc32_update(state, &zeros),
                "len {len}"
            );
        }
    }

    #[test]
    fn shift_matches_squaring_at_every_power_of_two() {
        let state = crc32(b"power of two");
        for k in 0..64 {
            let len = 1u64 << k;
            assert_eq!(
                crc32_shift(state, len),
                crc32_shift_squaring(state, len),
                "2^{k}"
            );
        }
        assert_eq!(
            crc32_shift(state, u64::MAX),
            crc32_shift_squaring(state, u64::MAX)
        );
    }

    #[test]
    fn concat_matches_one_shot() {
        let a = b"first extent contents";
        let b = b"and the adjacent one";
        let mut joined = a.to_vec();
        joined.extend_from_slice(b);
        assert_eq!(
            crc32_concat(crc32(a), crc32(b), b.len() as u64),
            crc32(&joined)
        );
    }

    proptest! {
        /// The slicing kernel equals the bytewise oracle for any length,
        /// start state and (unaligned) start offset.
        #[test]
        fn prop_slicing_equals_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..4096 + 16),
            state in any::<u32>(),
            start in 0usize..16,
            len_seed in any::<u64>(),
        ) {
            let start = start.min(data.len());
            let len = (len_seed as usize) % (data.len() - start + 1);
            let slice = &data[start..start + len];
            prop_assert_eq!(crc32_update(state, slice), crc32_update_bytewise(state, slice));
        }

        /// The table-driven shift equals the squaring loop for lengths up
        /// to 2^40 and any state.
        #[test]
        fn prop_shift_equals_squaring(state in any::<u32>(), len in 0u64..(1 << 40)) {
            prop_assert_eq!(crc32_shift(state, len), crc32_shift_squaring(state, len));
        }

        /// Shifting a state through `n` zero bytes equals feeding them.
        #[test]
        fn prop_shift_equals_zero_feed(
            seed in proptest::collection::vec(any::<u8>(), 0..64),
            len in 0u64..2048,
        ) {
            let state = crc32_update(0xFFFF_FFFF, &seed);
            let zeros = vec![0u8; len as usize];
            prop_assert_eq!(crc32_shift(state, len), crc32_update(state, &zeros));
        }

        /// Concatenation identity over arbitrary splits.
        #[test]
        fn prop_concat_equals_one_shot(
            a in proptest::collection::vec(any::<u8>(), 0..512),
            b in proptest::collection::vec(any::<u8>(), 0..512),
        ) {
            let mut joined = a.clone();
            joined.extend_from_slice(&b);
            prop_assert_eq!(
                crc32_concat(crc32(&a), crc32(&b), b.len() as u64),
                crc32(&joined)
            );
        }

        /// Any single-bit flip changes the checksum.
        #[test]
        fn prop_detects_bit_flips(
            mut data in proptest::collection::vec(any::<u8>(), 1..256),
            bit in 0usize..8,
            idx_seed in any::<u64>(),
        ) {
            let original = crc32(&data);
            let idx = (idx_seed as usize) % data.len();
            data[idx] ^= 1 << bit;
            prop_assert_ne!(crc32(&data), original);
        }
    }
}
