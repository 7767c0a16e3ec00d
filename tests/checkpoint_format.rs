//! The checkpoint checksum, pinned like a kernel: format version 4 is
//! *defined* by `checkpoint::checksum` (see the module docs of
//! `crates/engine/src/checkpoint.rs`), so an independent byte-at-a-time
//! reference, known answers and the corruption classes it must catch are
//! fixed here. A change that moves any of these is a new format version.

use dapple::engine::checkpoint::checksum;

const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The definition, one byte at a time: words are assembled here, by shift,
/// and lanes are indexed, so nothing but the constants is shared with the
/// implementation's chunked little-endian loads.
fn reference(bytes: &[u8]) -> u64 {
    let mut lanes = [0u64; 8];
    for (i, lane) in lanes.iter_mut().enumerate() {
        *lane = BASIS ^ i as u64;
    }
    let whole = bytes.len() / 64 * 64;
    let mut word = 0u64;
    for (i, &b) in bytes[..whole].iter().enumerate() {
        word |= u64::from(b) << (8 * (i % 8));
        if i % 8 == 7 {
            let lane = &mut lanes[i / 8 % 8];
            *lane = (*lane ^ word).wrapping_mul(PRIME);
            word = 0;
        }
    }
    let mut h = BASIS ^ bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(PRIME);
    }
    for &b in &bytes[whole..] {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Seeded bytes with no structure a lane layout could hide behind.
fn seeded(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as u8
        })
        .collect()
}

#[test]
fn lane_sum_matches_the_bytewise_reference() {
    let bytes = seeded(200, 1);
    for len in 0..=bytes.len() {
        assert_eq!(checksum(&bytes[..len]), reference(&bytes[..len]), "{len}");
    }
    let mib = seeded(1 << 20, 2);
    assert_eq!(checksum(&mib), reference(&mib));
    // One byte short of, and past, a whole number of blocks.
    assert_eq!(
        checksum(&mib[..mib.len() - 1]),
        reference(&mib[..mib.len() - 1])
    );
    assert_eq!(checksum(&mib[1..]), reference(&mib[1..]));
}

/// Known answers over `byte[i] = 7 i + 3 (mod 256)`, computed by a third
/// implementation (Python integers) when the format was fixed.
#[test]
fn known_answers() {
    const KNOWN: [(usize, u64); 7] = [
        (0, 0xfb9e_9355_ec3e_5b75),
        (1, 0x4b2e_d10e_19be_7da5),
        (7, 0xe21e_ff51_99d8_c0c2),
        (8, 0xe885_2144_459f_f5cd),
        (63, 0x1ece_f695_c5e9_3c0a),
        (64, 0x8bde_f5b8_e362_5e5d),
        (65, 0xd303_9075_e550_2185),
    ];
    for (len, want) in KNOWN {
        let bytes: Vec<u8> = (0..len).map(|i| (i * 7 + 3) as u8).collect();
        assert_eq!(checksum(&bytes), want, "length {len}");
    }
}

/// On a 4 KiB record plus a ragged tail: every single-bit flip, every
/// swap of two adjacent words, every swap of two blocks and every
/// exchange of two lanes' words within a block changes the sum. The first
/// holds by construction for any record; the rest — changes that touch
/// two lanes or more — are pinned for this one.
#[test]
fn every_flip_and_every_reordering_changes_the_sum() {
    let record = seeded(4096 + 37, 3);
    let sum = checksum(&record);
    let mut bad = record.clone();
    for bit in 0..record.len() * 8 {
        bad[bit / 8] ^= 1 << (bit % 8);
        assert_ne!(checksum(&bad), sum, "flip of bit {bit}");
        bad[bit / 8] ^= 1 << (bit % 8);
    }
    assert_eq!(bad, record);

    let swapped = |a: usize, b: usize, len: usize| {
        let mut bad = record.clone();
        for i in 0..len {
            bad.swap(a + i, b + i);
        }
        assert_ne!(bad, record, "seeded words are distinct");
        checksum(&bad)
    };
    for word in 0..4096 / 8 - 1 {
        assert_ne!(swapped(8 * word, 8 * word + 8, 8), sum, "words {word}, +1");
    }
    for a in 0..4096 / 64 {
        for b in a + 1..4096 / 64 {
            assert_ne!(swapped(64 * a, 64 * b, 64), sum, "blocks {a} and {b}");
        }
        for i in 0..8 {
            for j in i + 1..8 {
                let (wi, wj) = (64 * a + 8 * i, 64 * a + 8 * j);
                assert_ne!(swapped(wi, wj, 8), sum, "block {a}, lanes {i} and {j}");
            }
        }
    }
}
