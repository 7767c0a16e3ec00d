//! A real ring all-reduce over OS threads.
//!
//! This is the executable counterpart of [`crate::cost::allreduce_us`]: the
//! CPU training engine uses it to synchronize gradients across stage
//! replicas, exactly as NCCL would across GPUs. The algorithm is the
//! canonical two-phase ring: a reduce-scatter (each rank ends up owning the
//! fully-reduced chunk `rank`) followed by an all-gather.
//!
//! Buffers of any length are supported, including lengths smaller than the
//! rank count (chunks may be empty).
//!
//! Ranks that share an address space need none of the message passing:
//! [`reduce_sum_in_place`] adds the buffers where they lie, in the ring's
//! exact per-chunk rank order, so its result is bit-identical to
//! [`allreduce_sum`]'s. The engine syncs replicated stages with it; the
//! ring stays as the executable reference it is pinned against.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

/// Chunk boundaries: splits `len` into `n` nearly-even ranges.
fn chunk_bounds(len: usize, n: usize) -> Vec<std::ops::Range<usize>> {
    let base = len / n;
    let extra = len % n;
    let mut out = Vec::with_capacity(n);
    let mut start = 0;
    for i in 0..n {
        let sz = base + usize::from(i < extra);
        out.push(start..start + sz);
        start += sz;
    }
    out
}

/// In-place ring all-reduce (sum) across all buffers.
///
/// On return every buffer contains the element-wise sum of all inputs.
/// Buffers must share a common length.
///
/// ```
/// let mut grads = vec![vec![1.0_f32, 2.0], vec![10.0, 20.0], vec![100.0, 200.0]];
/// dapple_collectives::allreduce_sum(&mut grads);
/// assert_eq!(grads[0], vec![111.0, 222.0]);
/// assert_eq!(grads[2], vec![111.0, 222.0]);
/// ```
///
/// # Panics
///
/// Panics when buffers have differing lengths.
pub fn allreduce_sum(buffers: &mut [Vec<f32>]) {
    let n = buffers.len();
    if n <= 1 {
        return;
    }
    let len = buffers[0].len();
    assert!(
        buffers.iter().all(|b| b.len() == len),
        "allreduce buffers must share a length"
    );
    if len == 0 {
        return;
    }

    let bounds = chunk_bounds(len, n);

    // Ring channels: rank i sends to (i + 1) % n.
    let mut senders: Vec<Option<SyncSender<Vec<f32>>>> = Vec::with_capacity(n);
    let mut receivers: Vec<Option<Receiver<Vec<f32>>>> = (0..n).map(|_| None).collect();
    for i in 0..n {
        let (tx, rx) = sync_channel::<Vec<f32>>(1);
        senders.push(Some(tx));
        receivers[(i + 1) % n] = Some(rx);
    }

    std::thread::scope(|scope| {
        for (rank, buf) in buffers.iter_mut().enumerate() {
            let tx = senders[rank].take().expect("sender wired once");
            let rx = receivers[rank].take().expect("receiver wired once");
            let bounds = bounds.clone();
            scope.spawn(move || {
                // One scratch buffer per rank that circulates ownership
                // around the ring: each step loads the outgoing chunk
                // into the local scratch, sends the `Vec` itself, and
                // adopts the neighbor's incoming buffer as the next
                // step's scratch. Capacity is the largest chunk (chunk
                // sizes differ by at most one), so none of the 2(n-1)
                // steps reallocates — one allocation per rank total,
                // instead of one per step.
                let max_chunk = bounds.iter().map(std::ops::Range::len).max().unwrap_or(0);
                let mut scratch: Vec<f32> = Vec::with_capacity(max_chunk);
                // Phase 1: reduce-scatter. In step s, rank r sends chunk
                // (r - s) and accumulates incoming chunk (r - s - 1).
                for s in 0..n - 1 {
                    let send_idx = (rank + n - s) % n;
                    let recv_idx = (rank + n - s - 1) % n;
                    scratch.clear();
                    scratch.extend_from_slice(&buf[bounds[send_idx].clone()]);
                    tx.send(scratch).expect("ring peer alive");
                    let incoming = rx.recv().expect("ring peer alive");
                    for (dst, src) in buf[bounds[recv_idx].clone()].iter_mut().zip(&incoming) {
                        *dst += *src;
                    }
                    scratch = incoming;
                }
                // Phase 2: all-gather. Rank r owns chunk (r + 1); in step s
                // it sends chunk (r + 1 - s) and installs chunk (r - s).
                for s in 0..n - 1 {
                    let send_idx = (rank + 1 + n - s) % n;
                    let recv_idx = (rank + n - s) % n;
                    scratch.clear();
                    scratch.extend_from_slice(&buf[bounds[send_idx].clone()]);
                    tx.send(scratch).expect("ring peer alive");
                    let incoming = rx.recv().expect("ring peer alive");
                    buf[bounds[recv_idx].clone()].copy_from_slice(&incoming);
                    scratch = incoming;
                }
            });
        }
    });
}

/// Elements reduced per pass over the ranks: the running sums of one
/// block stay in L1 while each rank's block streams through once.
const REDUCE_BLOCK: usize = 1024;

/// Sums `rest` into `first`, bit-identical to what [`allreduce_sum`]
/// leaves in every buffer — without threads, channels or copies.
///
/// `first` is rank 0 and `rest[k - 1]` is rank `k`. Each rank's buffer is
/// a list of segments (all ranks share the segment lengths) whose
/// concatenation is the flat index space the ring would have chunked, so
/// a gradient set kept as separate tensors reduces where it lies. Chunk
/// `c` of the ring's chunking (`chunk_bounds`) is summed as the ring's reduce-scatter does:
/// starting from rank `c`'s values, each following rank in cyclic order
/// adds its own to the running sum (the ring computes `own + incoming`;
/// IEEE addition commutes, so the association is all that matters). Only
/// `first` is written.
///
/// ```
/// let (mut w, mut b) = (vec![1.0_f32, 2.0], vec![3.0_f32]);
/// let (w1, b1) = (vec![10.0_f32, 20.0], vec![30.0_f32]);
/// dapple_collectives::reduce_sum_in_place(
///     &mut [w.as_mut_slice(), b.as_mut_slice()],
///     &[vec![w1.as_slice(), b1.as_slice()]],
/// );
/// assert_eq!((w, b), (vec![11.0, 22.0], vec![33.0]));
/// ```
///
/// # Panics
///
/// Panics when a rank's segment lengths differ from `first`'s.
pub fn reduce_sum_in_place(first: &mut [&mut [f32]], rest: &[Vec<&[f32]>]) {
    let n = rest.len() + 1;
    if n == 1 {
        return;
    }
    assert!(
        rest.iter().all(|rank| {
            rank.len() == first.len()
                && rank
                    .iter()
                    .zip(first.iter())
                    .all(|(a, b)| a.len() == b.len())
        }),
        "reduce buffers must share their segment lengths"
    );
    let len = first.iter().map(|seg| seg.len()).sum();
    let bounds = chunk_bounds(len, n);
    let mut tmp = [0.0f32; REDUCE_BLOCK];
    let mut seg_start = 0usize;
    for (si, dst) in first.iter_mut().enumerate() {
        let seg_end = seg_start + dst.len();
        for (c, chunk) in bounds.iter().enumerate() {
            // The part of chunk `c` inside this segment, segment-local.
            let lo = chunk.start.max(seg_start);
            let hi = chunk.end.min(seg_end);
            let mut at = lo.saturating_sub(seg_start);
            let end = hi.saturating_sub(seg_start);
            while at < end {
                let block = at..end.min(at + REDUCE_BLOCK);
                let sum = &mut tmp[..block.len()];
                for step in 0..n {
                    let rank = (c + step) % n;
                    let own = match rank {
                        0 => &dst[block.clone()],
                        k => &rest[k - 1][si][block.clone()],
                    };
                    if step == 0 {
                        sum.copy_from_slice(own);
                    } else {
                        for (acc, v) in sum.iter_mut().zip(own) {
                            *acc += *v;
                        }
                    }
                }
                dst[block.clone()].copy_from_slice(sum);
                at = block.end;
            }
        }
        seg_start = seg_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_sum(buffers: &[Vec<f32>]) -> Vec<f32> {
        let len = buffers[0].len();
        let mut out = vec![0.0f32; len];
        for b in buffers {
            for (o, v) in out.iter_mut().zip(b) {
                *o += *v;
            }
        }
        out
    }

    #[test]
    fn two_ranks_sum() {
        let mut bufs = vec![vec![1.0, 2.0, 3.0], vec![10.0, 20.0, 30.0]];
        allreduce_sum(&mut bufs);
        assert_eq!(bufs[0], vec![11.0, 22.0, 33.0]);
        assert_eq!(bufs[1], vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn single_rank_is_identity() {
        let mut bufs = vec![vec![1.0, 2.0]];
        allreduce_sum(&mut bufs);
        assert_eq!(bufs[0], vec![1.0, 2.0]);
    }

    #[test]
    fn empty_buffers_are_fine() {
        let mut bufs = vec![vec![], vec![], vec![]];
        allreduce_sum(&mut bufs);
        assert!(bufs.iter().all(Vec::is_empty));
    }

    #[test]
    fn short_buffer_fewer_elements_than_ranks() {
        // 5 ranks, 3 elements: two chunks are empty.
        let mut bufs: Vec<Vec<f32>> = (0..5).map(|r| vec![r as f32; 3]).collect();
        let expect = naive_sum(&bufs);
        allreduce_sum(&mut bufs);
        for b in &bufs {
            assert_eq!(*b, expect);
        }
    }

    #[test]
    #[should_panic(expected = "share a length")]
    fn mismatched_lengths_panic() {
        let mut bufs = vec![vec![1.0], vec![1.0, 2.0]];
        allreduce_sum(&mut bufs);
    }

    #[test]
    fn chunk_bounds_cover_exactly() {
        for len in [0usize, 1, 7, 16, 100] {
            for n in 1..=8 {
                let b = chunk_bounds(len, n);
                assert_eq!(b.len(), n);
                assert_eq!(b[0].start, 0);
                assert_eq!(b[n - 1].end, len);
                for w in b.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn matches_naive_sum(
            n in 2usize..8,
            len in 0usize..64,
            seed in 0u64..1000,
        ) {
            // Deterministic pseudo-random fill without pulling in rand here.
            let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut next = || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 40) as f32 / (1u64 << 24) as f32) - 0.5
            };
            let mut bufs: Vec<Vec<f32>> =
                (0..n).map(|_| (0..len).map(|_| next()).collect()).collect();
            let expect = if len == 0 { vec![] } else { naive_sum(&bufs) };
            allreduce_sum(&mut bufs);
            for b in &bufs {
                for (got, want) in b.iter().zip(&expect) {
                    prop_assert!((got - want).abs() <= 1e-4 * want.abs().max(1.0));
                }
            }
        }
    }
}
