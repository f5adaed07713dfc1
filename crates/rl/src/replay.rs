//! A bounded replay buffer with uniform sampling.

use rand::rngs::StdRng;
use rand::RngExt;

/// A fixed-capacity ring buffer of transitions with uniform sampling
/// (the memory replay `D` of Algorithm 3).
#[derive(Debug, Clone)]
pub struct ReplayBuffer<T> {
    items: Vec<T>,
    capacity: usize,
    next: usize,
}

impl<T> ReplayBuffer<T> {
    /// A buffer holding at most `capacity` transitions.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "replay capacity must be positive");
        ReplayBuffer {
            items: Vec::with_capacity(capacity.min(4096)),
            capacity,
            next: 0,
        }
    }

    /// Inserts a transition, evicting the oldest once full.
    pub fn push(&mut self, item: T) {
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            self.items[self.next] = item;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    /// Number of stored transitions.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The transition stored at `index` (`< len()`).
    pub(crate) fn get(&self, index: usize) -> &T {
        &self.items[index]
    }

    /// Uniformly samples `batch` item references **without replacement**
    /// (or everything, if fewer are stored).
    pub fn sample<'a>(&'a self, rng: &mut StdRng, batch: usize) -> Vec<&'a T> {
        let mut picks = Vec::new();
        self.sample_indices(rng, batch, &mut picks);
        picks.iter().map(|&i| &self.items[i]).collect()
    }

    /// [`ReplayBuffer::sample`] as indices into the buffer, written to
    /// `picks` (cleared first): the first `batch` entries of a
    /// Fisher–Yates shuffle of `0..len()` — one `random_range(i..len())`
    /// draw per pick — without writing out the other `len() - batch`.
    pub(crate) fn sample_indices(&self, rng: &mut StdRng, batch: usize, picks: &mut Vec<usize>) {
        let n = self.items.len();
        let take = batch.min(n);
        picks.clear();
        picks.extend(0..take);
        // The shuffled array is the identity except in its first `take`
        // positions, which are `picks[..take]`, and in the later positions
        // a swap has reached, kept behind them as (position, value) pairs.
        for i in 0..take {
            let j = rng.random_range(i..n);
            if j < take {
                picks.swap(i, j);
                continue;
            }
            let moved = (take..picks.len()).step_by(2).find(|&at| picks[at] == j);
            let at = moved.unwrap_or_else(|| {
                picks.extend([j, j]);
                picks.len() - 2
            });
            picks.swap(i, at + 1);
        }
        picks.truncate(take);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn push_evicts_oldest_beyond_capacity() {
        let mut buf = ReplayBuffer::new(3);
        for i in 0..5 {
            buf.push(i);
        }
        assert_eq!(buf.len(), 3);
        // 0 and 1 evicted; 2, 3, 4 remain (in some ring order).
        let mut rng = StdRng::seed_from_u64(0);
        let mut got: Vec<i32> = buf.sample(&mut rng, 3).into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn sample_is_without_replacement_and_clamped() {
        let mut buf = ReplayBuffer::new(10);
        for i in 0..4 {
            buf.push(i);
        }
        let mut rng = StdRng::seed_from_u64(1);
        let s = buf.sample(&mut rng, 100);
        assert_eq!(s.len(), 4);
        let mut got: Vec<i32> = s.into_iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sampling_is_roughly_uniform() {
        let mut buf = ReplayBuffer::new(4);
        for i in 0..4 {
            buf.push(i);
        }
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            for &&x in &buf.sample(&mut rng, 1) {
                counts[x as usize] += 1;
            }
        }
        for c in counts {
            assert!((700..1300).contains(&c), "counts skewed: {counts:?}");
        }
    }

    /// `sample_indices` is the textbook partial shuffle — materialise
    /// `0..len`, swap `take` times — draw for draw: same picks in the same
    /// order, and the generator left in the same state.
    #[test]
    fn sample_indices_match_the_materialised_shuffle() {
        for (len, batch) in [(1, 1), (5, 32), (33, 32), (40, 8), (1000, 32), (64, 64)] {
            let mut buf = ReplayBuffer::new(len);
            (0..len).for_each(|i| buf.push(i));
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut idx: Vec<usize> = (0..len).collect();
                let take = batch.min(len);
                for i in 0..take {
                    let j = rng.random_range(i..len);
                    idx.swap(i, j);
                }
                let after: u64 = rng.random_range(0..u64::MAX);

                let mut rng = StdRng::seed_from_u64(seed);
                let mut picks = vec![usize::MAX; 3];
                buf.sample_indices(&mut rng, batch, &mut picks);
                assert_eq!(picks, idx[..take], "len {len} batch {batch} seed {seed}");
                assert_eq!(rng.random_range(0..u64::MAX), after);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _: ReplayBuffer<u8> = ReplayBuffer::new(0);
    }
}
