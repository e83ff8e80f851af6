//! Seed plumbing: every generated input comes from one `--seed`.
//!
//! Each input family draws from its own named stream, so adding a draw to
//! one family never shifts the inputs of another.

/// A SplitMix64 generator: small, fast, and identical on every host.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream named `stream` under workload seed `seed`.
    pub fn new(seed: u64, stream: &str) -> Rng {
        // FNV-1a over the stream name, folded into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in stream.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        let mut rng = Rng(seed ^ h);
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// `len` random bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_and_stream_repeat_exactly() {
        let (mut a, mut b) = (Rng::new(7, "payloads"), Rng::new(7, "payloads"));
        assert_eq!(a.bytes(100), b.bytes(100));
        let (mut a, mut b) = (Rng::new(7, "mix"), Rng::new(7, "mix"));
        let (mut x, mut y) = ((0..40).collect::<Vec<_>>(), (0..40).collect::<Vec<_>>());
        a.shuffle(&mut x);
        b.shuffle(&mut y);
        assert_eq!(x, y);
    }

    #[test]
    fn seeds_and_streams_are_independent() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_ne!(draw(1, "payloads"), draw(2, "payloads"));
        assert_ne!(draw(1, "payloads"), draw(1, "mix"));
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut r = Rng::new(3, "range");
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = r.range(10, 14);
            assert!((10..=14).contains(&v));
            seen[(v - 10) as usize] = true;
        }
        assert!(seen.iter().all(|s| *s));
        assert_eq!(r.bytes(13).len(), 13);
    }
}
