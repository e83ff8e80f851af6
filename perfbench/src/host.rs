//! Host speed gauge.
//!
//! The shared host this benchmark runs on changes speed by up to 1.8x,
//! over seconds and over minutes, for all code alike, as other tenants
//! come and go on its caches. So every run times a fixed reference pass
//! every half second:
//! benchmark-owned code and data that no change to the workspace
//! touches, exercising what the workloads lean on (hash-table lookups
//! missing L2, a 1 MiB copy, a sort, add-rotate-xor rounds and
//! allocator churn). Its median pass, against [`REFERENCE_NS`], is the
//! run's host factor; end-to-end timings are divided by it (rates
//! multiplied), so they read as on a host where one pass takes
//! [`REFERENCE_NS`]. A change to the workspace moves them as it moves
//! wall-clock time; a change of host speed largely cancels.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::stats::median;

/// Nanoseconds one reference pass takes on the host this benchmark was
/// calibrated on, in its fast state.
pub const REFERENCE_NS: f64 = 4.0e6;

/// Time between reference passes.
const EVERY: Duration = Duration::from_millis(500);

/// Keys in the lookup table: ~1 MB with its buckets, half of L2.
const KEYS: usize = 32_768;

/// The reference pass and its timings over one run.
pub struct Gauge {
    table: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>>,
    keys: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    unsorted: Vec<u64>,
    sorted: Vec<u64>,
    passes: Vec<f64>,
    last: Instant,
}

impl Gauge {
    /// Builds the reference data and times a first pass.
    pub fn new() -> Gauge {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let keys: Vec<u64> = (0..KEYS).map(|_| next()).collect();
        let mut g = Gauge {
            table: keys.iter().map(|&k| (k, k.rotate_left(7))).collect(),
            keys,
            src: vec![0x5a; 1 << 20],
            dst: vec![0; 1 << 20],
            unsorted: (0..8192).map(|_| next()).collect(),
            sorted: Vec::with_capacity(8192),
            passes: Vec::new(),
            last: Instant::now(),
        };
        g.pass();
        g
    }

    /// Times one reference pass, in nanoseconds.
    fn pass(&mut self) -> f64 {
        let t0 = Instant::now();
        let mut acc = 0u64;
        for k in &self.keys {
            acc = acc.wrapping_add(self.table[k]);
        }
        self.dst.copy_from_slice(&self.src);
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.unsorted);
        self.sorted.sort_unstable();
        let mut s = [0x6170_7865u32; 16];
        for (i, w) in s.iter_mut().enumerate() {
            *w ^= i as u32;
        }
        for _ in 0..8000 {
            let mut w = s;
            for _ in 0..10 {
                for [a, b, c, d] in [
                    [0, 4, 8, 12],
                    [1, 5, 9, 13],
                    [2, 6, 10, 14],
                    [3, 7, 11, 15],
                    [0, 5, 10, 15],
                    [1, 6, 11, 12],
                    [2, 7, 8, 13],
                    [3, 4, 9, 14],
                ] {
                    quarter_round(&mut w, a, b, c, d);
                }
            }
            for (x, y) in s.iter_mut().zip(w) {
                *x = x.wrapping_add(y);
            }
            s = black_box(s);
        }
        let mut live: Vec<Vec<u8>> = Vec::with_capacity(64);
        for i in 0..8000usize {
            let v = vec![i as u8; 16 + (i * 37) % 2000];
            if live.len() == 64 {
                live.swap_remove(i % 64);
            }
            live.push(v);
        }
        black_box((acc, &self.dst, &self.sorted, &live));
        let ns = t0.elapsed().as_nanos() as f64;
        self.passes.push(ns);
        self.last = Instant::now();
        ns
    }

    /// Times a pass if the last one was [`EVERY`] ago.
    pub fn maybe(&mut self) {
        if self.last.elapsed() >= EVERY {
            self.pass();
        }
    }

    /// Runs `f` right after a reference pass. Returns its result, its
    /// wall-clock seconds, and its seconds as on the reference host
    /// judged by that adjacent pass: a bring-up lasts milliseconds, and
    /// the host's speed varies within a run.
    pub fn paired<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64, f64) {
        let pass = self.pass();
        let t0 = Instant::now();
        let built = f();
        let wall = t0.elapsed().as_secs_f64();
        (built, wall, wall * REFERENCE_NS / pass)
    }

    /// The run's host factor: its median pass over [`REFERENCE_NS`]
    /// (above 1 on a slower host).
    pub fn factor(&self) -> f64 {
        median(&self.passes) / REFERENCE_NS
    }

    /// A wall-clock duration (any time unit) as on the reference host.
    pub fn time(&self, wall: f64) -> f64 {
        wall / self.factor()
    }

    /// A wall-clock rate as on the reference host.
    pub fn rate(&self, wall: f64) -> f64 {
        wall * self.factor()
    }

    /// A report line with the passes' quartiles and the factor.
    pub fn line(&self) -> String {
        let [q1, q2, q3] = if self.passes.len() >= 2 {
            crate::stats::quartiles(&self.passes)
        } else {
            [self.passes[0]; 3]
        };
        format!(
            "host: {} reference passes, quartiles {:.3} {:.3} {:.3} ms; factor {:.4} \
             (end-to-end timings are wall-clock / factor, rates wall-clock x factor)",
            self.passes.len(),
            q1 / 1e6,
            q2 / 1e6,
            q3 / 1e6,
            self.factor()
        )
    }
}

fn quarter_round(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_factor_scales_times_down_and_rates_up_on_a_slow_host() {
        let mut g = Gauge::new();
        assert_eq!(g.passes.len(), 1, "a first pass at creation");
        let (v, wall, scaled) = g.paired(|| 7);
        assert_eq!(v, 7);
        let pass = g.passes[1];
        assert!((scaled - wall * REFERENCE_NS / pass).abs() < 1e-15);
        g.passes = vec![2.0 * REFERENCE_NS, 2.0 * REFERENCE_NS, 9.0 * REFERENCE_NS];
        assert_eq!(g.factor(), 2.0);
        assert_eq!(g.time(10.0), 5.0);
        assert_eq!(g.rate(10.0), 20.0);
        assert!(g.line().contains("factor 2.0000"));
    }
}
