//! Small helpers: the wall clock, percentiles, seed derivation, output
//! digests and the process's peak resident memory.

use std::time::Instant;

/// A started wall-clock timer, the benchmark's only clock. Readings
/// decide only when the benchmark stops starting ops; they never reach
/// the program under test.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    pub fn start() -> Self {
        // lint:allow(no-wallclock): measuring wall time is this benchmark's purpose
        Stopwatch(Instant::now())
    }

    /// Seconds since [`Stopwatch::start`].
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` in `(0, 100]`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n => v[((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1],
    }
}

/// The op-input seed number `k` of stream `stream` under workload seed
/// `seed` (SplitMix64 finalizer over the three words).
pub fn derive(seed: u64, stream: u64, k: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(k.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over 64-bit words: a bitwise fingerprint of an op's output,
/// used to compare repeated and traced/untraced runs of one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn word(mut self, w: u64) -> Self {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    pub fn f64s(self, values: impl IntoIterator<Item = f64>) -> Self {
        values.into_iter().fold(self, |d, v| d.word(v.to_bits()))
    }

    pub fn bytes(self, bytes: &[u8]) -> Self {
        bytes.chunks(8).fold(self, |d, c| {
            let mut w = [0u8; 8];
            w[..c.len()].copy_from_slice(c);
            d.word(u64::from_le_bytes(w))
        })
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_follow_nearest_rank() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn derived_seeds_separate_streams_and_indices() {
        assert_eq!(derive(7, 1, 2), derive(7, 1, 2));
        assert_ne!(derive(7, 1, 2), derive(7, 2, 1));
        assert_ne!(derive(7, 1, 2), derive(8, 1, 2));
    }
}
