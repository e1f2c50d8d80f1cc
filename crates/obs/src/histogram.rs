//! The workspace's one distribution type: an exact-when-small
//! histogram over `u64` samples with a fixed memory cap.
//!
//! [`QuantileHistogram`] keeps one counter per distinct value while it
//! holds at most [`CAP`] keys, and
//! [`percentile`](QuantileHistogram::percentile) implements the
//! nearest-rank definition: the `p`-th percentile of `n` samples is the
//! value at rank `⌈p/100 · n⌉` (1-based) in sorted order — exactly what a
//! sorted-vector reference computes. The serve report's latency,
//! queue-wait and service summaries and every histogram of the metrics
//! registry are this type.
//!
//! ## Layout
//!
//! The counters are a dense slab of `(value, count)` pairs in first-seen
//! order plus an open-addressing index into it (a power-of-two table of
//! `u32` slots, at most 3/4 full, probed linearly from a fixed
//! multiplicative hash; the keys are the program's own samples, not
//! outside input), so a sample costs one probe and no allocation once
//! its key exists. Each slot packs the pair's slab position (19 bits)
//! with a 13-bit tag from the key's hash, and a probe reads the slab only
//! where the tag matches, so most of a new key's probe chain stays in the
//! index.
//!
//! Percentiles count the samples per bucket in one pass over the slab (a
//! bucket is a key's top 7 significant bits, so the buckets are monotone
//! in the key), then sort only the keys of the buckets that hold a
//! requested rank; if every key falls in one bucket, that is the whole
//! slab. Equality and a merge's source walk the whole slab through a
//! `u32` permutation sorted by value. Nothing observable depends on the
//! slab's order.
//!
//! ## Past the cap
//!
//! Saturated traffic makes almost every latency distinct, so an exact
//! slab would grow with the request count. When an insert pushes it past
//! `CAP` keys, the histogram keeps only each sample's top `sig`
//! significant bits, rounded down, and folds colliding keys together.
//! `sig` first drops straight to the bit length of the largest sample (a
//! no-op on the keys), then one bit at a time until at most `CAP / 2`
//! keys would remain (one sort of the slab and one walk over it count
//! the keys left at every `sig`), and the slab is rebuilt at that `sig`;
//! the halved target keeps rebuilds rare. Rounding down is
//! monotone, so a reported percentile is the true nearest-rank value
//! rounded down to `sig` bits: its relative error is below `2^(1−sig)`.
//! `count`, `sum`, `mean`, `min` and `max` are tracked apart from the
//! keys and stay exact.
//!
//! The histogram is a pure function of its sample sequence (a merge, of
//! the two histograms in argument order), so identical streams give
//! identical bytes.

use crate::json::{JsonValue, ToJson};

/// The most distinct keys a [`QuantileHistogram`] holds (about 6 MB: 4 MB
/// of `(value, count)` pairs and a 2 MB index). Below it every
/// percentile is exact.
pub const CAP: usize = 1 << 18;

/// Low bits of an index slot: the pair's position in the slab. The slab
/// never holds more than `CAP + 1` pairs, so positions fit in 19 bits;
/// the 13 bits above them are the key's hash tag.
const POS_BITS: u32 = 19;

/// The position bits of an index slot.
const POS_MASK: u32 = (1 << POS_BITS) - 1;

/// An index slot that names no pair (its position bits name no pair).
const EMPTY: u32 = u32::MAX;

const _: () = assert!(CAP + 1 < POS_MASK as usize, "slab positions must fit");

/// Index length on the first insert.
const MIN_INDEX: usize = 16;

/// Significant bits that pick a key's percentile bucket.
const BUCKET_BITS: u32 = 7;

/// Number of percentile buckets: every key below `2^BUCKET_BITS` has its
/// own, then `2^(BUCKET_BITS - 1)` per larger bit length.
const BUCKETS: usize =
    ((u64::BITS - BUCKET_BITS) << (BUCKET_BITS - 1)) as usize + (1 << BUCKET_BITS);

/// A value→count histogram: exact below [`CAP`] distinct values, rounded
/// to `sig` significant bits above it.
#[derive(Debug, Clone)]
pub struct QuantileHistogram {
    /// One `(key, count)` pair per distinct key, in first-seen order
    /// (sorted by key right after a rebuild).
    counts: Vec<(u64, u64)>,
    /// Open-addressing index: at the slot each key's hash probes to, its
    /// position in `counts` (low [`POS_BITS`]) under its hash tag, or
    /// [`EMPTY`]. Its length is a power of two (or 0 before the first
    /// insert) and it is at most 3/4 full.
    index: Vec<u32>,
    sig: u32,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileHistogram {
    fn default() -> Self {
        Self {
            counts: Vec::new(),
            index: Vec::new(),
            sig: u64::BITS,
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

/// Number of significant bits in `v` (0 for 0).
fn bit_len(v: u64) -> u32 {
    u64::BITS - v.leading_zeros()
}

/// `v` with all but its top `sig` significant bits cleared.
fn round(v: u64, sig: u32) -> u64 {
    let drop = bit_len(v).saturating_sub(sig);
    v >> drop << drop
}

/// Fibonacci hash of a key.
fn hash(key: u64) -> u64 {
    key.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// First index slot probed for a key of hash `h` in a table of `len`
/// slots (a power of two): the hash's top bits.
fn home(h: u64, len: usize) -> usize {
    (h >> (u64::BITS - len.trailing_zeros())) as usize
}

/// The tag bits of an index slot for a key of hash `h`: hash bits 32–44,
/// below the home bits of any index this type builds (at most 2^19
/// slots, since the slab stops at `CAP + 1` pairs), so keys that share a
/// home slot rarely share a tag.
fn tag(h: u64) -> u32 {
    ((h >> 32) as u32) << POS_BITS
}

/// The percentile bucket of `v`: `v` itself below 128; above, `v >> drop`
/// (its top 7 significant bits, in `64..128`) plus `64 · drop`, where
/// `drop` counts the low bits cut off. Monotone in `v`, so the buckets
/// split the sorted keys into consecutive runs.
fn bucket(v: u64) -> usize {
    let drop = bit_len(v).saturating_sub(BUCKET_BITS);
    ((drop as usize) << (BUCKET_BITS - 1)) + (v >> drop) as usize
}

impl QuantileHistogram {
    /// Creates an empty, exact histogram.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn observe(&mut self, v: u64) {
        self.observe_n(v, 1);
    }

    /// Records `n` samples of `v` at once: the same histogram as `n`
    /// calls of [`Self::observe`], for one probe of the index.
    pub fn observe_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum += u128::from(v) * u128::from(n);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.insert(v, n);
    }

    /// Folds another histogram into this one. Below the cap the result
    /// equals observing both streams; above it, the coarser of the two
    /// resolutions wins.
    pub fn merge(&mut self, other: &QuantileHistogram) {
        if other.count == 0 {
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if other.sig < self.sig {
            self.rebuild(other.sig);
        }
        // Ascending key order, so a merge that passes the cap coarsens
        // on the same keys whatever order `other` saw them in.
        for at in other.sorted() {
            let (v, n) = other.counts[at as usize];
            self.insert(v, n);
        }
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample, or 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample, or `None` when empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// The nearest-rank `p`-th percentile (`0 < p <= 100`): the value at
    /// 1-based rank `⌈p/100 · n⌉` in sorted order, rounded down to the
    /// significant bits kept (all 64 below [`CAP`]). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Option<u64> {
        let [v] = self.percentiles([p]);
        v
    }

    /// [`percentile`](Self::percentile) at each of `ps`, in the order
    /// given. One pass counts the samples per bucket (a key's top 7
    /// significant bits, monotone in the key), and only the keys of the
    /// buckets that hold a requested rank are sorted.
    ///
    /// # Panics
    ///
    /// Panics if any `p` is not in `(0, 100]`.
    #[must_use]
    pub fn percentiles<const N: usize>(&self, ps: [f64; N]) -> [Option<u64>; N] {
        for p in ps {
            assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
        }
        let mut out = [None; N];
        if self.count == 0 {
            return out;
        }
        let ranks =
            ps.map(|p| ((p / 100.0 * self.count as f64).ceil() as u64).clamp(1, self.count));
        // Answer the ranks in ascending order.
        let mut asked: [usize; N] = std::array::from_fn(|i| i);
        asked.sort_unstable_by_key(|&i| ranks[i]);
        let mut per_bucket = vec![0u64; BUCKETS];
        for &(v, n) in &self.counts {
            per_bucket[bucket(v)] += n;
        }
        // Each rank's bucket, and the samples in the buckets below it.
        // The counts sum to `count`, so every rank lands in a bucket.
        let mut home = [(0usize, 0u64); N];
        let (mut b, mut below) = (0, 0);
        for &i in &asked {
            while b + 1 < BUCKETS && below + per_bucket[b] < ranks[i] {
                below += per_bucket[b];
                b += 1;
            }
            home[i] = (b, below);
        }
        let mut wanted = [0u64; BUCKETS.div_ceil(64)];
        for &(b, _) in &home {
            wanted[b / 64] |= 1 << (b % 64);
        }
        let mut keys: Vec<(u64, u64)> = self
            .counts
            .iter()
            .copied()
            .filter(|&(v, _)| {
                let b = bucket(v);
                (wanted[b / 64] >> (b % 64)) & 1 == 1
            })
            .collect();
        keys.sort_unstable_by_key(|&(v, _)| v);
        // Walk the wanted buckets' keys in order, restarting the running
        // rank at each bucket's first key from the samples below it.
        let mut keys = keys.into_iter().peekable();
        let (mut current, mut seen, mut value) = (usize::MAX, 0u64, 0u64);
        for i in asked {
            let (b, below) = home[i];
            if b != current {
                current = b;
                seen = below;
                while keys.next_if(|&(v, _)| bucket(v) < b).is_some() {}
            }
            while seen < ranks[i] {
                let Some((v, n)) = keys.next() else { break };
                seen += n;
                value = v;
            }
            out[i] = Some(value);
        }
        out
    }

    /// Positions of `counts`, sorted by key, for a merge's source and for
    /// equality. Keys are distinct, so a stable sort gives the one order;
    /// it also takes a slab that is mostly sorted, as after a rebuild, in
    /// about linear time.
    fn sorted(&self) -> Vec<u32> {
        // `counts` never holds more than CAP + 1 pairs, so positions fit.
        let mut order: Vec<u32> = (0..self.counts.len() as u32).collect();
        order.sort_by_key(|&at| self.counts[at as usize].0);
        order
    }

    /// Adds `n` samples of `v`, coarsening once the slab passes the cap.
    fn insert(&mut self, v: u64, n: u64) {
        if self.index.is_empty() {
            self.reindex(MIN_INDEX);
        }
        let key = round(v, self.sig);
        let h = hash(key);
        let tag = tag(h);
        let mask = self.index.len() - 1;
        let mut slot = home(h, self.index.len());
        loop {
            let entry = self.index[slot];
            if entry == EMPTY {
                break;
            }
            // Only a matching tag sends the probe to the slab.
            if entry & !POS_MASK == tag {
                let pair = &mut self.counts[(entry & POS_MASK) as usize];
                if pair.0 == key {
                    pair.1 += n;
                    return;
                }
            }
            slot = (slot + 1) & mask;
        }
        self.index[slot] = tag | self.counts.len() as u32;
        self.counts.push((key, n));
        if self.counts.len() * 4 > self.index.len() * 3 {
            self.reindex(self.index.len() * 2);
        }
        if self.counts.len() > CAP {
            self.coarsen();
        }
    }

    /// Rebuilds `index` at `len` slots over the current `counts`.
    fn reindex(&mut self, len: usize) {
        self.index.clear();
        self.index.resize(len, EMPTY);
        let mask = len - 1;
        for (at, &(key, _)) in self.counts.iter().enumerate() {
            let h = hash(key);
            let mut slot = home(h, len);
            while self.index[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = tag(h) | at as u32;
        }
    }

    /// Rebuilds the slab at the largest `sig` that leaves at most
    /// `CAP / 2` keys.
    fn coarsen(&mut self) {
        self.counts.sort_unstable_by_key(|&(v, _)| v);
        // Two adjacent keys fold together at every `sig` up to the number
        // of top bits they share (none across bit lengths), so the keys
        // left at `sig` are 1 plus the adjacent pairs sharing fewer.
        let mut shared = [0usize; u64::BITS as usize + 1];
        for pair in self.counts.windows(2) {
            let (a, b) = (pair[0].0, pair[1].0);
            let bits = if bit_len(a) == bit_len(b) {
                bit_len(a) - bit_len(a ^ b)
            } else {
                0
            };
            shared[bits as usize] += 1;
        }
        let keys_at = |sig: u32| 1 + shared[..sig as usize].iter().sum::<usize>();
        // Bits above the largest sample's length are already exact, so
        // the search starts one below it. At `sig` 1 at most 65 keys
        // remain, so it ends before `sig` reaches 0.
        let mut sig = self.sig.min(bit_len(self.max)) - 1;
        while keys_at(sig) > CAP / 2 {
            sig -= 1;
        }
        self.rebuild(sig);
    }

    /// Re-keys every counter at `sig` significant bits: sorts the slab
    /// (a linear pass when it already is) and folds each run of keys
    /// that round alike into its first pair.
    fn rebuild(&mut self, sig: u32) {
        self.sig = sig;
        self.counts.sort_unstable_by_key(|&(v, _)| v);
        let mut kept = 0;
        for at in 0..self.counts.len() {
            let (v, n) = self.counts[at];
            let key = round(v, sig);
            if kept > 0 && self.counts[kept - 1].0 == key {
                self.counts[kept - 1].1 += n;
            } else {
                self.counts[kept] = (key, n);
                kept += 1;
            }
        }
        self.counts.truncate(kept);
        self.reindex(self.index.len().max(MIN_INDEX));
    }
}

/// Equal when every moment, the resolution and the value→count pairs
/// (in key order, whatever order the slabs hold them in) agree.
impl PartialEq for QuantileHistogram {
    fn eq(&self, other: &Self) -> bool {
        (self.sig, self.count, self.sum, self.min, self.max)
            == (other.sig, other.count, other.sum, other.min, other.max)
            && self.counts.len() == other.counts.len()
            && self
                .sorted()
                .iter()
                .zip(&other.sorted())
                .all(|(&a, &b)| self.counts[a as usize] == other.counts[b as usize])
    }
}

impl Eq for QuantileHistogram {}

impl ToJson for QuantileHistogram {
    fn to_json(&self) -> JsonValue {
        let [p50, p95, p99] = self.percentiles([50.0, 95.0, 99.0]);
        JsonValue::object(vec![
            ("count", self.count.to_json()),
            ("sum", (self.sum as f64).to_json()),
            ("min", self.min().to_json()),
            ("max", self.max().to_json()),
            ("sig", self.sig.to_json()),
            ("p50", p50.to_json()),
            ("p95", p95.to_json()),
            ("p99", p99.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERCENTILES: [f64; 8] = [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9, 100.0];

    /// The sorted-vector nearest-rank reference the histogram must match.
    fn reference_percentile(sorted: &[u64], p: f64) -> u64 {
        let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).max(1);
        sorted[rank - 1]
    }

    /// A SplitMix64 stream of `n` values below `bound`.
    fn samples(seed: u64, n: usize, bound: u64) -> Vec<u64> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) % bound
            })
            .collect()
    }

    fn histogram_of(values: &[u64]) -> QuantileHistogram {
        let mut h = QuantileHistogram::new();
        for &v in values {
            h.observe(v);
        }
        h
    }

    #[test]
    fn matches_sorted_vector_reference() {
        let mut values = samples(11, 5000, 10_000);
        let h = histogram_of(&values);
        values.sort_unstable();
        for p in PERCENTILES {
            assert_eq!(
                h.percentile(p),
                Some(reference_percentile(&values, p)),
                "p{p}"
            );
        }
        assert_eq!(h.sig, 64);
    }

    #[test]
    fn small_counts_follow_nearest_rank() {
        let h = histogram_of(&[10, 20, 30, 40]);
        // n = 4: p50 → rank 2, p75 → rank 3, p76 → rank 4.
        assert_eq!(h.percentile(50.0), Some(20));
        assert_eq!(h.percentile(75.0), Some(30));
        assert_eq!(h.percentile(76.0), Some(40));
        assert_eq!(h.percentile(100.0), Some(40));
        assert_eq!(h.min(), Some(10));
        assert_eq!(h.max(), Some(40));
        assert_eq!(h.mean(), 25.0);
    }

    #[test]
    fn empty_histogram_is_none() {
        let h = QuantileHistogram::new();
        assert_eq!(h.percentile(50.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.counts.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of (0, 100]")]
    fn zero_percentile_rejected() {
        let h = histogram_of(&[1]);
        let _ = h.percentile(0.0);
    }

    #[test]
    fn summary_json_shape() {
        let values: Vec<u64> = (1..=100).collect();
        let j = histogram_of(&values).to_json();
        assert_eq!(j.get("count").and_then(JsonValue::as_u64), Some(100));
        assert_eq!(j.get("sum").and_then(JsonValue::as_f64), Some(5050.0));
        assert_eq!(j.get("min").and_then(JsonValue::as_u64), Some(1));
        assert_eq!(j.get("sig").and_then(JsonValue::as_u64), Some(64));
        assert_eq!(j.get("p50").and_then(JsonValue::as_u64), Some(50));
        assert_eq!(j.get("p99").and_then(JsonValue::as_u64), Some(99));
    }

    /// Past the cap the map stays bounded, every percentile is the exact
    /// nearest-rank value rounded down to `sig` bits, and the moments
    /// tracked apart from the keys stay exact.
    #[test]
    fn past_the_cap_percentiles_are_the_reference_rounded_down() {
        let mut values = samples(3, 3 * CAP / 2, 1 << 40);
        let h = histogram_of(&values);
        values.sort_unstable();
        let distinct = 1 + values.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(distinct > CAP, "stream must pass the cap");

        assert!(h.counts.len() <= CAP, "{} keys", h.counts.len());
        let sig = h.sig;
        assert!(sig < 64, "histogram must have coarsened");
        for p in PERCENTILES {
            let exact = reference_percentile(&values, p);
            assert_eq!(h.percentile(p), Some(round(exact, sig)), "p{p}");
            let err = (exact - round(exact, sig)) as f64 / exact as f64;
            assert!(err < 2f64.powi(1 - sig as i32), "p{p}: error {err}");
        }
        assert_eq!(h.count(), values.len() as u64);
        assert_eq!(h.min(), values.first().copied());
        assert_eq!(h.max(), values.last().copied());
        let sum: u128 = values.iter().map(|&v| u128::from(v)).sum();
        assert_eq!(h.sum(), sum);
        assert_eq!(h.mean(), sum as f64 / values.len() as f64);
    }

    #[test]
    fn identical_streams_give_identical_bytes() {
        for n in [4096, CAP + 1] {
            let values = samples(5, n, 1 << 40);
            let a = histogram_of(&values);
            let b = histogram_of(&values);
            assert_eq!(a, b);
            assert_eq!(a.to_json_string(), b.to_json_string());
        }
    }

    /// Merging with a coarsened histogram re-keys the finer side at the
    /// coarser `sig`, so the merge is the same in either order.
    #[test]
    fn merge_past_the_cap_keeps_the_coarser_resolution() {
        let coarse = histogram_of(&samples(9, CAP + 1, 1 << 40));
        let exact = histogram_of(&samples(10, 1000, 1 << 40));
        assert!(coarse.sig < 64);
        let mut a = exact.clone();
        a.merge(&coarse);
        let mut b = coarse.clone();
        b.merge(&exact);
        assert_eq!(a.sig, coarse.sig);
        assert_eq!(a, b);
        assert_eq!(a.count(), coarse.count() + exact.count());
    }

    #[test]
    fn merge_below_the_cap_equals_observing_both_streams() {
        let left = samples(7, 3000, 5000);
        let right = samples(8, 2000, 9000);
        let mut merged = histogram_of(&left);
        merged.merge(&histogram_of(&right));
        merged.merge(&QuantileHistogram::new());
        let both: Vec<u64> = left.iter().chain(&right).copied().collect();
        assert_eq!(merged, histogram_of(&both));
    }

    /// The `BTreeMap` histogram this type replaced, kept as the reference
    /// model: the same insert, coarsen and merge over one ordered map.
    #[derive(Clone)]
    struct Model {
        counts: std::collections::BTreeMap<u64, u64>,
        sig: u32,
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    }

    impl Model {
        fn new() -> Self {
            Self {
                counts: std::collections::BTreeMap::new(),
                sig: u64::BITS,
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }
        }

        fn observe(&mut self, v: u64) {
            self.count += 1;
            self.sum += u128::from(v);
            self.min = self.min.min(v);
            self.max = self.max.max(v);
            self.insert(v, 1);
        }

        fn merge(&mut self, other: &Model) {
            if other.count == 0 {
                return;
            }
            self.count += other.count;
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
            if other.sig < self.sig {
                self.rebuild(other.sig);
            }
            for (&v, &n) in &other.counts {
                self.insert(v, n);
            }
        }

        fn insert(&mut self, v: u64, n: u64) {
            *self.counts.entry(round(v, self.sig)).or_insert(0) += n;
            if self.counts.len() > CAP {
                let mut sig = self.sig.min(bit_len(self.max)) - 1;
                while self.keys_at(sig) > CAP / 2 {
                    sig -= 1;
                }
                self.rebuild(sig);
            }
        }

        fn keys_at(&self, sig: u32) -> usize {
            let mut last = None;
            self.counts
                .keys()
                .filter(|&&v| {
                    let key = round(v, sig);
                    last.replace(key) != Some(key)
                })
                .count()
        }

        fn rebuild(&mut self, sig: u32) {
            self.sig = sig;
            for (v, n) in std::mem::take(&mut self.counts) {
                *self.counts.entry(round(v, sig)).or_insert(0) += n;
            }
        }

        /// The nearest-rank percentiles 1..=100, from one walk of the map.
        fn percentiles(&self) -> Vec<Option<u64>> {
            if self.count == 0 {
                return vec![None; 100];
            }
            let mut walk = self.counts.iter();
            let (mut seen, mut value) = (0u64, 0u64);
            (1..=100)
                .map(|p| {
                    let rank = (f64::from(p) / 100.0 * self.count as f64).ceil() as u64;
                    while seen < rank.clamp(1, self.count) {
                        let (&v, &n) = walk.next().expect("counts sum to count");
                        seen += n;
                        value = v;
                    }
                    Some(value)
                })
                .collect()
        }

        fn to_json_string(&self) -> String {
            let ps = self.percentiles();
            let min = (self.count > 0).then_some(self.min);
            let max = (self.count > 0).then_some(self.max);
            JsonValue::object(vec![
                ("count", self.count.to_json()),
                ("sum", (self.sum as f64).to_json()),
                ("min", min.to_json()),
                ("max", max.to_json()),
                ("sig", self.sig.to_json()),
                ("p50", ps[49].to_json()),
                ("p95", ps[94].to_json()),
                ("p99", ps[98].to_json()),
            ])
            .render()
        }
    }

    /// The histogram and the model agree on the JSON bytes, every integer
    /// percentile, the resolution and every key's count.
    fn assert_matches_model(h: &QuantileHistogram, m: &Model, ctx: &str) {
        assert_eq!(h.to_json_string(), m.to_json_string(), "{ctx}: json");
        let all: [f64; 100] = std::array::from_fn(|i| (i + 1) as f64);
        assert_eq!(h.percentiles(all).to_vec(), m.percentiles(), "{ctx}");
        assert_eq!((h.sig, h.counts.len()), (m.sig, m.counts.len()), "{ctx}");
        let pairs = h.sorted().into_iter().map(|at| h.counts[at as usize]);
        assert!(
            pairs.eq(m.counts.iter().map(|(&v, &n)| (v, n))),
            "{ctx}: counts"
        );
    }

    /// Every pair sits in one index slot, tagged with its key's hash tag
    /// and reachable from its home slot without crossing an empty one;
    /// every other slot is empty.
    fn assert_index_consistent(h: &QuantileHistogram) {
        let mask = h.index.len() - 1;
        let mut seen = vec![false; h.counts.len()];
        for (slot, &entry) in h.index.iter().enumerate() {
            if entry == EMPTY {
                continue;
            }
            let at = (entry & POS_MASK) as usize;
            let hk = hash(h.counts[at].0);
            assert_eq!(entry & !POS_MASK, tag(hk), "slot {slot}: tag");
            assert!(!std::mem::replace(&mut seen[at], true), "pair {at} twice");
            let mut probe = home(hk, h.index.len());
            while probe != slot {
                assert_ne!(h.index[probe], EMPTY, "pair {at} behind an empty slot");
                probe = (probe + 1) & mask;
            }
        }
        assert!(seen.iter().all(|&s| s), "a pair has no slot");
    }

    /// Observes `values` into both sides; returns how many times the
    /// histogram passed the cap (each pass lowers `sig`). Right before
    /// each pass the slab holds `CAP` pairs, so the index is checked with
    /// tagged slots at every position up to `CAP - 1`, and the sample
    /// that passes the cap probes through them to write position `CAP`.
    fn observe_both(h: &mut QuantileHistogram, m: &mut Model, values: &[u64]) -> usize {
        let mut passes = 0;
        for &v in values {
            let sig = h.sig;
            if h.counts.len() == CAP {
                assert_index_consistent(h);
            }
            h.observe(v);
            m.observe(v);
            passes += usize::from(h.sig < sig);
        }
        passes
    }

    fn both_of(values: &[u64]) -> (QuantileHistogram, Model, usize) {
        let (mut h, mut m) = (QuantileHistogram::new(), Model::new());
        let passes = observe_both(&mut h, &mut m, values);
        (h, m, passes)
    }

    /// `n` distinct values in `[lo, lo + 2^bits)`, visited in a scattered
    /// order. Dense enough that dropping two bits folds most of them, so
    /// passing the cap costs the model's per-`sig` key walk only twice.
    fn scattered(n: usize, lo: u64, bits: u32) -> Vec<u64> {
        (0..n as u64)
            .map(|i| lo + (i.wrapping_mul(0x9E37_79B9) & ((1 << bits) - 1)))
            .collect()
    }

    /// 10^5 distinct keys in `[2^40, 2^40 + 2^33)` all share one bucket
    /// (their top 7 bits agree), so every rank lands in it and the whole
    /// slab is sorted: the slowest case of the bucket location.
    #[test]
    fn keys_crowded_into_one_bucket_match_the_btreemap_model() {
        let values = scattered(100_000, 1 << 40, 33);
        let b = bucket(values[0]);
        assert!(values.iter().all(|&v| bucket(v) == b), "one bucket");
        let (mut h, mut m, _) = both_of(&values);
        assert_matches_model(&h, &m, "one bucket");
        // A second copy of every other key doubles its count.
        observe_both(&mut h, &mut m, &values[..50_000]);
        assert_matches_model(&h, &m, "one bucket, repeated keys");
    }

    /// Keys on every bucket edge: each key below 128 (one bucket apiece),
    /// `2^k - 1`, `2^k` and `2^k + 1` for every `k`, and `u64::MAX`, each
    /// observed one to three times.
    #[test]
    fn keys_on_bucket_edges_match_the_btreemap_model() {
        let mut edges: Vec<u64> = (0..=127).collect();
        for k in 0..u64::BITS {
            let p = 1u64 << k;
            edges.extend([p - 1, p, p + 1]);
        }
        edges.push(u64::MAX);
        let mut sorted = edges.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(sorted.windows(2).all(|w| bucket(w[0]) <= bucket(w[1])));
        assert_eq!((bucket(0), bucket(127)), (0, 127));
        assert_eq!(bucket(128), 128);
        assert_eq!(bucket(u64::MAX), BUCKETS - 1);
        let values: Vec<u64> = edges
            .iter()
            .enumerate()
            .flat_map(|(i, &v)| std::iter::repeat_n(v, 1 + i % 3))
            .collect();
        let (h, m, _) = both_of(&values);
        assert_matches_model(&h, &m, "bucket edges");
    }

    /// 4,000 keys whose hashes agree on the tag and on every home bit of
    /// the largest index: one probe chain in which every slot's tag
    /// matches. Each key still keeps its own count.
    #[test]
    fn keys_sharing_one_tag_count_apart() {
        // The hash multiplies by an odd constant, so it inverts (Newton's
        // iteration mod 2^64): pick the hashes, then solve for the keys.
        let mul = hash(1);
        let mut inverse = mul;
        for _ in 0..6 {
            inverse = inverse.wrapping_mul(2u64.wrapping_sub(mul.wrapping_mul(inverse)));
        }
        assert_eq!(hash(inverse), 1);
        let shared = 0xABCD_E123_4000_0000_u64;
        let keys: Vec<u64> = (0..4000u64)
            .map(|i| (shared | (i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF)).wrapping_mul(inverse))
            .collect();
        assert!(keys.iter().all(|&k| {
            let h = hash(k);
            tag(h) == tag(hash(keys[0])) && home(h, 1 << 19) == home(hash(keys[0]), 1 << 19)
        }));
        let values: Vec<u64> = keys
            .iter()
            .enumerate()
            .flat_map(|(i, &k)| std::iter::repeat_n(k, 1 + i % 4))
            .collect();
        let (h, m, _) = both_of(&values);
        assert_eq!(h.counts.len(), keys.len());
        assert_index_consistent(&h);
        assert_matches_model(&h, &m, "one tag");
    }

    #[test]
    fn matches_the_btreemap_model_across_zero_one_and_two_cap_passes() {
        let (h, m, passes) = both_of(&samples(21, 20_000, 1 << 30));
        assert_eq!(passes, 0);
        assert_matches_model(&h, &m, "exact");
        // Past the cap once on one stretch of 24-bit values, then again on
        // a second, disjoint one.
        let (mut h, mut m, passes) = both_of(&scattered(CAP + CAP / 8, 1 << 23, 19));
        assert_eq!(passes, 1);
        assert_matches_model(&h, &m, "one pass");
        let second = scattered(200_000, (1 << 23) + (1 << 20), 20);
        assert_eq!(observe_both(&mut h, &mut m, &second), 1, "a second pass");
        assert_matches_model(&h, &m, "two passes");
    }

    /// `observe_n(v, n)` is `n` single observes: keys weighted one to
    /// three, below the cap and across two passes of it, match the model
    /// fed one sample at a time, and a zero weight records nothing (not
    /// even a new minimum or maximum).
    #[test]
    fn weighted_observes_match_single_observes_in_the_btreemap_model() {
        let (mut h, mut m) = (QuantileHistogram::new(), Model::new());
        let weigh = |h: &mut QuantileHistogram, m: &mut Model, values: &[u64]| {
            let mut passes = 0;
            for (i, &v) in values.iter().enumerate() {
                let (sig, n) = (h.sig, 1 + i as u64 % 3);
                h.observe_n(v, n);
                for _ in 0..n {
                    m.observe(v);
                }
                passes += usize::from(h.sig < sig);
            }
            passes
        };
        h.observe_n(u64::MAX, 0);
        assert_eq!(h, QuantileHistogram::new(), "zero weight");
        assert_eq!(weigh(&mut h, &mut m, &samples(41, 20_000, 1 << 30)), 0);
        assert_matches_model(&h, &m, "weighted, exact");
        let (mut h, mut m) = (QuantileHistogram::new(), Model::new());
        let first = scattered(CAP + CAP / 8, 1 << 23, 19);
        assert_eq!(weigh(&mut h, &mut m, &first), 1, "one pass");
        assert_matches_model(&h, &m, "weighted, one pass");
        let second = scattered(200_000, (1 << 23) + (1 << 20), 20);
        assert_eq!(weigh(&mut h, &mut m, &second), 1, "a second pass");
        h.observe_n(0, 0);
        h.observe_n(u64::MAX, 0);
        assert_matches_model(&h, &m, "weighted, two passes");
    }

    /// Merges in both argument orders of an exact histogram and a
    /// past-cap one, each followed by more samples at the merged
    /// resolution, as a merge mid-stream would be.
    #[test]
    fn exact_and_past_cap_merges_match_the_btreemap_model() {
        let exact = both_of(&samples(31, 5000, 1 << 24));
        let coarse = both_of(&scattered(CAP + CAP / 8, 1 << 23, 19));
        assert_eq!((exact.2, coarse.2), (0, 1));
        assert_merges_match(&exact, &coarse);
    }

    /// Two exact histograms whose union passes the cap inside the merge,
    /// in both argument orders. All keys are 41-bit. `right` saw its
    /// dense keys (one bit folds them in pairs) before its sparse ones
    /// (16 apart), but the sparse ones are the smaller: merged into
    /// `left` in ascending order, they are what passes the cap, which
    /// needs five bits dropped; in `right`'s own order the dense ones
    /// would pass it at two.
    #[test]
    fn merges_that_pass_the_cap_match_the_btreemap_model() {
        let base = 1u64 << 40;
        let left = both_of(&scattered(CAP / 2, base + (1 << 36), 17));
        let dense = (0..CAP as u64 / 2 - 1).map(|j| base + (1 << 34) + j);
        let sparse = (0..CAP as u64 / 2 + 1).map(|i| base + (i << 4));
        let right = both_of(&dense.chain(sparse).collect::<Vec<_>>());
        assert_eq!((left.2, right.2), (0, 0));
        assert_merges_match(&left, &right);
    }

    /// `a` merged with `b` and `b` with `a`, then 20,000 more samples,
    /// agree with the model.
    fn assert_merges_match(
        a: &(QuantileHistogram, Model, usize),
        b: &(QuantileHistogram, Model, usize),
    ) {
        let more = samples(35, 20_000, 1 << 26);
        for (x, y) in [(a, b), (b, a)] {
            let (mut h, mut m) = (x.0.clone(), x.1.clone());
            h.merge(&y.0);
            m.merge(&y.1);
            observe_both(&mut h, &mut m, &more);
            assert_matches_model(&h, &m, "merge, then more samples");
        }
    }
}
