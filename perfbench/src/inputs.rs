//! Inputs: the fixed reference corpus, and from the `--seed` argument the
//! query stream, the open-loop arrival schedule and the ingest delta
//! sequence. Everything here is a pure function of its arguments and is
//! built before any timing starts.

use mogul_core::update::IndexDelta;
use mogul_data::web::{web_like, WebLikeConfig};
use mogul_serve::QueryRequest;

/// Items in the reference corpus.
pub const ITEMS: usize = 12_000;
/// Feature dimension of the reference corpus.
pub const DIM: usize = 32;
/// Topic manifolds of the reference corpus.
pub const TOPICS: usize = 60;
/// Share of unstructured background clutter.
pub const BACKGROUND: f64 = 0.2;
/// k of the k-NN graph and of every query.
pub const K: usize = 10;
/// Share of in-database queries in the stream (the rest are out-of-sample).
pub const IN_DATABASE_SHARE: f64 = 0.7;
/// Generator seed of the reference corpus. The corpus is one fixed
/// reference for every run; `--seed` varies what is asked of it.
pub const CORPUS_SEED: u64 = 267_465;
/// Half-width of the uniform perturbation added to an out-of-sample probe
/// (the corpus noise is 0.05, so probes stay on their manifold).
pub const PROBE_JITTER: f64 = 0.03;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose, so adding a draw to one input
    /// never shifts another.
    pub fn fork(seed: u64, purpose: u64) -> Self {
        let mut rng = Rng(seed ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

const STREAM: u64 = 2;
const SCHEDULE: u64 = 3;
const DELTAS: u64 = 4;

/// The reference corpus.
pub fn corpus() -> Vec<Vec<f64>> {
    let dataset = web_like(&WebLikeConfig {
        num_points: ITEMS,
        num_topics: TOPICS,
        dim: DIM,
        background_fraction: BACKGROUND,
        seed: CORPUS_SEED,
        ..WebLikeConfig::default()
    })
    .expect("the reference corpus configuration is valid");
    dataset.features().to_vec()
}

/// A corpus feature plus a small seeded perturbation.
fn probe(features: &[Vec<f64>], rng: &mut Rng) -> Vec<f64> {
    let mut f = features[rng.below(features.len())].clone();
    for v in &mut f {
        *v += (2.0 * rng.unit() - 1.0) * PROBE_JITTER;
    }
    f
}

/// `len` requests: 70% in-database ids drawn uniformly from `ids`, 30%
/// out-of-sample probes around corpus features.
pub fn query_stream(
    seed: u64,
    features: &[Vec<f64>],
    ids: &[usize],
    len: usize,
) -> Vec<QueryRequest> {
    let mut rng = Rng::fork(seed, STREAM);
    (0..len)
        .map(|_| {
            if rng.unit() < IN_DATABASE_SHARE {
                QueryRequest::in_database(ids[rng.below(ids.len())], K)
            } else {
                QueryRequest::out_of_sample(probe(features, &mut rng), K)
            }
        })
        .collect()
}

/// Poisson arrival times (seconds from the start) at `rate` per second over
/// `seconds`, conditioned on exactly `round(rate × seconds)` arrivals: the
/// cumulative sums of `n + 1` exponential gaps, scaled to the window. Every
/// seed offers the same amount of work; only the spacing varies.
pub fn poisson_schedule(seed: u64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut rng = Rng::fork(seed, SCHEDULE);
    let n = (rate * seconds).round() as usize;
    let mut at = 0.0;
    let mut out: Vec<f64> = (0..n)
        .map(|_| {
            at += rng.exponential(1.0);
            at
        })
        .collect();
    let span = at + rng.exponential(1.0);
    for t in &mut out {
        *t *= seconds / span;
    }
    out
}

/// The reference write sequence of `ingest`: single-item deltas, two
/// inserts to one remove. Like the corpus it is fixed, not drawn from
/// `--seed`: how much correction work a delta causes depends on which items
/// it touches, and a seeded sequence moved the write phase's CPU time by a
/// quarter between seeds. Removed ids are drawn without repetition from
/// `0..items` and returned second (queries avoid them).
pub fn delta_sequence(features: &[Vec<f64>], len: usize) -> (Vec<IndexDelta>, Vec<usize>) {
    let mut rng = Rng::fork(CORPUS_SEED, DELTAS);
    let mut removed = Vec::new();
    let mut deltas = Vec::with_capacity(len);
    for i in 0..len {
        let mut delta = IndexDelta::new();
        if i % 3 == 2 {
            let id = loop {
                let id = rng.below(features.len());
                if !removed.contains(&id) {
                    break id;
                }
            };
            removed.push(id);
            delta.remove(id);
        } else {
            delta.insert(probe(features, &mut rng));
        }
        deltas.push(delta);
    }
    (deltas, removed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_features() -> Vec<Vec<f64>> {
        (0..50).map(|i| vec![i as f64, (i % 7) as f64]).collect()
    }

    #[test]
    fn schedule_is_a_function_of_the_seed() {
        let a = poisson_schedule(7, 2_000.0, 2.0);
        let b = poisson_schedule(7, 2_000.0, 2.0);
        assert_eq!(a, b);
        let c = poisson_schedule(8, 2_000.0, 2.0);
        assert_ne!(a, c);
        // Increasing, inside the window, and exactly the asked rate.
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..2.0).contains(&t)));
        assert_eq!(a.len(), 4_000);
        assert_eq!(c.len(), 4_000);
        // Poisson spacing: the mean gap is 1/rate and the gaps spread like
        // exponentials (standard deviation about the mean), not evenly.
        let gaps: Vec<f64> = a.windows(2).map(|w| w[1] - w[0]).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!((mean * 2_000.0 - 1.0).abs() < 0.05, "mean gap {mean}");
        assert!(
            (var.sqrt() / mean - 1.0).abs() < 0.1,
            "gap sd/mean {}",
            var.sqrt() / mean
        );
    }

    #[test]
    fn stream_and_deltas_are_functions_of_their_arguments() {
        let features = small_features();
        let ids: Vec<usize> = (0..features.len()).collect();
        let a = query_stream(3, &features, &ids, 400);
        assert_eq!(a, query_stream(3, &features, &ids, 400));
        assert_ne!(a, query_stream(4, &features, &ids, 400));
        let in_db = a
            .iter()
            .filter(|r| matches!(r, QueryRequest::InDatabase { .. }))
            .count();
        assert!((240..320).contains(&in_db), "in-database share {in_db}/400");
        assert!(a.iter().all(|r| r.k() == K));

        let (d1, r1) = delta_sequence(&features, 30);
        let (d2, r2) = delta_sequence(&features, 30);
        assert_eq!(r1, r2);
        assert_eq!(d1, d2);
        assert_eq!(r1.len(), 10);
        let mut unique = r1.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), r1.len(), "an id is removed twice");
    }

    #[test]
    fn forks_are_independent_streams() {
        let mut a = Rng::fork(1, SCHEDULE);
        let mut b = Rng::fork(1, STREAM);
        assert_ne!(a.next_u64(), b.next_u64());
        let mut r = Rng::fork(9, 0);
        for _ in 0..1_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
            assert!(r.below(13) < 13);
        }
    }
}
