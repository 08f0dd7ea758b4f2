//! Seeded input generation. Every workload input is a pure function of the
//! `--seed` argument and the workload's fixed shape: the shape (sequence
//! counts, mean lengths, query lengths, homolog density) is the same for
//! every seed, and the seed only changes residue content, subject lengths
//! and where homologs land. The program under test only ever sees the
//! generated files.

use bio_seq::alphabet::{Residue, ROBINSON_FREQS, STANDARD_AA};
use bio_seq::{Sequence, SequenceDb};

/// SplitMix64: small, fast, and fully specified, so inputs never depend on
/// a library's RNG implementation.
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.f64() * n as f64) as usize).min(n - 1)
    }
}

struct ResidueSampler {
    cdf: [f64; STANDARD_AA],
}

impl ResidueSampler {
    fn new() -> Self {
        let mut cdf = [0.0; STANDARD_AA];
        let mut acc = 0.0;
        for (c, p) in cdf.iter_mut().zip(ROBINSON_FREQS) {
            acc += p;
            *c = acc;
        }
        cdf[STANDARD_AA - 1] = 1.0;
        Self { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> Residue {
        let u = rng.f64();
        self.cdf.partition_point(|&c| c < u) as Residue
    }

    fn sample_other(&self, rng: &mut Rng, r: Residue) -> Residue {
        loop {
            let s = self.sample(rng);
            if s != r {
                return s;
            }
        }
    }

    fn random(&self, rng: &mut Rng, len: usize) -> Vec<Residue> {
        (0..len).map(|_| self.sample(rng)).collect()
    }
}

/// Log-normal subject length (sigma 0.45 of the underlying normal), the
/// long-tailed profile of NCBI protein databases.
fn lognormal_len(rng: &mut Rng, mean: usize) -> usize {
    const SIGMA: f64 = 0.45;
    let mu = (mean as f64).ln() - SIGMA * SIGMA / 2.0;
    let u1 = rng.f64().max(1e-12);
    let u2 = rng.f64();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    ((mu + SIGMA * z).exp().round() as usize).clamp(8, mean * 12)
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut Rng, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// Shape of a synthetic database: what stays fixed across seeds.
#[derive(Debug, Clone, Copy)]
pub struct DbShape {
    pub name: &'static str,
    pub subjects: usize,
    pub mean_len: usize,
    /// Share of subjects that carry a mutated copy of one query segment.
    pub homolog_share: f64,
}

/// Queries of the given lengths; ids carry the prefix, index and length.
pub fn make_queries(seed: u64, stream: u64, prefix: &str, lengths: &[usize]) -> Vec<Sequence> {
    let sampler = ResidueSampler::new();
    let mut rng = Rng::new(seed, stream);
    lengths
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            Sequence::from_residues(
                format!("{prefix}{i:03}_len{len}"),
                sampler.random(&mut rng, len),
            )
        })
        .collect()
}

/// `n` lengths spread evenly over `lo..=hi`.
pub fn spread(n: usize, lo: usize, hi: usize) -> Vec<usize> {
    (0..n)
        .map(|i| lo + (hi - lo) * i / (n - 1).max(1))
        .collect()
}

/// Generate a database of `shape` whose planted subjects (every k-th
/// subject, k fixed by the homolog share) carry homologs of `queries`,
/// assigned round-robin.
pub fn make_db(seed: u64, stream: u64, shape: &DbShape, queries: &[Sequence]) -> SequenceDb {
    let sampler = ResidueSampler::new();
    let mut rng = Rng::new(seed, stream);
    let planted =
        ((shape.subjects as f64 * shape.homolog_share).round() as usize).min(shape.subjects);
    let stride = shape.subjects.checked_div(planted).unwrap_or(usize::MAX);
    let mut sequences = Vec::with_capacity(shape.subjects);
    let mut next_query = 0usize;
    for i in 0..shape.subjects {
        let len = lognormal_len(&mut rng, shape.mean_len);
        let mut residues = sampler.random(&mut rng, len);
        if !queries.is_empty() && i % stride == 0 && i / stride < planted {
            let q = &queries[next_query % queries.len()];
            plant_homolog(&mut rng, &sampler, next_query, q.residues(), &mut residues);
            next_query += 1;
        }
        sequences.push(Sequence::from_residues(
            format!("{}_{i:06}", shape.name),
            residues,
        ));
    }
    SequenceDb::new(shape.name, sequences)
}

/// A copy of `db` in which every `every`-th subject is replaced by a fresh
/// random sequence of the same mean length: the next generation of a
/// database that receives writes.
pub fn rewrite_db(
    seed: u64,
    stream: u64,
    db: &SequenceDb,
    every: usize,
    mean_len: usize,
) -> SequenceDb {
    let sampler = ResidueSampler::new();
    let mut rng = Rng::new(seed, stream);
    let sequences = db
        .sequences()
        .iter()
        .enumerate()
        .map(|(i, s)| {
            if i % every == every / 2 {
                let len = lognormal_len(&mut rng, mean_len);
                Sequence::from_residues(s.id.clone(), sampler.random(&mut rng, len))
            } else {
                s.clone()
            }
        })
        .collect();
    SequenceDb::new(db.name(), sequences)
}

/// Overwrite a window of `subject` with a copy of part of `query` at
/// about 60 % identity, with a 1–3 residue indel on every other planted
/// subject, so the gapped stage and traceback have real work. The copied
/// share (30–90 % of the query) and the indels follow the planted index
/// `k`, not the seed: how much gapped work the homologs carry is part of
/// the workload's shape, and the seed only moves content and positions.
fn plant_homolog(
    rng: &mut Rng,
    sampler: &ResidueSampler,
    k: usize,
    query: &[Residue],
    subject: &mut Vec<Residue>,
) {
    let qlen = query.len();
    if qlen < 12 {
        return;
    }
    // Golden-ratio sequence: evenly spread shares for any planted count.
    let frac = 0.3 + 0.6 * (k as f64 * 0.618_033_988_749_895).fract();
    let seg_len = ((qlen as f64 * frac) as usize).clamp(10, qlen);
    let q_start = rng.below(qlen - seg_len + 1);
    let mut segment: Vec<Residue> = query[q_start..q_start + seg_len]
        .iter()
        .map(|&r| {
            if rng.f64() < 0.4 {
                sampler.sample_other(rng, r)
            } else {
                r
            }
        })
        .collect();
    if segment.len() > 20 && k % 2 == 0 {
        let pos = 5 + rng.below(segment.len() - 10);
        let len = 1 + (k / 4) % 3;
        if k % 4 == 0 {
            for _ in 0..len {
                let r = sampler.sample(rng);
                segment.insert(pos, r);
            }
        } else {
            segment.drain(pos..pos + len);
        }
    }
    if segment.len() >= subject.len() {
        *subject = segment;
    } else {
        let s_start = rng.below(subject.len() - segment.len() + 1);
        subject[s_start..s_start + segment.len()].copy_from_slice(&segment);
    }
}

/// FNV-1a over a byte stream: a stable digest for inputs and reports.
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self
    }

    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a set of sequences (ids and residues, in order).
pub fn digest_sequences(seqs: &[Sequence]) -> u64 {
    let mut d = Digest::new();
    for s in seqs {
        d.bytes(s.id.as_bytes())
            .u64(s.len() as u64)
            .bytes(s.residues());
    }
    d.finish()
}
