//! Dense-vector retrieval: concept embeddings, the [`VectorStore`], and a
//! dependency-free NSW-lite approximate index.
//!
//! The paper's headline service — "rank all concepts by similarity to a
//! query" — is an O(n) scan per request on the measure paths. This module
//! is the sub-linear counterpart: every concept's TF-IDF document vector
//! (the toolkit's resident TF-IDF artifact) is projected into a
//! fixed-dimension dense embedding by a *deterministic signed random
//! projection*, the embeddings live in a row-major matrix, and top-k
//! retrieval runs either as an exact brute-force scan (the reference
//! path, bit-identical to the naive facade scan under the
//! `dense_vector` measure) or through a navigable-small-world proximity
//! graph searched with a bounded best-first beam.
//!
//! Determinism is load-bearing everywhere:
//! * the projection is seeded per term id, so the same corpus always
//!   embeds to the same bits — on the naive per-pair path, the prepared
//!   batch path, and the store build alike;
//! * graph insertion order is a seeded shuffle and every neighbor
//!   selection ties to the lower row id, so the graph layout (and
//!   therefore every approximate result) is a pure function of the
//!   corpus;
//! * query-time beam search is seeded at the query's own row, so the
//!   query concept always appears in its own candidate set (score 1.0),
//!   exactly as on the exact scan.
//!
//! Embeddings can be exported to (and reloaded from) a small checksummed
//! binary format governed by [`sst_limits::Limits`], for the offline
//! derive-once/serve-many flow.

use std::collections::HashMap;
use std::fmt;

use sst_index::TermId;
use sst_limits::{Budget, LimitViolation, Limits};
use sst_simpack::{dense_dot, dense_is_zero, dense_normalize};
use sst_soqa::GlobalConcept;

/// Embedding width of the toolkit-built store. 64 dimensions keep a
/// million-concept matrix at half a gigabyte while a signed random
/// projection still preserves TF-IDF cosine order well enough for
/// recall@10 ≥ 0.95 under the default probe width (see `ann_bench`).
pub const EMBED_DIM: usize = 64;

/// Seed of the per-term sign streams of [`embed_tfidf`].
const PROJECTION_SEED: u64 = 0x5353_5456_4543_5631; // "SSTVEC1" as bytes

/// Seed of the deterministic graph-insertion shuffle.
const GRAPH_SEED: u64 = 0x4e53_575f_4c49_5445; // "NSW_LITE"

/// Edges added per inserted node (to its `GRAPH_M` nearest already
/// inserted rows, bidirectionally).
const GRAPH_M: usize = 16;

/// Adjacency cap: lists that overflow under bidirectional inserts are
/// pruned back to their `GRAPH_M_MAX` best edges.
const GRAPH_M_MAX: usize = 32;

/// Beam width of the construction-time neighbor search.
const EF_CONSTRUCTION: usize = 96;

/// Default beam width of [`VectorStore::approx_candidates`]: empirically
/// recall@10 ≥ 0.95 on TF-IDF projections while touching a
/// corpus-size-independent number of rows (see `results/BENCH_ann.json`).
const DEFAULT_EF: usize = 96;

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// One SplitMix64 step — the same generator `sst-bench` vendors, inlined
/// here because `sst-core` must not depend on the bench crate.
fn splitmix_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(SPLITMIX_GAMMA);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Projects a sparse TF-IDF vector into a unit-norm dense embedding of
/// `dim` components by a signed random projection: every term id seeds
/// its own deterministic ±1 sign stream, and each term adds
/// `weight · sign(term, d)` to component `d`. Equal inputs produce
/// bit-equal outputs, which is what keeps the naive runner, the prepared
/// batch path, and the [`VectorStore`] mutually bit-identical. An empty
/// input (a concept with no indexed description) embeds to the zero
/// vector, which every similarity path scores 0 against.
pub fn embed_tfidf(tfidf: &[(TermId, f64)], dim: usize) -> Vec<f64> {
    let mut acc = vec![0.0; dim];
    for &(term, weight) in tfidf {
        let mut state = u64::from(term.0).wrapping_mul(SPLITMIX_GAMMA) ^ PROJECTION_SEED;
        let mut bits = 0u64;
        let mut left = 0u32;
        for slot in acc.iter_mut() {
            if left == 0 {
                bits = splitmix_next(&mut state);
                left = 64;
            }
            let sign = if bits & 1 == 1 { 1.0 } else { -1.0 };
            bits >>= 1;
            left -= 1;
            *slot += weight * sign;
        }
    }
    dense_normalize(&mut acc);
    acc
}

/// A `(dot product, row)` pair with a strict deterministic order: higher
/// dot first, ties to the lower row id. Drives every heap and every
/// neighbor selection in the graph, so search results are a pure
/// function of the matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Scored {
    dot: f64,
    row: u32,
}

impl Eq for Scored {}

impl Ord for Scored {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dot
            .total_cmp(&other.dot)
            .then_with(|| other.row.cmp(&self.row))
    }
}

impl PartialOrd for Scored {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// NSW-lite proximity graph: one navigable small-world layer, searched
/// with a bounded best-first beam. Nodes are store rows; edges connect
/// each row to its (approximately) nearest neighbors by embedding dot
/// product. Greedy beam search from a seed node converges on the query's
/// neighborhood while touching a corpus-size-independent number of rows,
/// which is what makes `most_similar_approx` sub-linear.
#[derive(Debug)]
struct NswGraph {
    /// Adjacency lists, row-aligned with the store matrix.
    neighbors: Vec<Vec<u32>>,
    /// Fixed entry node (first row of the deterministic insertion order)
    /// used while the graph is under construction.
    entry: u32,
}

impl NswGraph {
    /// Best-first beam search: returns the `ef` best rows reachable from
    /// `entry`, ordered by descending dot (ties to the lower row). The
    /// beam stops once the best unexpanded candidate scores below the
    /// worst of `ef` results — the classic HNSW layer-search loop, here
    /// on the single layer.
    fn search(
        &self,
        rows: &[f64],
        dim: usize,
        query: &[f64],
        ef: usize,
        entry: u32,
    ) -> Vec<Scored> {
        let n = self.neighbors.len();
        if n == 0 || (entry as usize) >= n {
            return Vec::new();
        }
        let ef = ef.max(1);
        let row_at = |i: usize| {
            let start = i * dim;
            let end = start.saturating_add(dim);
            rows.get(start..end).unwrap_or(&[])
        };
        let mut visited = vec![false; n];
        visited[entry as usize] = true;
        let seed = Scored {
            dot: dense_dot(row_at(entry as usize), query),
            row: entry,
        };
        // Frontier: max-heap of unexpanded nodes. Results: min-heap of
        // the best `ef` seen so far (worst on top, ready to evict).
        let mut frontier = std::collections::BinaryHeap::from([seed]);
        let mut results = std::collections::BinaryHeap::from([std::cmp::Reverse(seed)]);
        while let Some(best) = frontier.pop() {
            if results.len() >= ef {
                if let Some(&std::cmp::Reverse(worst)) = results.peek() {
                    if best < worst {
                        break;
                    }
                }
            }
            for &nb in self
                .neighbors
                .get(best.row as usize)
                .map(Vec::as_slice)
                .unwrap_or(&[])
            {
                let i = nb as usize;
                if visited.get(i).copied().unwrap_or(true) {
                    continue;
                }
                visited[i] = true;
                let cand = Scored {
                    dot: dense_dot(row_at(i), query),
                    row: nb,
                };
                let admit = results.len() < ef
                    || results
                        .peek()
                        .is_some_and(|&std::cmp::Reverse(worst)| cand > worst);
                if admit {
                    frontier.push(cand);
                    results.push(std::cmp::Reverse(cand));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut out: Vec<Scored> = results.into_iter().map(|r| r.0).collect();
        out.sort_by(|a, b| b.cmp(a));
        out
    }
}

/// Builds the proximity graph over the store matrix. Rows are inserted
/// in a seeded shuffled order (taxonomy order would chain near-duplicate
/// siblings and starve long-range links); each new row is connected
/// bidirectionally to its `GRAPH_M` best already-inserted rows found by
/// a construction-width beam search, and adjacency lists are pruned back
/// to the `GRAPH_M_MAX` best edges when they overflow. Every choice ties
/// to the lower row id, so the layout is a pure function of the matrix.
fn build_nsw(rows: &[f64], dim: usize, n: usize) -> NswGraph {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut state = GRAPH_SEED;
    for i in (1..n).rev() {
        let j = (splitmix_next(&mut state) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    let row_at = |i: usize| {
        let start = i * dim;
        let end = start.saturating_add(dim);
        rows.get(start..end).unwrap_or(&[])
    };
    let mut graph = NswGraph {
        neighbors: vec![Vec::new(); n],
        entry: order.first().copied().unwrap_or(0),
    };
    let prune = |lists: &mut Vec<Vec<u32>>, node: u32| {
        let list = &mut lists[node as usize];
        if list.len() <= GRAPH_M_MAX {
            return;
        }
        let base = row_at(node as usize);
        list.sort_by(|&a, &b| {
            let sa = Scored {
                dot: dense_dot(row_at(a as usize), base),
                row: a,
            };
            let sb = Scored {
                dot: dense_dot(row_at(b as usize), base),
                row: b,
            };
            sb.cmp(&sa)
        });
        list.truncate(GRAPH_M_MAX);
    };
    for &v in order.iter().skip(1) {
        let found = graph.search(rows, dim, row_at(v as usize), EF_CONSTRUCTION, graph.entry);
        for link in found.iter().take(GRAPH_M) {
            graph.neighbors[v as usize].push(link.row);
            graph.neighbors[link.row as usize].push(v);
            prune(&mut graph.neighbors, link.row);
        }
    }
    graph
}

/// The per-concept embedding matrix with exact and approximate top-k
/// retrieval. Rows are unit (or zero) vectors in toolkit concept order;
/// the exact scan is the reference path, bit-identical to ranking with
/// the `dense_vector` measure on the naive facade scan.
pub struct VectorStore {
    dim: usize,
    concepts: Vec<GlobalConcept>,
    /// Qualified concept names, row-aligned (the stable identity used by
    /// the binary format).
    labels: Vec<String>,
    /// Row-major `n × dim` matrix of unit/zero vectors.
    vectors: Vec<f64>,
    /// Per row: the embedding is the zero vector (no description).
    zero: Vec<bool>,
    positions: HashMap<GlobalConcept, usize>,
    graph: Option<NswGraph>,
}

impl fmt::Debug for VectorStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VectorStore")
            .field("len", &self.len())
            .field("dim", &self.dim)
            .field("default_probe", &self.default_probe())
            .finish()
    }
}

impl VectorStore {
    /// Builds a store from `(concept, qualified name, embedding)` rows.
    /// Embeddings must be unit or zero vectors of width `dim` (shorter
    /// rows are zero-padded); [`embed_tfidf`] produces exactly that.
    pub fn from_rows(rows: Vec<(GlobalConcept, String, Vec<f64>)>, dim: usize) -> VectorStore {
        let n = rows.len();
        let mut concepts = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        let mut vectors = Vec::with_capacity(n * dim);
        let mut zero = Vec::with_capacity(n);
        let mut positions = HashMap::with_capacity(n);
        for (i, (gc, label, mut v)) in rows.into_iter().enumerate() {
            v.resize(dim, 0.0);
            zero.push(dense_is_zero(&v));
            vectors.extend_from_slice(&v);
            positions.entry(gc).or_insert(i);
            concepts.push(gc);
            labels.push(label);
        }
        let graph = if n > 0 {
            Some(build_nsw(&vectors, dim, n))
        } else {
            None
        };
        VectorStore {
            dim,
            concepts,
            labels,
            vectors,
            zero,
            positions,
            graph,
        }
    }

    /// Number of stored concepts.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// Embedding width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Default probe (beam) width of [`VectorStore::approx_candidates`].
    pub fn default_probe(&self) -> usize {
        if self.is_empty() {
            0
        } else {
            DEFAULT_EF
        }
    }

    /// Row of `gc`, if stored.
    pub fn position(&self, gc: GlobalConcept) -> Option<usize> {
        self.positions.get(&gc).copied()
    }

    /// Concept at `row`.
    pub fn concept(&self, row: usize) -> Option<GlobalConcept> {
        self.concepts.get(row).copied()
    }

    /// Qualified name at `row`.
    pub fn label(&self, row: usize) -> Option<&str> {
        self.labels.get(row).map(String::as_str)
    }

    /// The embedding at `row` (empty slice when out of range).
    pub fn row(&self, row: usize) -> &[f64] {
        let start = row * self.dim;
        let end = start.saturating_add(self.dim);
        self.vectors.get(start..end).unwrap_or(&[])
    }

    /// Shifted-unit-cosine similarity of two rows, with the identity
    /// axiom: the same row scores 1.0 even when its embedding is zero —
    /// matching the `dense_vector` runner's concept-identity guard, so
    /// store scores and measure scores agree bit-for-bit.
    pub fn similarity(&self, a: usize, b: usize) -> f64 {
        if a == b {
            return 1.0;
        }
        if self.zero.get(a).copied().unwrap_or(true) || self.zero.get(b).copied().unwrap_or(true) {
            return 0.0;
        }
        (0.5 * (1.0 + dense_dot(self.row(a), self.row(b)))).clamp(0.0, 1.0)
    }

    /// Exact reference path: the query row scored against every row, in
    /// row order. Sorting `(row, score)` by the facade's shared rank
    /// comparator and truncating at `k` is bit-identical to the naive
    /// facade scan under the `dense_vector` measure.
    pub fn scores_exact(&self, query: usize) -> Vec<(usize, f64)> {
        (0..self.len())
            .map(|row| (row, self.similarity(query, row)))
            .collect()
    }

    /// Approximate path: the `probe` best rows found by a beam search of
    /// the proximity graph, seeded at the query's own row — so the beam
    /// starts at the optimum and the query is always among the
    /// candidates. Per-query cost scales with `probe`, not corpus size.
    /// Pass [`VectorStore::default_probe`] for the tuned default; larger
    /// values trade latency for recall, and `probe ≥ len` degenerates to
    /// the exact scan (bit-identical scores).
    pub fn approx_candidates(&self, query: usize, probe: usize) -> Vec<(usize, f64)> {
        if query >= self.len() {
            return Vec::new();
        }
        if probe >= self.len() {
            return self.scores_exact(query);
        }
        let Some(graph) = self.graph.as_ref() else {
            return Vec::new();
        };
        let found = graph.search(
            &self.vectors,
            self.dim,
            self.row(query),
            probe,
            query as u32,
        );
        let mut out: Vec<(usize, f64)> = found
            .into_iter()
            .map(|s| {
                let row = s.row as usize;
                (row, self.similarity(query, row))
            })
            .collect();
        if !out.iter().any(|&(row, _)| row == query) {
            out.push((query, 1.0));
        }
        out
    }

    // ---- checksummed binary format ------------------------------------

    /// Serializes the embedding matrix (not the proximity graph — that is
    /// deterministically rebuilt on load): a magic/version header, the
    /// dimension and row count, label + vector per row, and a trailing
    /// FNV-1a checksum over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(FORMAT_MAGIC);
        out.extend_from_slice(&(self.dim as u32).to_le_bytes());
        out.extend_from_slice(&(self.len() as u64).to_le_bytes());
        for (label, row) in self.labels.iter().zip(self.vectors.chunks(self.dim.max(1))) {
            out.extend_from_slice(&(label.len() as u32).to_le_bytes());
            out.extend_from_slice(label.as_bytes());
            for v in row {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }
}

/// Magic + version prefix of the embedding file format.
pub const FORMAT_MAGIC: &[u8; 8] = b"SSTVEC1\n";

/// Upper bound on the embedding width the loader accepts; far above any
/// width the toolkit produces, low enough that `count · dim · 8` cannot
/// overflow the input-size check.
const MAX_FORMAT_DIM: usize = 4096;

pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A parse failure of the embedding binary format.
#[derive(Debug, Clone, PartialEq)]
pub enum VectorFormatError {
    /// The input ended before the named field.
    Truncated(&'static str),
    /// The magic/version prefix does not match [`FORMAT_MAGIC`].
    BadMagic,
    /// Dimension outside `1..=4096`.
    BadDimension(usize),
    /// A row label is not valid UTF-8.
    BadLabel(usize),
    /// Trailing bytes after the checksum.
    TrailingBytes(usize),
    /// The stored checksum does not match the content.
    Checksum { expected: u64, actual: u64 },
    /// A resource limit was exceeded while loading.
    Limit(LimitViolation),
}

impl fmt::Display for VectorFormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VectorFormatError::Truncated(what) => {
                write!(f, "vector file truncated at {what}")
            }
            VectorFormatError::BadMagic => write!(f, "not an SSTVEC1 vector file"),
            VectorFormatError::BadDimension(d) => {
                write!(f, "vector dimension {d} outside 1..={MAX_FORMAT_DIM}")
            }
            VectorFormatError::BadLabel(row) => {
                write!(f, "row {row} label is not valid UTF-8")
            }
            VectorFormatError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after checksum")
            }
            VectorFormatError::Checksum { expected, actual } => write!(
                f,
                "checksum mismatch: stored {expected:#018x}, computed {actual:#018x}"
            ),
            VectorFormatError::Limit(v) => write!(f, "vector file over limit: {v}"),
        }
    }
}

impl std::error::Error for VectorFormatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            VectorFormatError::Limit(v) => Some(v),
            _ => None,
        }
    }
}

impl From<LimitViolation> for VectorFormatError {
    fn from(v: LimitViolation) -> Self {
        VectorFormatError::Limit(v)
    }
}

/// A decoded embedding file: rows of `(qualified name, vector)`. The
/// facade re-resolves labels against its registered concepts when
/// importing into a [`VectorStore`].
#[derive(Debug, Clone, PartialEq)]
pub struct DenseVectorFile {
    pub dim: usize,
    pub rows: Vec<(String, Vec<f64>)>,
}

/// Byte-slice cursor for the loader; every read is bounds-checked.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], VectorFormatError> {
        let end = self.pos.saturating_add(n);
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or(VectorFormatError::Truncated(what))?;
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self, what: &'static str) -> Result<u32, VectorFormatError> {
        let b = self.take(4, what)?;
        let mut le = [0u8; 4];
        le.copy_from_slice(b);
        Ok(u32::from_le_bytes(le))
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, VectorFormatError> {
        let b = self.take(8, what)?;
        let mut le = [0u8; 8];
        le.copy_from_slice(b);
        Ok(u64::from_le_bytes(le))
    }

    fn f64(&mut self, what: &'static str) -> Result<f64, VectorFormatError> {
        Ok(f64::from_bits(self.u64(what)?))
    }
}

impl DenseVectorFile {
    /// Decodes and validates an embedding file under `limits`: the whole
    /// input is bounded by `max_input_bytes`, each label by
    /// `max_literal_bytes`, and the row count by `max_items`. The
    /// checksum is verified before any row is returned.
    pub fn from_bytes(bytes: &[u8], limits: &Limits) -> Result<DenseVectorFile, VectorFormatError> {
        let mut budget = Budget::new(limits);
        budget.check_input(bytes.len(), "vector file")?;

        // Verify the checksum first: a flipped byte anywhere must be a
        // checksum error, not an arbitrary downstream parse error.
        let body_len = bytes
            .len()
            .checked_sub(8)
            .ok_or(VectorFormatError::Truncated("checksum"))?;
        let body = bytes.get(..body_len).unwrap_or(&[]);
        let stored = bytes.get(body_len..).unwrap_or(&[]);
        let mut le = [0u8; 8];
        if stored.len() == 8 {
            le.copy_from_slice(stored);
        }
        let expected = u64::from_le_bytes(le);
        let actual = fnv1a(body);
        if expected != actual {
            return Err(VectorFormatError::Checksum { expected, actual });
        }

        let mut cur = Cursor {
            bytes: body,
            pos: 0,
        };
        if cur.take(FORMAT_MAGIC.len(), "magic")? != FORMAT_MAGIC {
            return Err(VectorFormatError::BadMagic);
        }
        let dim = cur.u32("dimension")? as usize;
        if dim == 0 || dim > MAX_FORMAT_DIM {
            return Err(VectorFormatError::BadDimension(dim));
        }
        let count = cur.u64("row count")?;
        let mut rows = Vec::new();
        for i in 0..count {
            budget.item("vector row")?;
            let label_len = cur.u32("label length")? as usize;
            budget.check_literal(label_len, "vector label")?;
            let label = std::str::from_utf8(cur.take(label_len, "label")?)
                .map_err(|_| VectorFormatError::BadLabel(i as usize))?
                .to_owned();
            let mut v = Vec::with_capacity(dim);
            for _ in 0..dim {
                v.push(cur.f64("vector component")?);
            }
            rows.push((label, v));
        }
        if cur.pos != body.len() {
            return Err(VectorFormatError::TrailingBytes(body.len() - cur.pos));
        }
        Ok(DenseVectorFile { dim, rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gc(i: u32) -> GlobalConcept {
        GlobalConcept {
            ontology: 0,
            concept: sst_soqa::ConceptId(i),
        }
    }

    fn unit(components: &[f64]) -> Vec<f64> {
        let mut v = components.to_vec();
        dense_normalize(&mut v);
        v
    }

    fn tiny_store() -> VectorStore {
        let rows = vec![
            (gc(0), "o:a".to_owned(), unit(&[1.0, 0.0, 0.0, 0.0])),
            (gc(1), "o:b".to_owned(), unit(&[0.9, 0.1, 0.0, 0.0])),
            (gc(2), "o:c".to_owned(), unit(&[0.0, 1.0, 0.0, 0.0])),
            (gc(3), "o:d".to_owned(), vec![0.0; 4]),
        ];
        VectorStore::from_rows(rows, 4)
    }

    #[test]
    fn embed_is_deterministic_and_unit_norm() {
        let tfidf = vec![(TermId(3), 0.5), (TermId(17), 1.25), (TermId(90000), 0.75)];
        let a = embed_tfidf(&tfidf, EMBED_DIM);
        let b = embed_tfidf(&tfidf, EMBED_DIM);
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert!(dense_is_zero(&embed_tfidf(&[], EMBED_DIM)));
    }

    #[test]
    fn embed_preserves_self_similarity_structure() {
        // A vector far from another in TF-IDF space should project far
        // in embedding space more often than not; at minimum, identical
        // inputs must coincide and disjoint supports must differ.
        let x = embed_tfidf(&[(TermId(1), 1.0), (TermId(2), 1.0)], EMBED_DIM);
        let y = embed_tfidf(&[(TermId(1), 1.0), (TermId(2), 1.0)], EMBED_DIM);
        let z = embed_tfidf(&[(TermId(7), 1.0), (TermId(8), 1.0)], EMBED_DIM);
        assert_eq!(x, y);
        assert_ne!(x, z);
    }

    #[test]
    fn store_identity_and_zero_axioms() {
        let s = tiny_store();
        assert_eq!(s.similarity(0, 0), 1.0);
        assert_eq!(s.similarity(3, 3), 1.0); // identity even for zero rows
        assert_eq!(s.similarity(3, 0), 0.0);
        assert_eq!(s.similarity(0, 3), 0.0);
        let close = s.similarity(0, 1);
        let far = s.similarity(0, 2);
        assert!(close > far);
        assert!((0.0..=1.0).contains(&close) && (0.0..=1.0).contains(&far));
    }

    #[test]
    fn exact_scores_cover_every_row_in_order() {
        let s = tiny_store();
        let scores = s.scores_exact(1);
        assert_eq!(scores.len(), 4);
        assert_eq!(scores[1], (1, 1.0));
        for (i, &(row, _)) in scores.iter().enumerate() {
            assert_eq!(row, i);
        }
    }

    #[test]
    fn approx_candidates_always_include_the_query() {
        let s = tiny_store();
        for q in 0..s.len() {
            let cands = s.approx_candidates(q, 1);
            assert!(
                cands.iter().any(|&(row, score)| row == q && score == 1.0),
                "query {q} missing from its own candidates"
            );
        }
    }

    #[test]
    fn full_probe_matches_exact_scores() {
        let s = tiny_store();
        let mut exact = s.scores_exact(0);
        let mut approx = s.approx_candidates(0, s.len());
        exact.sort_by_key(|a| a.0);
        approx.sort_by_key(|a| a.0);
        // A corpus-wide probe must see every row exactly once, with
        // bit-identical scores.
        assert_eq!(exact.len(), approx.len());
        for (e, a) in exact.iter().zip(&approx) {
            assert_eq!(e.0, a.0);
            assert_eq!(e.1.to_bits(), a.1.to_bits());
        }
    }

    #[test]
    fn format_round_trips() {
        let s = tiny_store();
        let bytes = s.to_bytes();
        let file = DenseVectorFile::from_bytes(&bytes, &Limits::default()).unwrap();
        assert_eq!(file.dim, 4);
        assert_eq!(file.rows.len(), 4);
        assert_eq!(file.rows[0].0, "o:a");
        for (i, (_, v)) in file.rows.iter().enumerate() {
            assert_eq!(v, s.row(i));
        }
    }

    #[test]
    fn format_rejects_corruption() {
        let s = tiny_store();
        let good = s.to_bytes();

        // Flip one payload byte: checksum error.
        let mut flipped = good.clone();
        flipped[10] ^= 0xff;
        assert!(matches!(
            DenseVectorFile::from_bytes(&flipped, &Limits::default()),
            Err(VectorFormatError::Checksum { .. })
        ));

        // Truncate: error, not a panic.
        assert!(DenseVectorFile::from_bytes(&good[..good.len() - 3], &Limits::default()).is_err());
        assert!(DenseVectorFile::from_bytes(&[], &Limits::default()).is_err());

        // Wrong magic with a recomputed checksum: BadMagic.
        let mut wrong = good[..good.len() - 8].to_vec();
        wrong[0] = b'X';
        let sum = fnv1a(&wrong);
        wrong.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            DenseVectorFile::from_bytes(&wrong, &Limits::default()),
            Err(VectorFormatError::BadMagic)
        ));
    }

    #[test]
    fn format_is_governed_by_limits() {
        let s = tiny_store();
        let bytes = s.to_bytes();
        let tight = Limits::default().with_max_input_bytes(8);
        assert!(matches!(
            DenseVectorFile::from_bytes(&bytes, &tight),
            Err(VectorFormatError::Limit(_))
        ));
        let few_items = Limits::default().with_max_items(2);
        assert!(matches!(
            DenseVectorFile::from_bytes(&bytes, &few_items),
            Err(VectorFormatError::Limit(_))
        ));
    }

    #[test]
    fn graph_layout_is_deterministic() {
        let rows: Vec<(GlobalConcept, String, Vec<f64>)> = (0..64)
            .map(|i| {
                let tfidf = vec![(TermId(i), 1.0), (TermId(i / 4), 0.5)];
                (gc(i), format!("o:c{i}"), embed_tfidf(&tfidf, 8))
            })
            .collect();
        let a = VectorStore::from_rows(rows.clone(), 8);
        let b = VectorStore::from_rows(rows, 8);
        assert_eq!(a.default_probe(), b.default_probe());
        for q in 0..a.len() {
            assert_eq!(a.approx_candidates(q, 12), b.approx_candidates(q, 12));
        }
    }

    #[test]
    fn beam_search_finds_true_neighbors_on_a_structured_corpus() {
        // 20 clusters of 16 near-duplicate rows each: a beam of 32 must
        // recover the query's own cluster as its top candidates.
        let rows: Vec<(GlobalConcept, String, Vec<f64>)> = (0..320u32)
            .map(|i| {
                let cluster = i / 16;
                let tfidf = vec![(TermId(cluster), 4.0), (TermId(1000 + i), 0.5)];
                (gc(i), format!("o:c{i}"), embed_tfidf(&tfidf, 16))
            })
            .collect();
        let s = VectorStore::from_rows(rows, 16);
        for q in [0usize, 17, 155, 319] {
            let cands = s.approx_candidates(q, 32);
            let cluster = (q as u32) / 16;
            let mut top: Vec<(usize, f64)> = cands.clone();
            top.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            let in_cluster = top
                .iter()
                .take(16)
                .filter(|&&(row, _)| (row as u32) / 16 == cluster)
                .count();
            assert!(
                in_cluster >= 14,
                "query {q}: only {in_cluster}/16 of the top candidates are in its cluster"
            );
        }
    }
}
