//! Seeded request generation.
//!
//! Everything the program under test receives is produced here from the
//! workload seed and the corpus concept list: the same seed yields the
//! same request sequence byte for byte. Traffic mixes are dealt in
//! shuffled blocks with exact per-class counts, so any prefix of a
//! stream realises the mix to within one block, and the shape guards
//! can hold the realised mix to one point of the weights.

use std::collections::VecDeque;

/// SplitMix64 (Steele, Lea & Flood 2014): a tiny, platform-stable PRNG.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// A servable concept address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Concept {
    pub name: String,
    pub ontology: String,
}

/// The similarity measures the serve workloads exercise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Measure {
    Levenshtein,
    Lin,
    ConceptualSimilarity,
    Tfidf,
}

impl Measure {
    pub const ALL: [Measure; 4] = [
        Measure::Levenshtein,
        Measure::Lin,
        Measure::ConceptualSimilarity,
        Measure::Tfidf,
    ];

    /// The registered measure name (also what requests send).
    pub fn name(self) -> &'static str {
        match self {
            Measure::Levenshtein => "levenshtein",
            Measure::Lin => "lin",
            Measure::ConceptualSimilarity => "wu_palmer",
            Measure::Tfidf => "tfidf",
        }
    }

    /// The name metric rows use (`measure_ids` naming).
    pub fn label(self) -> &'static str {
        match self {
            Measure::ConceptualSimilarity => "conceptual_similarity",
            other => other.name(),
        }
    }
}

/// `k` of every `/rank` request.
pub const RANK_K: usize = 10;

/// SOQA-QL queries of the hot mix (`POST /ql`).
pub const QL_QUERIES: [&str; 4] = [
    "SELECT name FROM concepts OF 'univ-bench_owl' WHERE name LIKE 'P%' ORDER BY name",
    "SELECT COUNT(*) FROM concepts WHERE depth >= 2",
    "SELECT name, concept_count FROM ontology ORDER BY name",
    "SELECT name FROM concepts OF 'swrc_owl' WHERE depth > 2 ORDER BY name LIMIT 20",
];

/// `(source, target)` ontologies of the cold mix's `POST /align`.
pub const ALIGN_PAIRS: [(&str, &str); 2] = [
    ("univ-bench_owl", "swrc_owl"),
    ("base1_0_daml", "univ-bench_owl"),
];

/// One request; concepts are indices into the corpus concept list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Request {
    Rank {
        concept: usize,
        measure: Measure,
    },
    Approx {
        concept: usize,
    },
    Similarity {
        first: usize,
        second: usize,
        measure: Measure,
    },
    Ql(usize),
    Metrics,
    Align(usize),
}

/// A request class: the unit of the mix weights and of per-class stats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Rank(MeasureKey),
    Approx,
    Similarity(MeasureKey),
    Ql,
    Metrics,
    Align,
}

/// [`Measure`] with an ordering, for sorted class reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MeasureKey(u8);

impl MeasureKey {
    pub fn of(m: Measure) -> MeasureKey {
        MeasureKey(m as u8)
    }

    pub fn measure(self) -> Measure {
        Measure::ALL[usize::from(self.0)]
    }
}

impl Class {
    pub fn label(self) -> String {
        match self {
            Class::Rank(m) => format!("rank.{}", m.measure().label()),
            Class::Approx => "rank.approx".to_owned(),
            Class::Similarity(m) => format!("similarity.{}", m.measure().label()),
            Class::Ql => "ql".to_owned(),
            Class::Metrics => "metrics".to_owned(),
            Class::Align => "align".to_owned(),
        }
    }
}

impl Request {
    pub fn class(&self) -> Class {
        match *self {
            Request::Rank { measure, .. } => Class::Rank(MeasureKey::of(measure)),
            Request::Approx { .. } => Class::Approx,
            Request::Similarity { measure, .. } => Class::Similarity(MeasureKey::of(measure)),
            Request::Ql(_) => Class::Ql,
            Request::Metrics => Class::Metrics,
            Request::Align(_) => Class::Align,
        }
    }

    /// `(method, path, query pairs, body)` — the decoded request, as the
    /// server's parser would produce it.
    pub fn parts(
        &self,
        concepts: &[Concept],
    ) -> (&'static str, &'static str, Vec<(String, String)>, String) {
        let c = |i: usize| {
            concepts.get(i).cloned().unwrap_or(Concept {
                name: String::new(),
                ontology: String::new(),
            })
        };
        let pair = |k: &str, v: &str| (k.to_owned(), v.to_owned());
        match *self {
            Request::Rank { concept, measure } => {
                let c = c(concept);
                let q = vec![
                    pair("concept", &c.name),
                    pair("ontology", &c.ontology),
                    pair("k", &RANK_K.to_string()),
                    pair("measure", measure.name()),
                ];
                ("GET", "/rank", q, String::new())
            }
            Request::Approx { concept } => {
                let c = c(concept);
                let q = vec![
                    pair("concept", &c.name),
                    pair("ontology", &c.ontology),
                    pair("k", &RANK_K.to_string()),
                    pair("approx", "true"),
                ];
                ("GET", "/rank", q, String::new())
            }
            Request::Similarity {
                first,
                second,
                measure,
            } => {
                let (a, b) = (c(first), c(second));
                let q = vec![
                    pair("first", &a.name),
                    pair("first_ontology", &a.ontology),
                    pair("second", &b.name),
                    pair("second_ontology", &b.ontology),
                    pair("measure", measure.name()),
                ];
                ("GET", "/similarity", q, String::new())
            }
            Request::Ql(i) => (
                "POST",
                "/ql",
                Vec::new(),
                QL_QUERIES.get(i).copied().unwrap_or_default().to_owned(),
            ),
            Request::Metrics => ("GET", "/metrics", Vec::new(), String::new()),
            Request::Align(i) => {
                let (s, t) = ALIGN_PAIRS.get(i).copied().unwrap_or_default();
                (
                    "POST",
                    "/align",
                    Vec::new(),
                    format!("{{\"source\":\"{s}\",\"target\":\"{t}\"}}"),
                )
            }
        }
    }

    /// The complete HTTP/1.1 request bytes.
    pub fn wire(&self, concepts: &[Concept]) -> Vec<u8> {
        let (method, path, query, body) = self.parts(concepts);
        let mut target = path.to_owned();
        for (i, (k, v)) in query.iter().enumerate() {
            target.push(if i == 0 { '?' } else { '&' });
            target.push_str(&percent_encode(k));
            target.push('=');
            target.push_str(&percent_encode(v));
        }
        let mut out = format!("{method} {target} HTTP/1.1\r\nhost: 127.0.0.1\r\n");
        if method == "POST" {
            out.push_str(&format!("content-length: {}\r\n", body.len()));
        }
        out.push_str("\r\n");
        out.push_str(&body);
        out.into_bytes()
    }
}

/// Percent-encodes everything outside RFC 3986's unreserved set.
pub fn percent_encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'_' | b'.' | b'~') {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The two serve traffic shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Hot,
    Cold,
}

/// Hot mix, per block of 100: 74 `/rank` (half per hot measure), 20
/// `/similarity` on hot pairs, 5 `POST /ql`, 1 `/metrics`.
pub const HOT_MIX: [(Class, usize); 6] = [
    (Class::Rank(MeasureKey(0)), 37),
    (Class::Rank(MeasureKey(3)), 37),
    (Class::Similarity(MeasureKey(0)), 10),
    (Class::Similarity(MeasureKey(3)), 10),
    (Class::Ql, 5),
    (Class::Metrics, 1),
];

/// Cold mix, per block of 20: 45% levenshtein, 15% lin, 15%
/// conceptual_similarity, 10% tfidf, 10% approximate rank, 5% align.
pub const COLD_MIX: [(Class, usize); 6] = [
    (Class::Rank(MeasureKey(0)), 9),
    (Class::Rank(MeasureKey(1)), 3),
    (Class::Rank(MeasureKey(2)), 3),
    (Class::Rank(MeasureKey(3)), 2),
    (Class::Approx, 2),
    (Class::Align, 1),
];

/// Query concepts of the hot set.
pub const HOT_CONCEPTS: usize = 16;
/// Measures of the hot set.
pub const HOT_MEASURES: [Measure; 2] = [Measure::Levenshtein, Measure::Tfidf];

impl Shape {
    pub fn mix(self) -> &'static [(Class, usize)] {
        match self {
            Shape::Hot => &HOT_MIX,
            Shape::Cold => &COLD_MIX,
        }
    }
}

/// An endless, seeded request stream of one traffic shape.
#[derive(Debug)]
pub struct Stream {
    shape: Shape,
    rng: Rng,
    n: usize,
    hot: Vec<usize>,
    /// Cold: per measure, a shuffled concept order consumed front to back
    /// (reshuffled when exhausted), so each rank key is fresh.
    pools: Vec<Vec<usize>>,
    cursors: Vec<usize>,
    aligns: usize,
    block: VecDeque<Request>,
}

impl Stream {
    /// A stream over `n` concepts. `n` must be at least [`HOT_CONCEPTS`].
    pub fn new(shape: Shape, seed: u64, n: usize) -> Stream {
        let mut rng = Rng::new(seed ^ 0x05EE_D0F5_E27E);
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        let hot = order.iter().copied().take(HOT_CONCEPTS).collect();
        let pools = Measure::ALL
            .iter()
            .map(|_| {
                let mut p: Vec<usize> = (0..n).collect();
                rng.shuffle(&mut p);
                p
            })
            .collect();
        Stream {
            shape,
            rng,
            n,
            hot,
            pools,
            cursors: vec![0; Measure::ALL.len()],
            aligns: 0,
            block: VecDeque::new(),
        }
    }

    /// The hot query concepts (hot shape only).
    pub fn hot_concepts(&self) -> &[usize] {
        &self.hot
    }

    fn fresh(&mut self, m: Measure) -> usize {
        let slot = m as usize;
        let (Some(pool), Some(cursor)) = (self.pools.get_mut(slot), self.cursors.get_mut(slot))
        else {
            return 0;
        };
        if *cursor >= pool.len() {
            self.rng.shuffle(pool);
            *cursor = 0;
        }
        let c = pool.get(*cursor).copied().unwrap_or(0);
        *cursor += 1;
        c
    }

    fn hot_concept(&mut self) -> usize {
        let i = self.rng.below(self.hot.len());
        self.hot.get(i).copied().unwrap_or(0)
    }

    fn concrete(&mut self, class: Class) -> Request {
        match (self.shape, class) {
            (Shape::Hot, Class::Rank(m)) => Request::Rank {
                concept: self.hot_concept(),
                measure: m.measure(),
            },
            (Shape::Hot, Class::Similarity(m)) => Request::Similarity {
                first: self.hot_concept(),
                second: self.rng.below(self.n),
                measure: m.measure(),
            },
            (_, Class::Rank(m)) => Request::Rank {
                concept: self.fresh(m.measure()),
                measure: m.measure(),
            },
            (_, Class::Similarity(m)) => Request::Similarity {
                first: self.rng.below(self.n),
                second: self.rng.below(self.n),
                measure: m.measure(),
            },
            (_, Class::Approx) => Request::Approx {
                concept: self.rng.below(self.n),
            },
            (_, Class::Ql) => Request::Ql(self.rng.below(QL_QUERIES.len())),
            (_, Class::Metrics) => Request::Metrics,
            (_, Class::Align) => {
                self.aligns += 1;
                Request::Align(self.aligns % ALIGN_PAIRS.len())
            }
        }
    }

    fn refill(&mut self) {
        let mut classes: Vec<Class> = Vec::new();
        for &(class, count) in self.shape.mix() {
            classes.extend(std::iter::repeat_n(class, count));
        }
        self.rng.shuffle(&mut classes);
        for class in classes {
            let r = self.concrete(class);
            self.block.push_back(r);
        }
    }
}

impl Stream {
    /// The next request (the stream never ends).
    pub fn pop(&mut self) -> Request {
        loop {
            if let Some(r) = self.block.pop_front() {
                return r;
            }
            self.refill();
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(self.pop())
    }
}

/// Largest gap, in percentage points, between the realised class shares
/// of `classes` and the weights of `mix`.
pub fn mix_deviation(mix: &[(Class, usize)], classes: &[Class]) -> f64 {
    let total_weight: usize = mix.iter().map(|&(_, w)| w).sum();
    if classes.is_empty() || total_weight == 0 {
        return 100.0;
    }
    let mut worst: f64 = 0.0;
    for &(class, weight) in mix {
        let seen = classes.iter().filter(|&&c| c == class).count();
        let realised = 100.0 * seen as f64 / classes.len() as f64;
        let wanted = 100.0 * weight as f64 / total_weight as f64;
        worst = worst.max((realised - wanted).abs());
    }
    let unknown = classes
        .iter()
        .filter(|c| !mix.iter().any(|(m, _)| m == *c))
        .count();
    worst.max(100.0 * unknown as f64 / classes.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn concepts(n: usize) -> Vec<Concept> {
        (0..n)
            .map(|i| Concept {
                name: format!("Concept {i}&x"),
                ontology: format!("onto{}", i % 5),
            })
            .collect()
    }

    fn wire_list(shape: Shape, seed: u64, n: usize) -> Vec<u8> {
        let cs = concepts(943);
        Stream::new(shape, seed, cs.len())
            .take(n)
            .flat_map(|r| r.wire(&cs))
            .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_requests() {
        for shape in [Shape::Hot, Shape::Cold] {
            assert_eq!(wire_list(shape, 7, 2000), wire_list(shape, 7, 2000));
            assert_ne!(wire_list(shape, 7, 2000), wire_list(shape, 8, 2000));
        }
    }

    #[test]
    fn blocks_realise_the_mix_exactly() {
        for shape in [Shape::Hot, Shape::Cold] {
            let block: usize = shape.mix().iter().map(|&(_, w)| w).sum();
            let classes: Vec<Class> = Stream::new(shape, 3, 943)
                .take(block * 7)
                .map(|r| r.class())
                .collect();
            assert!(mix_deviation(shape.mix(), &classes) < 1e-9);
        }
    }

    #[test]
    fn hot_stream_stays_on_the_hot_set() {
        let mut s = Stream::new(Shape::Hot, 11, 943);
        let hot: Vec<usize> = s.hot_concepts().to_vec();
        assert_eq!(hot.len(), HOT_CONCEPTS);
        for r in s.by_ref().take(5000) {
            match r {
                Request::Rank { concept, measure } => {
                    assert!(hot.contains(&concept));
                    assert!(HOT_MEASURES.contains(&measure));
                }
                Request::Similarity { first, measure, .. } => {
                    assert!(hot.contains(&first));
                    assert!(HOT_MEASURES.contains(&measure));
                }
                Request::Ql(_) | Request::Metrics => {}
                other => panic!("unexpected hot request {other:?}"),
            }
        }
    }

    #[test]
    fn cold_rank_keys_do_not_repeat_within_a_pool() {
        let mut seen = std::collections::HashSet::new();
        for r in Stream::new(Shape::Cold, 5, 943).take(1500) {
            if let Request::Rank { concept, measure } = r {
                assert!(seen.insert((concept, measure)), "repeated rank key");
            }
        }
    }

    #[test]
    fn wire_encodes_names_and_bodies() {
        let cs = concepts(3);
        let r = Request::Rank {
            concept: 1,
            measure: Measure::Lin,
        };
        let text = String::from_utf8(r.wire(&cs)).unwrap();
        assert!(text.starts_with(
            "GET /rank?concept=Concept%201%26x&ontology=onto1&k=10&measure=lin HTTP/1.1\r\n"
        ));
        let text = String::from_utf8(Request::Align(0).wire(&cs)).unwrap();
        assert!(text.contains("content-length: 47\r\n\r\n{\"source\""));
    }
}
