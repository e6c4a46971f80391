//! MeasureRunners (paper §3, Fig. 4): one coupling module per SimPack
//! measure, each pulling the data it needs from SOQA through the
//! [`SimilarityContext`] and producing a pairwise similarity value.
//!
//! Adding a measure to SST = implementing [`MeasureRunner`] and registering
//! it with the facade — exactly the extension mechanism the paper
//! advertises.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

use sst_index::{cosine_sparse, DocId, InvertedIndex, TermId};
use sst_obs::Counter;
use sst_simpack::{
    dense_unit_similarity, edge_similarity, edge_similarity_compact, jaro, jaro_fast, jaro_winkler,
    jaro_winkler_fast, jiang_conrath_similarity, jiang_conrath_similarity_compact,
    levenshtein_similarity, lin_similarity, lin_similarity_compact, monge_elkan,
    myers_sequence_similarity_from, myers_similarity_chars_from, needleman_wunsch_similarity,
    needleman_wunsch_similarity_scratch, qgram, qgram_packed_from, resnik_similarity,
    resnik_similarity_compact, sequence_similarity, shortest_path_similarity,
    shortest_path_similarity_from, smith_waterman_similarity, smith_waterman_similarity_scratch,
    tree_similarity, tree_similarity_zs_scratch, with_align_scratch, with_jaro_scratch,
    with_myers_scratch, with_zs_scratch, wu_palmer_similarity_rooted,
    wu_palmer_similarity_rooted_compact, AlignmentScoring, AncestorList, CostModel, DepthTable,
    FeatureSet, InformationContent, InternedFeatures, JaroMask, LabeledTree, MeasureKind,
    MyersPattern, NodeId, QGramPacked, SourceTables, ZsTree,
};
use sst_soqa::{GlobalConcept, Soqa};

use crate::tree::UnifiedTree;

/// Runtime metadata for a registered runner (dynamic counterpart of
/// `sst_simpack::MeasureDescriptor`, so user-supplied runners can carry
/// their own names).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunnerInfo {
    pub name: String,
    pub display: String,
    pub kind: MeasureKind,
    /// True when scores are guaranteed to lie in [0, 1].
    pub normalized: bool,
}

/// Everything a runner may need: the SOQA facade, the unified tree, the
/// precomputed information content, and the full-text index (one document
/// per concept).
#[derive(Clone, Copy)]
pub struct SimilarityContext<'a> {
    pub soqa: &'a Soqa,
    pub tree: &'a UnifiedTree,
    pub ic: &'a InformationContent,
    pub index: &'a InvertedIndex,
    /// Per tree node: the concept's document in `index` (`None` for the
    /// synthetic root).
    pub doc_ids: &'a [Option<DocId>],
}

impl fmt::Debug for SimilarityContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimilarityContext")
            .field("nodes", &self.tree.node_count())
            .field("docs", &self.index.doc_count())
            .finish()
    }
}

impl SimilarityContext<'_> {
    /// The feature set of a concept (the paper's M₁ view): its declared and
    /// inherited attributes, methods, relationships, and typed super links.
    pub fn feature_set(&self, gc: GlobalConcept) -> FeatureSet {
        let mut set = FeatureSet::new();
        for a in self.soqa.attributes_with_inherited(gc) {
            set.insert(format!("attr:{}", a.name));
        }
        for m in self.soqa.methods_of(gc) {
            set.insert(format!("method:{}", m.name));
        }
        for r in self.soqa.relationships_of(gc) {
            set.insert(format!("rel:{}", r.name));
        }
        for s in self.soqa.super_concepts(gc) {
            set.insert(format!("type:{}", self.soqa.concept(s).name));
        }
        set
    }

    /// The token sequence of a concept (the paper's M₂ view): the
    /// *ontology-qualified* names on the root path through the unified
    /// tree, followed by the concept's property names. Qualification
    /// matters: concepts of different ontologies traverse different
    /// resources even when their local names coincide, so cross-ontology
    /// sequences share little — exactly the behaviour Table 1 shows for the
    /// Levenshtein column.
    pub fn token_sequence(&self, gc: GlobalConcept) -> Vec<String> {
        let prefix = self.soqa.ontology_at(gc.ontology).name();
        let mut tokens: Vec<String> = self
            .tree
            .root_path_names(self.soqa, gc)
            .into_iter()
            .enumerate()
            .map(|(i, name)| {
                // The Super-Thing root (position 0) is shared by design.
                if i == 0 {
                    name
                } else {
                    format!("{prefix}:{name}")
                }
            })
            .collect();
        for a in self.soqa.attributes_of(gc) {
            tokens.push(format!("{prefix}:{}", a.name));
        }
        for r in self.soqa.relationships_of(gc) {
            tokens.push(format!("{prefix}:{}", r.name));
        }
        tokens
    }

    /// The concept's name (for the character-level string measures).
    pub fn name(&self, gc: GlobalConcept) -> &str {
        &self.soqa.concept(gc).name
    }

    /// The concept's dense embedding: its TF-IDF document vector under
    /// the deterministic signed random projection of
    /// [`crate::vector::embed_tfidf`]. This is the exact computation the
    /// toolkit's `VectorStore` runs at build time, so per-pair scores and
    /// store scores agree bit-for-bit.
    pub fn dense_embedding(&self, gc: GlobalConcept) -> Vec<f64> {
        let tfidf = self.doc_ids[self.tree.node(gc) as usize]
            .map(|d| self.index.tfidf_vector(d))
            .unwrap_or_default();
        crate::vector::embed_tfidf(&tfidf, crate::vector::EMBED_DIM)
    }

    /// Labeled subtree of the unified tree rooted at `gc`, truncated at
    /// `depth` levels (for the tree-edit measure).
    pub fn subtree(&self, gc: GlobalConcept, depth: usize) -> LabeledTree {
        let mut tree = LabeledTree::new();
        let root_node = self.tree.node(gc);
        let root = tree.add_node(self.soqa.concept(gc).name.clone(), None);
        self.fill_subtree(root_node, root, depth, &mut tree);
        tree
    }

    fn fill_subtree(&self, node: u32, parent: usize, depth: usize, out: &mut LabeledTree) {
        if depth == 0 {
            return;
        }
        // Children sorted by name for order-invariance of the comparison.
        let mut kids: Vec<(String, u32)> = self
            .tree
            .taxonomy()
            .children(node)
            .iter()
            .filter_map(|&c| {
                self.tree
                    .concept(c)
                    .map(|gc| (self.soqa.concept(gc).name.clone(), c))
            })
            .collect();
        kids.sort();
        for (name, child) in kids {
            let id = out.add_node(name, Some(parent));
            self.fill_subtree(child, id, depth - 1, out);
        }
    }
}

/// Interned token id (M₂ tokens, M₁ features, and name words). Ids are
/// assigned once per toolkit by its resident families; equal ids ⟺ equal
/// strings, and the kernels only compare ids (for equality, or by a
/// consistent order in sorted merges), so the scores are bit-identical to
/// the string formulas.
pub type TokenId = u32;

/// Which resident artifact families a batch operation borrows — a
/// dependency-free bitflag set. A toolkit builds each family at most once,
/// over all of its concepts, the first time a batch asks for it (see
/// `DESIGN.md`, "Resident prepared views"), so a toolkit that only ever
/// serves one string measure never pays for ancestor lists, subtree forms
/// or TF-IDF vectors. The facade asks each runner for its
/// [`MeasureRunner::needs`] and borrows exactly that. Families that were
/// not requested are absent from the [`PreparedContext`]; every prepared
/// scorer falls back to its naive per-pair formula in that case, so a
/// mismatched (too-narrow) context degrades to the reference path instead
/// of to wrong scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareNeeds(u16);

impl PrepareNeeds {
    /// No batch artifacts (pure naive fallback scoring).
    pub const NONE: PrepareNeeds = PrepareNeeds(0);
    /// M₁ feature sets, interned to sorted id lists.
    pub const FEATURES: PrepareNeeds = PrepareNeeds(1 << 0);
    /// M₂ token sequences, interned, plus their Myers bit-vector patterns.
    pub const TOKENS: PrepareNeeds = PrepareNeeds(1 << 1);
    /// Name character slices and Jaro bitmask tables.
    pub const NAME_CHARS: PrepareNeeds = PrepareNeeds(1 << 2);
    /// Interned lowercase name words (Monge-Elkan).
    pub const NAME_TOKENS: PrepareNeeds = PrepareNeeds(1 << 3);
    /// Packed q-gram profiles of the names.
    pub const QGRAMS: PrepareNeeds = PrepareNeeds(1 << 4);
    /// Depth-limited subtrees in Zhang-Shasha form.
    pub const SUBTREES: PrepareNeeds = PrepareNeeds(1 << 5);
    /// TF-IDF document vectors and their dense embeddings (full-text and
    /// dense measures).
    pub const TFIDF: PrepareNeeds = PrepareNeeds(1 << 6);
    /// Compact ancestor lists (graph and information-content measures).
    pub const TABLES: PrepareNeeds = PrepareNeeds(1 << 7);
    /// Every artifact family (the safe default).
    pub const ALL: PrepareNeeds = PrepareNeeds(u16::MAX);

    /// Set union of two need sets.
    pub const fn union(self, other: PrepareNeeds) -> PrepareNeeds {
        PrepareNeeds(self.0 | other.0)
    }

    /// Whether every flag of `other` is set in `self`.
    pub const fn contains(self, other: PrepareNeeds) -> bool {
        self.0 & other.0 == other.0
    }
}

/// Assigns dense ids to strings in first-seen order.
#[derive(Default)]
struct Interner {
    ids: HashMap<String, TokenId>,
}

impl Interner {
    fn id(&mut self, s: &str) -> TokenId {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = self.ids.len() as TokenId;
        self.ids.insert(s.to_owned(), id);
        id
    }

    /// The interned strings, indexed by id.
    fn into_pool(self) -> Vec<String> {
        let mut pool = vec![String::new(); self.ids.len()];
        for (s, id) in self.ids {
            if let Some(slot) = pool.get_mut(id as usize) {
                *slot = s;
            }
        }
        pool
    }
}

/// [`PrepareNeeds::TOKENS`]: interned M₂ sequences and their Myers patterns.
struct TokenFamily {
    tokens: Vec<Vec<TokenId>>,
    patterns: Vec<MyersPattern>,
}

/// [`PrepareNeeds::NAME_CHARS`]: names as characters plus their Jaro
/// bitmasks (`None` for names longer than 64 characters).
struct NameCharFamily {
    chars: Vec<Vec<char>>,
    masks: Vec<Option<JaroMask>>,
}

/// [`PrepareNeeds::NAME_TOKENS`]: interned name words plus the characters
/// of every distinct word, indexed by its id.
struct NameTokenFamily {
    tokens: Vec<Vec<TokenId>>,
    pool: Vec<Vec<char>>,
}

/// [`PrepareNeeds::TFIDF`]: TF-IDF vectors (empty for concepts without a
/// document) and their dense projections, projected on first use so the
/// full-text measure never pays for them.
struct TfidfFamily {
    vectors: Vec<Vec<(TermId, f64)>>,
    embeddings: OnceLock<Vec<Vec<f64>>>,
}

/// The prepared artifacts of one frozen toolkit, held for its lifetime:
/// everything the runners rederive per *pair* on the naive path, derived
/// once per *concept* instead.
///
/// Rows are all registered concepts, ontology-major in concept-id order,
/// so a [`GlobalConcept`] finds its row by arithmetic. Each
/// [`PrepareNeeds`] family is built over every row at most once, lazily,
/// by the first [`PreparedContext`] that needs it; building the toolkit
/// builds none. The families live and die with the toolkit, so a hot swap
/// that drops the old toolkit drops them too.
pub(crate) struct ResidentViews {
    /// First row of each ontology.
    offsets: Vec<usize>,
    /// The concept of each row.
    concepts: Vec<GlobalConcept>,
    /// The unified-tree node of each row.
    nodes: Vec<NodeId>,
    /// `core.prepare.family.builds`.
    builds: Arc<Counter>,
    tokens: OnceLock<TokenFamily>,
    features: OnceLock<Vec<InternedFeatures>>,
    name_chars: OnceLock<NameCharFamily>,
    name_tokens: OnceLock<NameTokenFamily>,
    qgrams: OnceLock<Vec<Option<QGramPacked>>>,
    subtrees: OnceLock<Vec<ZsTree>>,
    tfidf: OnceLock<TfidfFamily>,
    ancestors: OnceLock<Vec<AncestorList>>,
}

impl fmt::Debug for ResidentViews {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResidentViews")
            .field("rows", &self.concepts.len())
            .finish_non_exhaustive()
    }
}

impl ResidentViews {
    /// Row index only; every family starts unbuilt.
    pub(crate) fn new(soqa: &Soqa, tree: &UnifiedTree, builds: Arc<Counter>) -> Self {
        let mut offsets = Vec::with_capacity(soqa.ontology_count());
        let mut concepts = Vec::new();
        for ontology in 0..soqa.ontology_count() {
            offsets.push(concepts.len());
            concepts.extend(
                soqa.ontology_at(ontology)
                    .concept_ids()
                    .map(|concept| GlobalConcept { ontology, concept }),
            );
        }
        let nodes = concepts.iter().map(|&gc| tree.node(gc)).collect();
        ResidentViews {
            offsets,
            concepts,
            nodes,
            builds,
            tokens: OnceLock::new(),
            features: OnceLock::new(),
            name_chars: OnceLock::new(),
            name_tokens: OnceLock::new(),
            qgrams: OnceLock::new(),
            subtrees: OnceLock::new(),
            tfidf: OnceLock::new(),
            ancestors: OnceLock::new(),
        }
    }

    /// The row of `gc`, or `None` for a concept this toolkit does not hold.
    fn row(&self, gc: GlobalConcept) -> Option<usize> {
        let row = self.offsets.get(gc.ontology)? + gc.concept.0 as usize;
        (self.concepts.get(row) == Some(&gc)).then_some(row)
    }

    /// `cell`'s family, built on first use. Concurrent first users block
    /// on one build, so each family is built (and counted) exactly once.
    fn family<'s, T>(&'s self, cell: &'s OnceLock<T>, build: impl FnOnce() -> T) -> &'s T {
        cell.get_or_init(|| {
            self.builds.inc();
            build()
        })
    }

    fn tokens(&self, base: &SimilarityContext<'_>) -> &TokenFamily {
        self.family(&self.tokens, || {
            let mut interner = Interner::default();
            let tokens: Vec<Vec<TokenId>> = self
                .concepts
                .iter()
                .map(|&gc| {
                    base.token_sequence(gc)
                        .iter()
                        .map(|t| interner.id(t))
                        .collect()
                })
                .collect();
            let patterns = tokens.iter().map(|t| MyersPattern::new(t)).collect();
            TokenFamily { tokens, patterns }
        })
    }

    fn features(&self, base: &SimilarityContext<'_>) -> &[InternedFeatures] {
        self.family(&self.features, || {
            let mut interner = Interner::default();
            self.concepts
                .iter()
                .map(|&gc| {
                    let set = base.feature_set(gc);
                    InternedFeatures::new(set.iter().map(|f| interner.id(f)).collect())
                })
                .collect()
        })
        .as_slice()
    }

    fn name_chars(&self, base: &SimilarityContext<'_>) -> &NameCharFamily {
        self.family(&self.name_chars, || {
            let chars: Vec<Vec<char>> = self
                .concepts
                .iter()
                .map(|&gc| base.name(gc).chars().collect())
                .collect();
            let masks = chars.iter().map(|c| JaroMask::new(c)).collect();
            NameCharFamily { chars, masks }
        })
    }

    fn name_tokens(&self, base: &SimilarityContext<'_>) -> &NameTokenFamily {
        self.family(&self.name_tokens, || {
            let mut interner = Interner::default();
            let tokens = self
                .concepts
                .iter()
                .map(|&gc| {
                    sst_index::tokenize(base.name(gc))
                        .iter()
                        .map(|t| interner.id(t))
                        .collect()
                })
                .collect();
            let pool = interner
                .into_pool()
                .iter()
                .map(|t| t.chars().collect())
                .collect();
            NameTokenFamily { tokens, pool }
        })
    }

    fn qgrams(&self, base: &SimilarityContext<'_>) -> &[Option<QGramPacked>] {
        self.family(&self.qgrams, || {
            self.concepts
                .iter()
                .map(|&gc| QGramPacked::new(base.name(gc), QGRAM_Q))
                .collect()
        })
        .as_slice()
    }

    fn subtrees(&self, base: &SimilarityContext<'_>) -> &[ZsTree] {
        self.family(&self.subtrees, || {
            self.concepts
                .iter()
                .map(|&gc| ZsTree::new(&base.subtree(gc, 2)))
                .collect()
        })
        .as_slice()
    }

    fn tfidf(&self, base: &SimilarityContext<'_>) -> &TfidfFamily {
        self.family(&self.tfidf, || {
            let vectors = self
                .nodes
                .iter()
                .map(|&node| {
                    base.doc_ids
                        .get(node as usize)
                        .copied()
                        .flatten()
                        .map(|d| base.index.tfidf_vector(d))
                        .unwrap_or_default()
                })
                .collect();
            TfidfFamily {
                vectors,
                embeddings: OnceLock::new(),
            }
        })
    }

    fn ancestors(&self, base: &SimilarityContext<'_>) -> &[AncestorList] {
        self.family(&self.ancestors, || {
            base.tree.taxonomy().ancestor_lists_for(&self.nodes)
        })
        .as_slice()
    }
}

/// A prepared batch: the caller's concept list (one entry per position;
/// duplicates are kept so positions line up with the caller's list),
/// mapped onto the toolkit's resident rows, plus the resident families it
/// was prepared with. Construction costs O(positions) — it builds no
/// artifact, only borrows them (building a family the toolkit has never
/// needed before, once) — so every matrix, rank and set operation can
/// afford its own context.
pub struct PreparedContext<'a> {
    base: SimilarityContext<'a>,
    concepts: Vec<GlobalConcept>,
    /// Resident row of each position (`None` for a foreign concept, which
    /// then takes the naive fallback on every scorer).
    rows: Vec<Option<usize>>,
    /// Unified-tree node of each resident row.
    nodes: &'a [NodeId],
    depths: Arc<DepthTable>,
    tokens: Option<&'a TokenFamily>,
    features: Option<&'a [InternedFeatures]>,
    name_chars: Option<&'a NameCharFamily>,
    name_tokens: Option<&'a NameTokenFamily>,
    qgrams: Option<&'a [Option<QGramPacked>]>,
    subtrees: Option<&'a [ZsTree]>,
    tfidf: Option<&'a TfidfFamily>,
    ancestors: Option<&'a [AncestorList]>,
}

impl fmt::Debug for PreparedContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PreparedContext")
            .field("positions", &self.concepts.len())
            .finish()
    }
}

impl<'a> PreparedContext<'a> {
    /// Maps `concepts` onto `resident`'s rows and borrows the families in
    /// `needs` (building any that `resident` has not built yet).
    pub(crate) fn new(
        base: SimilarityContext<'a>,
        resident: &'a ResidentViews,
        concepts: &[GlobalConcept],
        needs: PrepareNeeds,
    ) -> Self {
        let has = |family| needs.contains(family);
        PreparedContext {
            base,
            concepts: concepts.to_vec(),
            rows: concepts.iter().map(|&gc| resident.row(gc)).collect(),
            nodes: &resident.nodes,
            depths: base.tree.taxonomy().depths(),
            tokens: has(PrepareNeeds::TOKENS).then(|| resident.tokens(&base)),
            features: has(PrepareNeeds::FEATURES).then(|| resident.features(&base)),
            name_chars: has(PrepareNeeds::NAME_CHARS).then(|| resident.name_chars(&base)),
            name_tokens: has(PrepareNeeds::NAME_TOKENS).then(|| resident.name_tokens(&base)),
            qgrams: has(PrepareNeeds::QGRAMS).then(|| resident.qgrams(&base)),
            subtrees: has(PrepareNeeds::SUBTREES).then(|| resident.subtrees(&base)),
            tfidf: has(PrepareNeeds::TFIDF).then(|| resident.tfidf(&base)),
            ancestors: has(PrepareNeeds::TABLES).then(|| resident.ancestors(&base)),
        }
    }

    /// The underlying per-pair context (for naive fallback scoring).
    pub fn base(&self) -> &SimilarityContext<'a> {
        &self.base
    }

    /// Number of prepared positions.
    pub fn len(&self) -> usize {
        self.concepts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.concepts.is_empty()
    }

    /// The concept at position `i`.
    pub fn concept(&self, i: usize) -> GlobalConcept {
        self.concepts[i]
    }

    /// First position of `gc`, if it was prepared.
    pub fn position(&self, gc: GlobalConcept) -> Option<usize> {
        self.concepts.iter().position(|&c| c == gc)
    }

    /// `family`'s entry for position `i`.
    fn at<T>(&self, family: Option<&'a [T]>, i: usize) -> Option<&'a T> {
        family?.get(self.rows.get(i).copied().flatten()?)
    }

    /// The unified-tree node of position `i`.
    pub fn node(&self, i: usize) -> NodeId {
        match self.at(Some(self.nodes), i) {
            Some(&node) => node,
            None => self.base.tree.node(self.concept(i)),
        }
    }

    /// The full-text document of position `i`, if the concept has one.
    pub fn doc(&self, i: usize) -> Option<DocId> {
        self.base
            .doc_ids
            .get(self.node(i) as usize)
            .copied()
            .flatten()
    }

    /// The interned M₂ token sequence of position `i`.
    pub fn tokens(&self, i: usize) -> Option<&'a [TokenId]> {
        self.at(self.tokens.map(|f| f.tokens.as_slice()), i)
            .map(Vec::as_slice)
    }

    /// The Myers bit-vector pattern over [`PreparedContext::tokens`].
    pub fn token_pattern(&self, i: usize) -> Option<&'a MyersPattern> {
        self.at(self.tokens.map(|f| f.patterns.as_slice()), i)
    }

    /// The M₁ feature set of position `i`, interned to sorted ids.
    pub fn features(&self, i: usize) -> Option<&'a InternedFeatures> {
        self.at(self.features, i)
    }

    /// The name of position `i` as characters (Jaro family).
    pub fn name_chars(&self, i: usize) -> Option<&'a [char]> {
        self.at(self.name_chars.map(|f| f.chars.as_slice()), i)
            .map(Vec::as_slice)
    }

    /// The Jaro bitmasks of [`PreparedContext::name_chars`] (`None` also
    /// for names longer than 64 characters).
    pub fn jaro_mask(&self, i: usize) -> Option<&'a JaroMask> {
        self.at(self.name_chars.map(|f| f.masks.as_slice()), i)?
            .as_ref()
    }

    /// The interned lowercase name words of position `i` (Monge-Elkan).
    pub fn name_tokens(&self, i: usize) -> Option<&'a [TokenId]> {
        self.at(self.name_tokens.map(|f| f.tokens.as_slice()), i)
            .map(Vec::as_slice)
    }

    /// The characters of name word `token`.
    pub fn name_token_chars(&self, token: TokenId) -> Option<&'a [char]> {
        self.name_tokens?
            .pool
            .get(token as usize)
            .map(Vec::as_slice)
    }

    /// Number of distinct name words across the toolkit (`0` when the
    /// context was prepared without [`PrepareNeeds::NAME_TOKENS`]).
    fn name_token_count(&self) -> usize {
        self.name_tokens.map_or(0, |f| f.pool.len())
    }

    /// The packed padded q-gram profile of position `i`'s name.
    pub fn qgrams(&self, i: usize) -> Option<&'a QGramPacked> {
        self.at(self.qgrams, i)?.as_ref()
    }

    /// Position `i`'s depth-2 subtree in Zhang-Shasha form.
    pub fn subtree(&self, i: usize) -> Option<&'a ZsTree> {
        self.at(self.subtrees, i)
    }

    /// Position `i`'s TF-IDF vector (empty when it has no document).
    pub fn tfidf(&self, i: usize) -> Option<&'a [(TermId, f64)]> {
        self.at(self.tfidf.map(|f| f.vectors.as_slice()), i)
            .map(Vec::as_slice)
    }

    /// Position `i`'s dense embedding (see [`crate::vector::embed_tfidf`]).
    pub fn embedding(&self, i: usize) -> Option<&'a [f64]> {
        let embeddings = self.tfidf.map(|f| {
            f.embeddings.get_or_init(|| {
                f.vectors
                    .iter()
                    .map(|t| crate::vector::embed_tfidf(t, crate::vector::EMBED_DIM))
                    .collect()
            })
        });
        self.at(embeddings.map(Vec::as_slice), i).map(Vec::as_slice)
    }

    /// The compact ancestor list of position `i`, or `None` when the
    /// context was prepared without [`PrepareNeeds::TABLES`].
    pub fn ancestors(&self, i: usize) -> Option<&'a AncestorList> {
        self.at(self.ancestors, i)
    }

    /// The shared depth table of the unified tree.
    pub fn depths(&self) -> &DepthTable {
        &self.depths
    }
}

/// A measure specialized to one [`PreparedContext`]: scores pairs by
/// *position* in the prepared concept list. Implementations must be
/// bit-identical to the runner's [`MeasureRunner::similarity`] on the same
/// concepts.
pub trait PreparedMeasure: Send + Sync {
    /// Similarity of the prepared concepts at positions `a` and `b`.
    fn similarity(&self, a: usize, b: usize) -> f64;
}

/// A coupling module for one similarity measure.
pub trait MeasureRunner: Send + Sync {
    /// Metadata shown to clients (name, normalization, …).
    fn info(&self) -> RunnerInfo;
    /// Pairwise similarity of two concepts under this measure.
    fn similarity(&self, ctx: &SimilarityContext<'_>, a: GlobalConcept, b: GlobalConcept) -> f64;
    /// Batch hook: a scorer specialized to `prep`, or `None` to keep the
    /// per-pair path (the default, so user-registered runners keep working
    /// unchanged — the facade falls back to calling `similarity` per pair).
    fn prepare<'p>(&self, _prep: &'p PreparedContext<'_>) -> Option<Box<dyn PreparedMeasure + 'p>> {
        None
    }
    /// The artifact families this runner's [`MeasureRunner::prepare`] scorer
    /// reads. The facade prepares the union of the participating runners'
    /// needs; the default is the safe over-approximation so user-registered
    /// runners always see a fully-built context.
    fn needs(&self) -> PrepareNeeds {
        PrepareNeeds::ALL
    }
}

impl fmt::Debug for dyn MeasureRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MeasureRunner({})", self.info().name)
    }
}

/// Prepared scorer over M₁ feature sets: sorted-merge intersection of the
/// interned id lists, folded through the measure's count-based core
/// (bit-identical to the set formula by construction — see
/// `sst_simpack::vector`). The concept-identity check mirrors the naive
/// runners' identity axiom (compare concepts, not positions: duplicated
/// concepts must still score 1).
struct PreparedFeatures<'p> {
    prep: &'p PreparedContext<'p>,
    /// Count-based core: `f(|x∩y|, |x|, |y|)`.
    counts: fn(usize, usize, usize) -> f64,
    /// Set-based reference formula (naive fallback).
    sets: fn(&FeatureSet, &FeatureSet) -> f64,
}

impl PreparedMeasure for PreparedFeatures<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let (ca, cb) = (self.prep.concept(a), self.prep.concept(b));
        if ca == cb {
            return 1.0; // identity axiom, even for featureless concepts
        }
        match (self.prep.features(a), self.prep.features(b)) {
            (Some(ia), Some(ib)) => (self.counts)(ia.intersection_size(ib), ia.len(), ib.len()),
            _ => {
                let base = self.prep.base();
                (self.sets)(&base.feature_set(ca), &base.feature_set(cb))
            }
        }
    }
}

/// Prepared scorer over interned M₂ token sequences (alignment measures).
struct PreparedTokens<'p> {
    prep: &'p PreparedContext<'p>,
    f: fn(&[TokenId], &[TokenId]) -> f64,
    /// Reference formula over raw token strings (naive fallback).
    fallback: fn(&[String], &[String]) -> f64,
}

impl PreparedMeasure for PreparedTokens<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.prep.tokens(a), self.prep.tokens(b)) {
            (Some(ta), Some(tb)) => (self.f)(ta, tb),
            _ => {
                let base = self.prep.base();
                (self.fallback)(
                    &base.token_sequence(self.prep.concept(a)),
                    &base.token_sequence(self.prep.concept(b)),
                )
            }
        }
    }
}

/// Prepared Levenshtein sequence scorer on the bit-parallel Myers core:
/// the pattern bit-vectors are preprocessed per concept, the column scan
/// runs over the other concept's interned ids, and the per-thread scratch
/// is reused across pairs. Bit-identical to
/// `sequence_similarity(…, CostModel::UNIT)` (pinned by the simpack
/// differential tests).
struct PreparedSeqLevenshtein<'p> {
    prep: &'p PreparedContext<'p>,
}

impl PreparedMeasure for PreparedSeqLevenshtein<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.prep.token_pattern(a), self.prep.tokens(b)) {
            (Some(pa), Some(tb)) => {
                with_myers_scratch(|s| myers_sequence_similarity_from(pa, tb, s))
            }
            _ => {
                let base = self.prep.base();
                sequence_similarity(
                    &base.token_sequence(self.prep.concept(a)),
                    &base.token_sequence(self.prep.concept(b)),
                    CostModel::UNIT,
                )
            }
        }
    }
}

/// Prepared Jaro / Jaro-Winkler scorer: bitmask match windows for names
/// that fit one 64-bit word (`jaro_chars_masked`), per-thread scratch
/// buffers otherwise — both bit-identical to `jaro_chars`.
struct PreparedJaro<'p> {
    prep: &'p PreparedContext<'p>,
    winkler: bool,
}

impl PreparedMeasure for PreparedJaro<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.prep.name_chars(a), self.prep.name_chars(b)) {
            (Some(ca), Some(cb)) => with_jaro_scratch(|s| {
                let mask = self.prep.jaro_mask(b);
                if self.winkler {
                    jaro_winkler_fast(ca, cb, mask, s)
                } else {
                    jaro_fast(ca, cb, mask, s)
                }
            }),
            _ => {
                let base = self.prep.base();
                let na = base.name(self.prep.concept(a));
                let nb = base.name(self.prep.concept(b));
                if self.winkler {
                    jaro_winkler(na, nb)
                } else {
                    jaro(na, nb)
                }
            }
        }
    }
}

/// Gram size of the registered q-gram measure (padded trigrams); the
/// resident profiles are built with the same size.
const QGRAM_Q: usize = 3;

/// Prepared q-gram scorer over packed per-concept gram profiles: a sorted
/// `u64` merge intersection instead of hash-map counting, folded through
/// the shared Dice expression (bit-identical to `qgram`).
struct PreparedQGram<'p> {
    prep: &'p PreparedContext<'p>,
}

impl PreparedMeasure for PreparedQGram<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.prep.qgrams(a), self.prep.qgrams(b)) {
            (Some(qa), Some(qb)) => qgram_packed_from(qa, qb),
            _ => {
                let base = self.prep.base();
                qgram(
                    base.name(self.prep.concept(a)),
                    base.name(self.prep.concept(b)),
                    QGRAM_Q,
                )
            }
        }
    }
}

/// Marks a resident name word the batch does not use.
const NOT_IN_BATCH: u32 = u32::MAX;

/// Prepared Monge-Elkan over interned name words. The inner
/// [`levenshtein_similarity`] of two words is looked up in a table over
/// the *batch's* distinct words (not the toolkit's whole vocabulary, so a
/// 10-member list pays for its own words only). Both directions of a pair
/// `(a, b)` read the rows of `a`'s words (the inner similarity is
/// symmetric), and each row is filled on first use, so a rank fills only
/// the query's rows and a matrix fills each row once. Per-pair scoring
/// replays `monge_elkan` in both directions on the table — the same inner
/// values folded in the same order — so the result is bit-identical.
struct PreparedMongeElkan<'p> {
    prep: &'p PreparedContext<'p>,
    /// Batch word indices of every position, concatenated.
    words: Vec<u32>,
    /// Each position's range in `words` (`None` without name words).
    spans: Vec<Option<(usize, usize)>>,
    /// Resident word id of each batch word index.
    resident: Vec<TokenId>,
    /// `rows[x][y] = levenshtein_similarity(word x, word y)`. A row copies
    /// the entries already computed in other rows, which is bitwise safe
    /// because the inner similarity is exactly symmetric (a symmetric
    /// integer distance over a symmetric max length).
    rows: Vec<OnceLock<Vec<f64>>>,
}

impl<'p> PreparedMongeElkan<'p> {
    fn new(prep: &'p PreparedContext<'_>) -> Self {
        let mut local = vec![NOT_IN_BATCH; prep.name_token_count()];
        let mut resident = Vec::new();
        let mut words = Vec::new();
        let mut spans = Vec::with_capacity(prep.len());
        for i in 0..prep.len() {
            spans.push(prep.name_tokens(i).map(|tokens| {
                let start = words.len();
                for &t in tokens {
                    if let Some(slot) = local.get_mut(t as usize) {
                        if *slot == NOT_IN_BATCH {
                            *slot = resident.len() as u32;
                            resident.push(t);
                        }
                        words.push(*slot);
                    }
                }
                (start, words.len())
            }));
        }
        let rows = resident.iter().map(|_| OnceLock::new()).collect();
        PreparedMongeElkan {
            prep,
            words,
            spans,
            resident,
            rows,
        }
    }

    /// The batch word indices of position `i`.
    fn words_of(&self, i: usize) -> Option<&[u32]> {
        let (start, end) = (*self.spans.get(i)?)?;
        self.words.get(start..end)
    }

    fn chars(&self, x: usize) -> &[char] {
        self.resident
            .get(x)
            .and_then(|&t| self.prep.name_token_chars(t))
            .unwrap_or_default()
    }

    /// Row `x` of the table, computed on first use on the bit-parallel
    /// Myers core (bit-identical to `levenshtein_similarity_chars`).
    fn row(&self, x: u32) -> &[f64] {
        let x = x as usize;
        let Some(cell) = self.rows.get(x) else {
            return &[];
        };
        cell.get_or_init(|| {
            let pattern = MyersPattern::from_chars(self.chars(x));
            with_myers_scratch(|scratch| {
                self.rows
                    .iter()
                    .enumerate()
                    .map(|(y, other)| match other.get().and_then(|r| r.get(x)) {
                        Some(&mirrored) => mirrored,
                        None => myers_similarity_chars_from(&pattern, self.chars(y), scratch),
                    })
                    .collect()
            })
        })
    }
}

/// `monge_elkan` over `outer` × `inner` token positions with the inner
/// similarity `sim(o, i)`: the mean over outer tokens of their best inner
/// match, folded in the same order as `sst_simpack::monge_elkan`.
fn monge_elkan_fold(outer: usize, inner: usize, sim: impl Fn(usize, usize) -> f64) -> f64 {
    if outer == 0 {
        return f64::from(u8::from(inner == 0));
    }
    if inner == 0 {
        return 0.0;
    }
    let mut total = 0.0;
    for o in 0..outer {
        total += (0..inner).map(|i| sim(o, i)).fold(0.0_f64, f64::max);
    }
    total / outer as f64
}

impl PreparedMeasure for PreparedMongeElkan<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.words_of(a), self.words_of(b)) {
            (Some(wa), Some(wb)) => {
                let sim = |x: u32, y: u32| self.row(x).get(y as usize).copied().unwrap_or(0.0);
                let ab = monge_elkan_fold(wa.len(), wb.len(), |o, i| sim(wa[o], wb[i]));
                let ba = monge_elkan_fold(wb.len(), wa.len(), |o, i| sim(wa[i], wb[o]));
                (ab + ba) / 2.0
            }
            _ => {
                let base = self.prep.base();
                let ta = sst_index::tokenize(base.name(self.prep.concept(a)));
                let tb = sst_index::tokenize(base.name(self.prep.concept(b)));
                let ra: Vec<&str> = ta.iter().map(String::as_str).collect();
                let rb: Vec<&str> = tb.iter().map(String::as_str).collect();
                let ab = monge_elkan(&ra, &rb, levenshtein_similarity);
                let ba = monge_elkan(&rb, &ra, levenshtein_similarity);
                (ab + ba) / 2.0
            }
        }
    }
}

/// Prepared shortest-path scorer. Per-source BFS tables are O(n) each, so
/// they are never resident: each source position's table is built on
/// first use and kept for this scorer's lifetime — a rank builds one (the
/// query's), a matrix one per row.
struct PreparedShortestPath<'p> {
    prep: &'p PreparedContext<'p>,
    sources: Vec<OnceLock<SourceTables>>,
}

impl<'p> PreparedShortestPath<'p> {
    fn new(prep: &'p PreparedContext<'_>) -> Self {
        let sources = (0..prep.len()).map(|_| OnceLock::new()).collect();
        PreparedShortestPath { prep, sources }
    }
}

impl PreparedMeasure for PreparedShortestPath<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let taxonomy = self.prep.base().tree.taxonomy();
        let (na, nb) = (self.prep.node(a), self.prep.node(b));
        match self.sources.get(a) {
            Some(cell) => {
                shortest_path_similarity_from(cell.get_or_init(|| taxonomy.source_tables(na)), nb)
            }
            None => shortest_path_similarity(taxonomy, na, nb),
        }
    }
}

/// Which ancestor-list formula a [`PreparedGraph`] scorer applies.
enum GraphFormula {
    Edge,
    WuPalmerRooted,
}

/// Prepared graph scorer over compact sorted ancestor lists and the shared
/// depth table. The compact paths scan the two concepts' ancestor lists by
/// sorted merge instead of walking full node-indexed distance tables,
/// visiting candidates in the same ascending id order with the same
/// tie-breaks (bit-identical by construction).
struct PreparedGraph<'p> {
    prep: &'p PreparedContext<'p>,
    formula: GraphFormula,
}

impl PreparedMeasure for PreparedGraph<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let (na, nb) = (self.prep.node(a), self.prep.node(b));
        let taxonomy = self.prep.base().tree.taxonomy();
        let lists = (self.prep.ancestors(a), self.prep.ancestors(b));
        match (&self.formula, lists) {
            (GraphFormula::Edge, (Some(la), Some(lb))) => {
                edge_similarity_compact(la, lb, na == nb, self.prep.depths().max())
            }
            (GraphFormula::Edge, _) => edge_similarity(taxonomy, na, nb),
            (GraphFormula::WuPalmerRooted, (Some(la), Some(lb))) => {
                wu_palmer_similarity_rooted_compact(la, lb, self.prep.depths())
            }
            (GraphFormula::WuPalmerRooted, _) => wu_palmer_similarity_rooted(taxonomy, na, nb),
        }
    }
}

/// Which IC formula a [`PreparedIc`] scorer applies.
enum IcFormula {
    Resnik,
    Lin,
    JiangConrath,
}

/// Prepared information-content scorer over compact ancestor lists: the
/// best-subsumer scan merges two sorted id lists instead of intersecting
/// node-indexed tables, with the same candidate order and tie-breaks.
struct PreparedIc<'p> {
    prep: &'p PreparedContext<'p>,
    formula: IcFormula,
}

impl PreparedMeasure for PreparedIc<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let base = self.prep.base();
        let ic = base.ic;
        let (na, nb) = (self.prep.node(a), self.prep.node(b));
        match (self.prep.ancestors(a), self.prep.ancestors(b)) {
            (Some(la), Some(lb)) => match self.formula {
                IcFormula::Resnik => resnik_similarity_compact(ic, la, lb),
                IcFormula::Lin => lin_similarity_compact(ic, na, nb, la, lb),
                IcFormula::JiangConrath => jiang_conrath_similarity_compact(ic, na, nb, la, lb),
            },
            _ => match self.formula {
                IcFormula::Resnik => resnik_similarity(base.tree.taxonomy(), ic, na, nb),
                IcFormula::Lin => lin_similarity(base.tree.taxonomy(), ic, na, nb),
                IcFormula::JiangConrath => {
                    jiang_conrath_similarity(base.tree.taxonomy(), ic, na, nb)
                }
            },
        }
    }
}

/// Prepared TF-IDF cosine over resident per-concept term vectors.
struct PreparedTfidf<'p> {
    prep: &'p PreparedContext<'p>,
}

impl PreparedMeasure for PreparedTfidf<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let (Some(da), Some(db)) = (self.prep.doc(a), self.prep.doc(b)) else {
            return 0.0;
        };
        match (self.prep.tfidf(a), self.prep.tfidf(b)) {
            (Some(ta), Some(tb)) => cosine_sparse(ta, tb),
            _ => self.prep.base().index.cosine(da, db),
        }
    }
}

/// Prepared dense-embedding scorer over the resident projections of the
/// TF-IDF vectors: pairs score as a dim-wide dot product. The projection
/// is the same [`crate::vector::embed_tfidf`] the naive path runs per
/// pair, so both paths are bit-identical.
struct PreparedDense<'p> {
    prep: &'p PreparedContext<'p>,
}

impl PreparedMeasure for PreparedDense<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        let (ca, cb) = (self.prep.concept(a), self.prep.concept(b));
        if ca == cb {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        match (self.prep.embedding(a), self.prep.embedding(b)) {
            (Some(ea), Some(eb)) => dense_unit_similarity(ea, eb),
            _ => {
                let base = self.prep.base();
                dense_unit_similarity(&base.dense_embedding(ca), &base.dense_embedding(cb))
            }
        }
    }
}

/// Prepared Zhang-Shasha similarity over resident subtree forms, reusing
/// the per-thread DP scratch across pairs.
struct PreparedTreeEdit<'p> {
    prep: &'p PreparedContext<'p>,
}

impl PreparedMeasure for PreparedTreeEdit<'_> {
    fn similarity(&self, a: usize, b: usize) -> f64 {
        match (self.prep.subtree(a), self.prep.subtree(b)) {
            (Some(ta), Some(tb)) => with_zs_scratch(|s| tree_similarity_zs_scratch(ta, tb, s)),
            _ => {
                let base = self.prep.base();
                tree_similarity(
                    &base.subtree(self.prep.concept(a), 2),
                    &base.subtree(self.prep.concept(b), 2),
                )
            }
        }
    }
}

macro_rules! runner {
    ($(#[$doc:meta])* $ty:ident, $name:literal, $display:literal, $kind:expr,
     $normalized:literal, |$ctx:ident, $a:ident, $b:ident| $body:expr) => {
        runner!(
            $(#[$doc])* $ty, $name, $display, $kind, $normalized,
            |$ctx, $a, $b| $body,
            needs: PrepareNeeds::NONE,
            prepare: |_prep| None
        );
    };
    ($(#[$doc:meta])* $ty:ident, $name:literal, $display:literal, $kind:expr,
     $normalized:literal, |$ctx:ident, $a:ident, $b:ident| $body:expr,
     needs: $needs:expr,
     prepare: |$prep:ident| $pbody:expr) => {
        $(#[$doc])*
        #[derive(Debug, Default, Clone, Copy)]
        pub struct $ty;

        impl MeasureRunner for $ty {
            fn info(&self) -> RunnerInfo {
                RunnerInfo {
                    name: $name.to_owned(),
                    display: $display.to_owned(),
                    kind: $kind,
                    normalized: $normalized,
                }
            }

            fn similarity(
                &self,
                $ctx: &SimilarityContext<'_>,
                $a: GlobalConcept,
                $b: GlobalConcept,
            ) -> f64 {
                $body
            }

            fn prepare<'p>(
                &self,
                $prep: &'p PreparedContext<'_>,
            ) -> Option<Box<dyn PreparedMeasure + 'p>> {
                $pbody
            }

            fn needs(&self) -> PrepareNeeds {
                $needs
            }
        }
    };
}

runner!(
    /// Cosine over feature sets (Eq. 1).
    CosineRunner, "cosine", "Cosine", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::cosine(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    needs: PrepareNeeds::FEATURES,
    prepare: |prep| Some(Box::new(PreparedFeatures {
        prep,
        counts: sst_simpack::cosine_from_counts,
        sets: sst_simpack::cosine,
    }))
);
runner!(
    /// Extended Jaccard over feature sets (Eq. 2).
    JaccardRunner, "jaccard", "Extended Jaccard", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::jaccard(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    needs: PrepareNeeds::FEATURES,
    prepare: |prep| Some(Box::new(PreparedFeatures {
        prep,
        counts: sst_simpack::jaccard_from_counts,
        sets: sst_simpack::jaccard,
    }))
);
runner!(
    /// Overlap over feature sets (Eq. 3).
    OverlapRunner, "overlap", "Overlap", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::overlap(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    needs: PrepareNeeds::FEATURES,
    prepare: |prep| Some(Box::new(PreparedFeatures {
        prep,
        counts: sst_simpack::overlap_from_counts,
        sets: sst_simpack::overlap,
    }))
);
runner!(
    /// Dice over feature sets (extension).
    DiceRunner, "dice", "Dice", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for featureless concepts
        }
        sst_simpack::dice(&ctx.feature_set(a), &ctx.feature_set(b))
    },
    needs: PrepareNeeds::FEATURES,
    prepare: |prep| Some(Box::new(PreparedFeatures {
        prep,
        counts: sst_simpack::dice_from_counts,
        sets: sst_simpack::dice,
    }))
);
runner!(
    /// Normalized token-sequence edit distance over M₂ sequences (Eq. 4).
    LevenshteinRunner, "levenshtein", "Levenshtein", MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        sequence_similarity(&x, &y, CostModel::UNIT)
    },
    needs: PrepareNeeds::TOKENS,
    prepare: |prep| Some(Box::new(PreparedSeqLevenshtein { prep }))
);
runner!(
    /// Jaro on concept names (SecondString extension).
    JaroRunner, "jaro", "Jaro", MeasureKind::String, true,
    |ctx, a, b| jaro(ctx.name(a), ctx.name(b)),
    needs: PrepareNeeds::NAME_CHARS,
    prepare: |prep| Some(Box::new(PreparedJaro { prep, winkler: false }))
);
runner!(
    /// Jaro-Winkler on concept names (SecondString extension).
    JaroWinklerRunner, "jaro_winkler", "Jaro-Winkler", MeasureKind::String, true,
    |ctx, a, b| jaro_winkler(ctx.name(a), ctx.name(b)),
    needs: PrepareNeeds::NAME_CHARS,
    prepare: |prep| Some(Box::new(PreparedJaro { prep, winkler: true }))
);
runner!(
    /// Padded trigram Dice on concept names (SimMetrics extension).
    QGramRunner, "qgram", "Q-Gram", MeasureKind::String, true,
    |ctx, a, b| qgram(ctx.name(a), ctx.name(b), QGRAM_Q),
    needs: PrepareNeeds::QGRAMS,
    prepare: |prep| Some(Box::new(PreparedQGram { prep }))
);
runner!(
    /// Monge-Elkan over name tokens with Levenshtein inner similarity,
    /// symmetrized by averaging both directions.
    MongeElkanRunner, "monge_elkan", "Monge-Elkan", MeasureKind::String, true,
    |ctx, a, b| {
        let ta = sst_index::tokenize(ctx.name(a));
        let tb = sst_index::tokenize(ctx.name(b));
        let ra: Vec<&str> = ta.iter().map(String::as_str).collect();
        let rb: Vec<&str> = tb.iter().map(String::as_str).collect();
        let ab = monge_elkan(&ra, &rb, levenshtein_similarity);
        let ba = monge_elkan(&rb, &ra, levenshtein_similarity);
        (ab + ba) / 2.0
    },
    needs: PrepareNeeds::NAME_TOKENS,
    prepare: |prep| Some(Box::new(PreparedMongeElkan::new(prep)))
);
runner!(
    /// `1 / (1 + len)` over the undirected shortest path in the unified
    /// tree.
    ShortestPathRunner, "shortest_path", "Shortest Path", MeasureKind::Graph, true,
    |ctx, a, b| {
        shortest_path_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    },
    // Reads no resident family: its per-source tables are built per scorer.
    needs: PrepareNeeds::NONE,
    prepare: |prep| Some(Box::new(PreparedShortestPath::new(prep)))
);
runner!(
    /// Normalized edge counting (Eq. 5).
    EdgeRunner, "edge", "Edge Counting", MeasureKind::Graph, true,
    |ctx, a, b| edge_similarity(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b)),
    needs: PrepareNeeds::TABLES,
    prepare: |prep| Some(Box::new(PreparedGraph { prep, formula: GraphFormula::Edge }))
);
runner!(
    /// Wu & Palmer conceptual similarity (Eq. 6) — the paper's "Conceptual
    /// Similarity" column. Uses the rooted (node-counted depth) convention
    /// so cross-ontology pairs keep a small nonzero score, as in Table 1.
    WuPalmerRunner, "wu_palmer", "Conceptual Similarity", MeasureKind::Graph, true,
    |ctx, a, b| {
        wu_palmer_similarity_rooted(ctx.tree.taxonomy(), ctx.tree.node(a), ctx.tree.node(b))
    },
    needs: PrepareNeeds::TABLES,
    prepare: |prep| Some(Box::new(PreparedGraph { prep, formula: GraphFormula::WuPalmerRooted }))
);
runner!(
    /// Resnik information content similarity (Eq. 7) — **unnormalized**,
    /// reported in bits.
    ResnikRunner, "resnik", "Resnik", MeasureKind::InformationTheoretic, false,
    |ctx, a, b| {
        resnik_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    needs: PrepareNeeds::TABLES,
    prepare: |prep| Some(Box::new(PreparedIc { prep, formula: IcFormula::Resnik }))
);
runner!(
    /// Lin similarity (Eq. 8).
    LinRunner, "lin", "Lin", MeasureKind::InformationTheoretic, true,
    |ctx, a, b| {
        lin_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    needs: PrepareNeeds::TABLES,
    prepare: |prep| Some(Box::new(PreparedIc { prep, formula: IcFormula::Lin }))
);
runner!(
    /// Jiang-Conrath similarity (IC extension).
    JiangConrathRunner, "jiang_conrath", "Jiang-Conrath",
    MeasureKind::InformationTheoretic, true,
    |ctx, a, b| {
        jiang_conrath_similarity(ctx.tree.taxonomy(), ctx.ic, ctx.tree.node(a), ctx.tree.node(b))
    },
    needs: PrepareNeeds::TABLES,
    prepare: |prep| Some(Box::new(PreparedIc { prep, formula: IcFormula::JiangConrath }))
);
runner!(
    /// TF-IDF cosine over the concepts' exported full-text descriptions —
    /// the paper's Lucene-backed measure.
    TfidfRunner, "tfidf", "TFIDF", MeasureKind::FullText, true,
    |ctx, a, b| {
        let (Some(da), Some(db)) = (
            ctx.doc_ids[ctx.tree.node(a) as usize],
            ctx.doc_ids[ctx.tree.node(b) as usize],
        ) else {
            return 0.0;
        };
        ctx.index.cosine(da, db)
    },
    needs: PrepareNeeds::TFIDF,
    prepare: |prep| Some(Box::new(PreparedTfidf { prep }))
);
runner!(
    /// Zhang-Shasha tree edit similarity of the concepts' subtrees
    /// (depth-limited to 2) — the future-work tree measure.
    TreeEditRunner, "tree_edit", "Tree Edit Distance", MeasureKind::Tree, true,
    |ctx, a, b| tree_similarity(&ctx.subtree(a, 2), &ctx.subtree(b, 2)),
    needs: PrepareNeeds::SUBTREES,
    prepare: |prep| Some(Box::new(PreparedTreeEdit { prep }))
);
runner!(
    /// Needleman-Wunsch global alignment of the M₂ token sequences
    /// (SimPack's alignment-based sequence measure).
    NeedlemanWunschRunner, "needleman_wunsch", "Needleman-Wunsch",
    MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        needleman_wunsch_similarity(&x, &y, AlignmentScoring::default())
    },
    needs: PrepareNeeds::TOKENS,
    prepare: |prep| Some(Box::new(PreparedTokens {
        prep,
        f: |x, y| {
            with_align_scratch(|s| {
                needleman_wunsch_similarity_scratch(x, y, AlignmentScoring::default(), s)
            })
        },
        fallback: |x, y| needleman_wunsch_similarity(x, y, AlignmentScoring::default()),
    }))
);
runner!(
    /// Smith-Waterman local alignment of the M₂ token sequences: scores the
    /// best-matching shared *subpath* (e.g. a common taxonomy fragment).
    SmithWatermanRunner, "smith_waterman", "Smith-Waterman",
    MeasureKind::Sequence, true,
    |ctx, a, b| {
        let x = ctx.token_sequence(a);
        let y = ctx.token_sequence(b);
        smith_waterman_similarity(&x, &y, AlignmentScoring::default())
    },
    needs: PrepareNeeds::TOKENS,
    prepare: |prep| Some(Box::new(PreparedTokens {
        prep,
        f: |x, y| {
            with_align_scratch(|s| {
                smith_waterman_similarity_scratch(x, y, AlignmentScoring::default(), s)
            })
        },
        fallback: |x, y| smith_waterman_similarity(x, y, AlignmentScoring::default()),
    }))
);

runner!(
    /// Shifted unit cosine over dense concept embeddings — the measure
    /// behind the toolkit's vector-retrieval subsystem. Embeddings are
    /// deterministic signed random projections of the TF-IDF document
    /// vectors (see `crate::vector`); the shifted unit cosine
    /// `(1 + x·y)/2` is a strictly monotone transform of cosine, so
    /// rankings agree with cosine order while scores stay in [0, 1].
    DenseVectorRunner, "dense_vector", "Dense Vector", MeasureKind::Vector, true,
    |ctx, a, b| {
        if a == b {
            return 1.0; // identity axiom, even for undescribed concepts
        }
        dense_unit_similarity(&ctx.dense_embedding(a), &ctx.dense_embedding(b))
    },
    needs: PrepareNeeds::TFIDF,
    prepare: |prep| Some(Box::new(PreparedDense { prep }))
);

/// The default runner set, in registration order. The position of each
/// runner is its paper-style integer measure constant (see
/// `facade::measure_ids`).
pub fn default_runners() -> Vec<Box<dyn MeasureRunner>> {
    vec![
        Box::new(CosineRunner),
        Box::new(JaccardRunner),
        Box::new(OverlapRunner),
        Box::new(DiceRunner),
        Box::new(LevenshteinRunner),
        Box::new(JaroRunner),
        Box::new(JaroWinklerRunner),
        Box::new(QGramRunner),
        Box::new(MongeElkanRunner),
        Box::new(ShortestPathRunner),
        Box::new(EdgeRunner),
        Box::new(WuPalmerRunner),
        Box::new(ResnikRunner),
        Box::new(LinRunner),
        Box::new(JiangConrathRunner),
        Box::new(TfidfRunner),
        Box::new(TreeEditRunner),
        Box::new(NeedlemanWunschRunner),
        Box::new(SmithWatermanRunner),
        Box::new(DenseVectorRunner),
    ]
}
