//! Resident prepared views: a toolkit builds each artifact family at most
//! once, lazily, and every rank service scored over those families must
//! reproduce the naive pairwise service bit for bit. Comparisons use
//! `f64::to_bits`, as in `prepared_identity`.

use std::sync::Barrier;

use sst_bench::{load_corpus, names};
use sst_core::{
    CachedSimilarity, ConceptAndSimilarity, ConceptRef, ConceptSet, SstToolkit, TreeMode,
};
use sst_limits::Limits;
use sst_soqa::GlobalConcept;

fn family_builds(sst: &SstToolkit) -> u64 {
    sst.metrics()
        .snapshot()
        .counter("core.prepare.family.builds")
        .unwrap_or(0)
}

fn names_of(sst: &SstToolkit, gc: GlobalConcept) -> (String, String) {
    (
        sst.soqa().concept(gc).name.clone(),
        sst.soqa().ontology_at(gc.ontology).name().to_owned(),
    )
}

/// The naive reference ranking: every member scored through the pairwise
/// service, fully sorted by descending `total_cmp` with the qualified-name
/// tiebreak, then truncated.
fn pairwise_ranking(
    sst: &SstToolkit,
    query: &ConceptRef,
    set: &ConceptSet,
    k: usize,
    measure: usize,
) -> (Vec<ConceptAndSimilarity>, Vec<ConceptAndSimilarity>) {
    let rows: Vec<ConceptAndSimilarity> = sst
        .concept_set(set)
        .unwrap()
        .into_iter()
        .map(|gc| {
            let (concept, ontology) = names_of(sst, gc);
            let similarity = sst
                .get_similarity(
                    &query.concept,
                    &query.ontology,
                    &concept,
                    &ontology,
                    measure,
                )
                .unwrap();
            ConceptAndSimilarity {
                concept,
                ontology,
                similarity,
            }
        })
        .collect();
    let mut ranked = rows.clone();
    ranked.sort_by(|x, y| {
        y.similarity
            .total_cmp(&x.similarity)
            .then_with(|| (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept)))
    });
    ranked.truncate(k);
    (rows, ranked)
}

fn assert_rows_bit_identical(
    got: &[ConceptAndSimilarity],
    want: &[ConceptAndSimilarity],
    what: &str,
) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            (&g.ontology, &g.concept),
            (&w.ontology, &w.concept),
            "{what}: row {i}"
        );
        assert_eq!(
            g.similarity.to_bits(),
            w.similarity.to_bits(),
            "{what}: row {i} ({}:{}) {} vs {}",
            w.ontology,
            w.concept,
            g.similarity,
            w.similarity
        );
    }
}

/// Checks `most_similar`, `similarity_to_set` and the memoized
/// `CachedSimilarity::most_similar` (cold and warm) against the pairwise
/// reference for every measure and every set.
fn assert_rank_services_match_pairwise(sst: &SstToolkit, query: &ConceptRef, sets: &[ConceptSet]) {
    const K: usize = 10;
    let cache = CachedSimilarity::new(sst);
    for measure in 0..sst.measure_count() {
        for (s, set) in sets.iter().enumerate() {
            let what = |service: &str| format!("measure {measure}, set {s}, {service}");
            let (rows, ranked) = pairwise_ranking(sst, query, set, K, measure);
            let to_set = sst
                .similarity_to_set(&query.concept, &query.ontology, set, measure)
                .unwrap();
            assert_rows_bit_identical(&to_set, &rows, &what("similarity_to_set"));
            let direct = sst
                .most_similar(&query.concept, &query.ontology, set, K, measure)
                .unwrap();
            assert_rows_bit_identical(&direct, &ranked, &what("most_similar"));
            for pass in ["cold", "warm"] {
                let cached = cache
                    .most_similar(&query.concept, &query.ontology, set, K, measure)
                    .unwrap();
                assert_rows_bit_identical(&cached, &ranked, &what(pass));
            }
        }
    }
}

#[test]
fn rank_services_match_pairwise_for_every_measure_and_set() {
    let sst = load_corpus(TreeMode::SuperThing, false);
    let query = ConceptRef::new("Student", names::UNIV_BENCH);
    let list = ConceptSet::List(vec![
        ConceptRef::new("Professor", names::DAML_UNIV),
        ConceptRef::new("Student", names::UNIV_BENCH),
        ConceptRef::new("Publication", names::SWRC),
        ConceptRef::new("Human", names::SUMO),
        ConceptRef::new("COURSE", names::COURSES),
        // Duplicates, including of the query itself.
        ConceptRef::new("Publication", names::SWRC),
        ConceptRef::new("Student", names::UNIV_BENCH),
    ]);
    let subtree = ConceptSet::Subtree(ConceptRef::new("Person", names::UNIV_BENCH));
    assert_rank_services_match_pairwise(&sst, &query, &[ConceptSet::All, list, subtree]);
}

/// Merged-root mode maps every ontology root onto the shared root node,
/// so those concepts are absent from `ConceptSet::All` — but they keep
/// their own resident rows and must still rank bit-identically.
#[test]
fn merged_roots_keep_their_own_resident_rows() {
    let sst = load_corpus(TreeMode::MergedThing, false);
    let roots: Vec<ConceptRef> = (0..sst.soqa().ontology_count())
        .flat_map(|o| {
            let ontology = sst.soqa().ontology_at(o);
            ontology
                .roots()
                .iter()
                .take(2)
                .map(|&c| ConceptRef::new(ontology.concept(c).name.clone(), ontology.name()))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(roots.len() >= 2, "corpus has ontology roots");
    let query = roots[0].clone();
    assert_rank_services_match_pairwise(&sst, &query, &[ConceptSet::All, ConceptSet::List(roots)]);
}

#[test]
fn build_and_import_leave_every_family_unbuilt() {
    let sst = load_corpus(TreeMode::SuperThing, false);
    assert_eq!(family_builds(&sst), 0);
    let bytes = sst.export_snapshot();
    let imported = SstToolkit::import_snapshot(&bytes, &Limits::default()).unwrap();
    assert_eq!(family_builds(&imported), 0);
    assert_eq!(family_builds(&sst), 0, "export builds none");

    // Ranks build the one family their measure needs, once.
    let lev = sst.measure_id("levenshtein").unwrap();
    for concept in ["Student", "Person", "Course"] {
        sst.most_similar(concept, names::UNIV_BENCH, &ConceptSet::All, 3, lev)
            .unwrap();
    }
    assert_eq!(family_builds(&sst), 1);
    assert_eq!(family_builds(&imported), 0);
}

#[test]
fn concurrent_first_ranks_build_each_family_exactly_once() {
    const THREADS: usize = 4;
    let sst = load_corpus(TreeMode::SuperThing, false);
    let measures = sst.measure_count();
    let barrier = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (sst, barrier) = (&sst, &barrier);
            scope.spawn(move || {
                barrier.wait();
                // Every thread ranks every measure, starting at a different
                // one, so first uses of each family collide across threads.
                for m in (0..measures).map(|i| (i + t * 5) % measures) {
                    sst.most_similar("Student", names::UNIV_BENCH, &ConceptSet::All, 3, m)
                        .unwrap();
                }
            });
        }
    });
    // The default runners read eight families between them: FEATURES,
    // TOKENS, NAME_CHARS, NAME_TOKENS, QGRAMS, SUBTREES, TFIDF, TABLES.
    assert_eq!(family_builds(&sst), 8);
}
