//! The paper corpus (five ontologies, 943 concepts) and the two ways a
//! replica starts: from source texts, or from an `SSTSNAP1` snapshot.
//!
//! A start ends when the replica has answered its first exact
//! `most_similar` and its first `most_similar_approx`, so work moved
//! into lazily built state still counts toward the start.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use sst_core::{measure_ids, ConceptAndSimilarity, ConceptSet, SstBuilder, SstToolkit};
use sst_wrappers::{parse_daml, parse_owl, parse_powerloom};

use crate::gen::{Concept, RANK_K};

/// The five source texts, read once; starts never touch the disk.
#[derive(Debug)]
pub struct Sources {
    univ: String,
    swrc: String,
    sumo: String,
    daml: String,
    courses: String,
}

fn data_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../data/ontologies")
}

impl Sources {
    pub fn read() -> Result<Sources, String> {
        let read = |file: &str| {
            let path = data_dir().join(file);
            std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
        };
        Ok(Sources {
            univ: read("univ-bench.owl")?,
            swrc: read("swrc.owl")?,
            sumo: read("sumo.owl")?,
            daml: read("univ1.0.daml")?,
            courses: read("course.ploom")?,
        })
    }
}

/// Measure of a start's first exact rank.
pub const FIRST_RANK_MEASURE: usize = measure_ids::LEVENSHTEIN_MEASURE;

/// The answers a fresh replica gives first.
#[derive(Debug, Clone, PartialEq)]
pub struct FirstAnswers {
    pub rank: Vec<ConceptAndSimilarity>,
    pub approx: Vec<ConceptAndSimilarity>,
}

/// Layer times of one start. Parse times are zero for snapshot starts and
/// `import` is zero for source starts.
#[derive(Debug, Clone, Default)]
pub struct StartTimes {
    pub parse_owl: Duration,
    pub parse_daml: Duration,
    pub parse_powerloom: Duration,
    pub build: Duration,
    pub import: Duration,
    pub first_rank: Duration,
    pub first_approx: Duration,
    pub total: Duration,
}

/// A started replica.
#[derive(Debug)]
pub struct Started {
    pub toolkit: SstToolkit,
    pub answers: FirstAnswers,
    pub concept: Concept,
    pub times: StartTimes,
}

/// The corpus concept list in tree order, one entry per `(ontology,
/// name)` address (a duplicate display name resolves to one concept).
pub fn concepts(toolkit: &SstToolkit) -> Vec<Concept> {
    let soqa = toolkit.soqa();
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for gc in toolkit.tree().all_concepts() {
        let c = Concept {
            name: soqa.concept(gc).name.clone(),
            ontology: soqa.ontology_at(gc.ontology).name().to_owned(),
        };
        if seen.insert((c.ontology.clone(), c.name.clone())) {
            out.push(c);
        }
    }
    out
}

/// Picks the first-query concept of a start by `pick`.
fn query_concept(toolkit: &SstToolkit, pick: u64) -> Result<Concept, String> {
    let all = toolkit.tree().all_concepts();
    let n = all.len().max(1) as u64;
    let gc = all
        .get((pick % n) as usize)
        .copied()
        .ok_or("empty corpus")?;
    Ok(Concept {
        name: toolkit.soqa().concept(gc).name.clone(),
        ontology: toolkit.soqa().ontology_at(gc.ontology).name().to_owned(),
    })
}

/// The first exact rank and first approximate rank of a fresh replica.
pub fn first_answers(
    toolkit: &SstToolkit,
    c: &Concept,
    times: &mut StartTimes,
) -> Result<FirstAnswers, String> {
    let t = Instant::now();
    let rank = toolkit
        .most_similar(
            &c.name,
            &c.ontology,
            &ConceptSet::All,
            RANK_K,
            FIRST_RANK_MEASURE,
        )
        .map_err(|e| format!("first rank: {e}"))?;
    times.first_rank = t.elapsed();
    let t = Instant::now();
    let approx = toolkit
        .most_similar_approx(&c.name, &c.ontology, RANK_K)
        .map_err(|e| format!("first approx: {e}"))?;
    times.first_approx = t.elapsed();
    Ok(FirstAnswers { rank, approx })
}

/// Start (a): parse the five texts, build, answer the first queries.
pub fn start_from_sources(src: &Sources, pick: u64) -> Result<Started, String> {
    let mut times = StartTimes::default();
    let begin = Instant::now();
    let err = |what: &'static str| move |e: sst_soqa::SoqaError| format!("{what}: {e}");

    let t = Instant::now();
    let univ = parse_owl(
        &src.univ,
        "univ-bench_owl",
        "http://www.lehigh.edu/univ-bench.owl",
    )
    .map_err(err("univ-bench.owl"))?;
    let swrc = parse_owl(&src.swrc, "swrc_owl", "http://swrc.ontoware.org/ontology")
        .map_err(err("swrc.owl"))?;
    let sumo = parse_owl(
        &src.sumo,
        "SUMO_owl_txt",
        "http://reliant.teknowledge.com/DAML/SUMO.owl",
    )
    .map_err(err("sumo.owl"))?;
    times.parse_owl = t.elapsed();
    let t = Instant::now();
    let daml = parse_daml(
        &src.daml,
        "base1_0_daml",
        "http://www.cs.umd.edu/projects/plus/DAML/onts/univ1.0.daml",
    )
    .map_err(err("univ1.0.daml"))?;
    times.parse_daml = t.elapsed();
    let t = Instant::now();
    let courses = parse_powerloom(&src.courses, "COURSES").map_err(err("course.ploom"))?;
    times.parse_powerloom = t.elapsed();

    let t = Instant::now();
    let mut builder = SstBuilder::new();
    for ontology in [daml, univ, courses, swrc, sumo] {
        builder = builder
            .register_ontology(ontology)
            .map_err(|e| format!("register: {e}"))?;
    }
    let toolkit = builder.build();
    times.build = t.elapsed();

    let concept = query_concept(&toolkit, pick)?;
    let answers = first_answers(&toolkit, &concept, &mut times)?;
    times.total = begin.elapsed();
    Ok(Started {
        toolkit,
        answers,
        concept,
        times,
    })
}

/// Start (b): import a snapshot, answer the first queries.
pub fn start_from_snapshot(bytes: &[u8], pick: u64) -> Result<Started, String> {
    let mut times = StartTimes::default();
    let begin = Instant::now();
    let toolkit = SstToolkit::import_snapshot(bytes, &sst_limits::Limits::default())
        .map_err(|e| format!("import snapshot: {e}"))?;
    times.import = begin.elapsed();
    let concept = query_concept(&toolkit, pick)?;
    let answers = first_answers(&toolkit, &concept, &mut times)?;
    times.total = begin.elapsed();
    Ok(Started {
        toolkit,
        answers,
        concept,
        times,
    })
}
