//! `replica_start`: a closed loop of replica starts with every input in
//! memory, alternating a start from source texts (a) and a start from a
//! snapshot exported at set-up (b). Each toolkit is dropped before the
//! next start. One op is one (a, b) start cycle.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use sst_core::{ConceptAndSimilarity, ConceptSet, SstToolkit};
use sst_limits::Limits;

use crate::corpus::{self, FirstAnswers, Sources, Started};
use crate::gen::{self, Concept, Measure, RANK_K};
use crate::report::{self, Outcome};
use crate::serve::{add_start_rows, export_snapshot, time_graph, SETUP_REPS};
use crate::served;
use crate::stats;
use crate::trace::{Accounting, Layers};

/// Concepts of the post-run identity probe (each ranked under every
/// serve measure on the imported and the source-built toolkit).
const IDENTITY_PROBE: usize = 8;

struct Setup {
    sources: Sources,
    reference: SstToolkit,
    bytes: Vec<u8>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let sources = Sources::read()?;
    let a = corpus::start_from_sources(&sources, seed)?;
    let bytes = a.toolkit.export_snapshot();
    Ok(Setup {
        sources,
        reference: a.toolkit,
        bytes,
    })
}

/// Bitwise equality of two rankings (names and score bits).
fn same(x: &[ConceptAndSimilarity], y: &[ConceptAndSimilarity]) -> bool {
    x.len() == y.len()
        && x.iter().zip(y).all(|(a, b)| {
            a.concept == b.concept
                && a.ontology == b.ontology
                && a.similarity.to_bits() == b.similarity.to_bits()
        })
}

/// One start, with its first answers kept for the oracle.
struct Start {
    from_sources: bool,
    ms: f64,
    concept: Concept,
    answers: FirstAnswers,
}

fn record(s: &Started, from_sources: bool) -> Start {
    Start {
        from_sources,
        ms: s.times.total.as_secs_f64() * 1e3,
        concept: s.concept.clone(),
        answers: s.answers.clone(),
    }
}

/// Checks every start's first answers against the reference toolkit;
/// returns (checked, failed).
fn check_starts(reference: &SstToolkit, starts: &[Start]) -> (u64, u64) {
    let mut expected: HashMap<(String, String), Result<FirstAnswers, String>> = HashMap::new();
    let mut failed = 0;
    for s in starts {
        let key = (s.concept.ontology.clone(), s.concept.name.clone());
        let want = expected.entry(key).or_insert_with(|| {
            let mut times = corpus::StartTimes::default();
            corpus::first_answers(reference, &s.concept, &mut times)
        });
        let ok = matches!(want, Ok(w) if same(&w.rank, &s.answers.rank) && same(&w.approx, &s.answers.approx));
        if !ok {
            failed += 1;
            eprintln!(
                "oracle: start for {:?} answered differently from the reference",
                s.concept
            );
        }
    }
    (starts.len() as u64, failed)
}

/// Re-imports the snapshot: the re-export must be byte-identical and the
/// imported toolkit must rank bit-identically to the source-built one.
fn check_identity(setup: &Setup, seed: u64) -> Result<(u64, u64), String> {
    let imported = SstToolkit::import_snapshot(&setup.bytes, &Limits::default())
        .map_err(|e| format!("import: {e}"))?;
    let mut checked = 1;
    let mut failed = u64::from(imported.export_snapshot() != setup.bytes);
    if failed > 0 {
        eprintln!("oracle: re-export of an imported snapshot is not byte-identical");
    }
    let concepts = corpus::concepts(&setup.reference);
    let mut rng = gen::Rng::new(seed ^ 0x1DE_4717);
    for _ in 0..IDENTITY_PROBE {
        let c = concepts
            .get(rng.below(concepts.len()))
            .ok_or("empty corpus")?;
        for m in Measure::ALL {
            let id = setup
                .reference
                .measure_id(m.name())
                .map_err(|e| e.to_string())?;
            let rank =
                |t: &SstToolkit| t.most_similar(&c.name, &c.ontology, &ConceptSet::All, RANK_K, id);
            let (x, y) = (rank(&setup.reference), rank(&imported));
            checked += 1;
            if !matches!((&x, &y), (Ok(x), Ok(y)) if same(x, y)) {
                failed += 1;
                eprintln!(
                    "oracle: imported toolkit ranks {c:?} under {} differently",
                    m.name()
                );
            }
        }
    }
    Ok((checked, failed))
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut own = Layers::default();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        let s = setup(seed)?;
        setups.push(t.elapsed().as_secs_f64());
        last = Some(s);
    }
    let setup = last.ok_or("no set-up ran")?;
    let mut picks = gen::Rng::new(seed);

    // One cycle: start (a), drop, start (b), drop.
    let mut cycle = |traced: bool,
                     layers: &mut Layers,
                     acct: &mut Accounting|
     -> Result<(Start, Start), String> {
        let a = corpus::start_from_sources(&setup.sources, picks.next_u64())?;
        if traced {
            add_start_rows(layers, &a.times, true);
            let t = &a.times;
            let parts = t.parse_owl
                + t.parse_daml
                + t.parse_powerloom
                + t.build
                + t.first_rank
                + t.first_approx;
            acct.add("start.sources", ms_of(t.total), ms_of(parts));
            time_graph(&a.toolkit, layers);
            export_snapshot(&a.toolkit, layers)?;
        }
        let ra = record(&a, true);
        drop(a);
        let b = corpus::start_from_snapshot(&setup.bytes, picks.next_u64())?;
        if traced {
            add_start_rows(layers, &b.times, false);
            let t = &b.times;
            acct.add(
                "start.snapshot",
                ms_of(t.total),
                ms_of(t.import + t.first_rank + t.first_approx),
            );
        }
        let rb = record(&b, false);
        drop(b);
        Ok((ra, rb))
    };

    let plain_secs = if trace { seconds / 2.0 } else { seconds };
    let mut starts = Vec::new();
    let mut cycles = Vec::new();
    // The untraced loop runs at least `seconds` and at least long enough
    // for the p90 to have ten cycles beyond it.
    let floor = if trace {
        0
    } else {
        stats::min_samples_for(90, 10)
    };
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < plain_secs || cycles.len() < floor {
        let (a, b) = cycle(false, &mut Layers::default(), &mut Accounting::default())?;
        cycles.push(a.ms + b.ms);
        starts.push(a);
        starts.push(b);
    }
    let wall = begin.elapsed().as_secs_f64();
    // Peak memory of set-up plus the start loop, before the oracle allocates.
    let rss = report::rss_peak_mb()?;

    let mut metrics = Vec::new();
    let mut extra_checked = 0;
    let mut extra_failed = 0;
    if trace {
        let mut acct = Accounting::default();
        let mut traced_cycles = Vec::new();
        let begin = Instant::now();
        while begin.elapsed().as_secs_f64() < seconds / 2.0 {
            let (a, b) = cycle(true, &mut own, &mut acct)?;
            traced_cycles.push(a.ms + b.ms);
            starts.push(a);
            starts.push(b);
        }
        let overhead = stats::mean(&traced_cycles)
            .zip(stats::mean(&cycles))
            .map(|(t, p)| t - p);
        own.add("trace.overhead_ms", overhead.ok_or("no traced cycles")?);
        own.add("trace.samples", traced_cycles.len() as f64);
        let unexplained = acct.unexplained();
        own.add("trace.accounting_residual", unexplained);
        for (class, n, client, share) in acct.residuals() {
            eprintln!(
                "accounting {class}: n={n} mean {client:.3} ms, unexplained {:+.1}%",
                share * 100.0
            );
        }
        if unexplained > crate::trace::ACCOUNTING_TOLERANCE {
            return Err(format!(
                "layer accounting leaves {:.1}% unexplained",
                unexplained * 100.0
            ));
        }

        let toolkit = Arc::new(
            SstToolkit::import_snapshot(&setup.bytes, &Limits::default())
                .map_err(|e| format!("import: {e}"))?,
        );
        let concepts = corpus::concepts(&toolkit);
        let mut probe_layers = Layers::default();
        let records = served::probe(&toolkit, &concepts, seed, &mut probe_layers)?;
        // Probe responses are checked against the library like any other.
        extra_checked = records.len() as u64;
        extra_failed = crate::oracle::check(&toolkit, &concepts, &records);
        own.add(
            "trace.oracle_checked",
            (starts.len() + records.len()) as f64,
        );
        metrics = report::per_layer(&own, &probe_layers)?;
    }

    let (checked, failed) = check_starts(&setup.reference, &starts);
    let (id_checked, id_failed) = check_identity(&setup, seed)?;
    if !trace {
        let cold: Vec<f64> = starts
            .iter()
            .filter(|s| s.from_sources)
            .map(|s| s.ms)
            .collect();
        let snap: Vec<f64> = starts
            .iter()
            .filter(|s| !s.from_sources)
            .map(|s| s.ms)
            .collect();
        let lat = stats::sorted(&cycles);
        let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
        metrics = vec![
            ("throughput_rps", cycles.len() as f64 / wall, "1/s"),
            (
                "latency_p50_ms",
                need(stats::nearest_rank(&lat, 50), "p50")?,
                "ms",
            ),
            (
                "latency_p90_ms",
                need(stats::nearest_rank(&lat, 90), "p90")?,
                "ms",
            ),
            (
                "cold_start_ms",
                need(stats::median(&cold), "cold start")?,
                "ms",
            ),
            (
                "snapshot_start_ms",
                need(stats::median(&snap), "snapshot start")?,
                "ms",
            ),
            ("setup_s", need(stats::median(&setups), "setup")?, "s"),
            ("rss_peak_mb", rss, "MiB"),
        ];
        eprintln!(
            "{} start cycles in {wall:.2}s (p90 has {} beyond)",
            cycles.len(),
            stats::samples_beyond(lat.len(), 90)
        );
    }
    Ok(Outcome {
        correct: failed + id_failed + extra_failed == 0,
        attempted: checked + id_checked + extra_checked,
        failed: failed + id_failed + extra_failed,
        metrics,
    })
}

fn ms_of(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
