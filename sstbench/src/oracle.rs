//! The output oracle: what each response body must be, computed from
//! the public library API in process and rendered with the server's own
//! JSON number and string formatting (`json_f64`, `json_escape`), so a
//! score that differs in any bit changes the body.

use std::collections::{BTreeSet, HashMap};

use sst_core::runner::default_runners;
use sst_core::{align_with_limits, AlignmentConfig, ConceptAndSimilarity, ConceptSet, SstToolkit};
use sst_limits::Limits;
use sst_server::http::{json_escape, json_f64};
use sst_soqa::ql::Cell;

use crate::gen::{Concept, Measure, Request, ALIGN_PAIRS, QL_QUERIES, RANK_K};
use crate::trace::Record;

/// FNV-1a 64 of a body: responses are compared by digest so the client
/// never has to keep a body.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What a `/metrics` body must contain: the series of every endpoint
/// the serve mixes call.
pub fn metrics_body_ok(body: &[u8]) -> bool {
    let text = String::from_utf8_lossy(body);
    [
        "server.requests.rank",
        "server.requests.metrics",
        "core.cache.hits",
    ]
    .iter()
    .all(|series| text.contains(series))
}

pub fn ranked_json(ranked: &[ConceptAndSimilarity]) -> String {
    let rows: Vec<String> = ranked
        .iter()
        .map(|r| {
            format!(
                "{{\"concept\":\"{}\",\"ontology\":\"{}\",\"similarity\":{}}}",
                json_escape(&r.concept),
                json_escape(&r.ontology),
                json_f64(r.similarity)
            )
        })
        .collect();
    format!("{{\"results\":[{}]}}", rows.join(","))
}

fn cell_json(cell: &Cell) -> String {
    match cell {
        Cell::Str(s) => format!("\"{}\"", json_escape(s)),
        Cell::Num(n) => json_f64(*n),
        Cell::Null => "null".to_owned(),
    }
}

/// The body the server must answer `request` with, or an error when the
/// library itself rejects it. `/metrics` has no fixed body (see
/// [`metrics_body_ok`]).
pub fn expected_body(
    toolkit: &SstToolkit,
    concepts: &[Concept],
    request: &Request,
) -> Result<String, String> {
    let c = |i: usize| concepts.get(i).ok_or_else(|| format!("no concept {i}"));
    let measure_id =
        |m: crate::gen::Measure| toolkit.measure_id(m.name()).map_err(|e| e.to_string());
    match *request {
        Request::Rank { concept, measure } => {
            let c = c(concept)?;
            let ranked = toolkit
                .most_similar(
                    &c.name,
                    &c.ontology,
                    &ConceptSet::All,
                    RANK_K,
                    measure_id(measure)?,
                )
                .map_err(|e| e.to_string())?;
            Ok(ranked_json(&ranked))
        }
        Request::Approx { concept } => {
            let c = c(concept)?;
            let ranked = toolkit
                .most_similar_approx(&c.name, &c.ontology, RANK_K)
                .map_err(|e| e.to_string())?;
            Ok(ranked_json(&ranked))
        }
        Request::Similarity {
            first,
            second,
            measure,
        } => {
            let (a, b) = (c(first)?, c(second)?);
            let id = measure_id(measure)?;
            let v = toolkit
                .get_similarity(&a.name, &a.ontology, &b.name, &b.ontology, id)
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "{{\"similarity\":{},\"measure\":{}}}",
                json_f64(v),
                id
            ))
        }
        Request::Ql(i) => {
            let q = QL_QUERIES.get(i).ok_or("no such query")?;
            let table = toolkit
                .query_with_limits(q, &Limits::default())
                .map_err(|e| e.to_string())?;
            let columns: Vec<String> = table
                .columns
                .iter()
                .map(|c| format!("\"{}\"", json_escape(c)))
                .collect();
            let rows: Vec<String> = table
                .rows
                .iter()
                .map(|row| {
                    format!(
                        "[{}]",
                        row.iter().map(cell_json).collect::<Vec<_>>().join(",")
                    )
                })
                .collect();
            Ok(format!(
                "{{\"columns\":[{}],\"rows\":[{}]}}",
                columns.join(","),
                rows.join(",")
            ))
        }
        Request::Align(i) => {
            let (source, target) = ALIGN_PAIRS.get(i).ok_or("no such pair")?;
            let config = AlignmentConfig::default();
            let a = align_with_limits(toolkit, source, target, &config, &Limits::default())
                .map_err(|e| e.to_string())?;
            let items: Vec<String> = a
                .correspondences
                .iter()
                .map(|c| {
                    format!(
                        "{{\"source\":\"{}\",\"target\":\"{}\",\"similarity\":{}}}",
                        json_escape(&c.source_concept),
                        json_escape(&c.target_concept),
                        json_f64(c.similarity)
                    )
                })
                .collect();
            let s = &a.stats;
            Ok(format!(
                "{{\"mode\":\"{}\",\"correspondences\":[{}],\"stats\":{{\"sources\":{},\"targets\":{},\
                 \"candidate_pairs\":{},\"sources_without_candidates\":{},\"admitted_pairs\":{},\
                 \"proposals\":{},\"matches\":{}}}}}",
                config.mode.name(),
                items.join(","),
                s.sources,
                s.targets,
                s.candidate_pairs,
                s.sources_without_candidates,
                s.admitted_pairs,
                s.proposals,
                s.matches
            ))
        }
        Request::Metrics => Err("/metrics has no fixed body".to_owned()),
    }
}

/// Facade calls per measure that cross-check [`bulk_ranks`].
pub const CROSS_CHECKS: usize = 8;

/// Expected `/rank` digests of many queries under one measure, scored on
/// one prepared context over the whole corpus instead of one
/// `most_similar` each. It follows `SstToolkit::most_similar` step by
/// step: score the query against every member of `ConceptSet::All` with
/// the measure's prepared scorer (`MeasureRunner::prepare`), order by
/// descending score (`total_cmp`) then ascending `(ontology, concept)`,
/// keep the first `k`. The first [`CROSS_CHECKS`] queries are also run
/// through `most_similar` itself; any disagreement fails those queries.
fn bulk_ranks(
    toolkit: &SstToolkit,
    concepts: &[Concept],
    measure: Measure,
    queries: &[usize],
) -> Vec<(Request, Result<u64, String>)> {
    let fail = |e: String| -> Vec<(Request, Result<u64, String>)> {
        queries
            .iter()
            .map(|&concept| (Request::Rank { concept, measure }, Err(e.clone())))
            .collect()
    };
    let Ok(id) = toolkit.measure_id(measure.name()) else {
        return fail(format!("unknown measure {}", measure.name()));
    };
    let runners = default_runners();
    let Some(runner) = runners.get(id).filter(|r| {
        toolkit
            .measure_info(id)
            .is_ok_and(|i| i.name == r.info().name)
    }) else {
        return fail(format!("no default runner with id {id}"));
    };
    let soqa = toolkit.soqa();
    let members = toolkit.tree().all_concepts();
    let names: Vec<(String, String)> = members
        .iter()
        .map(|&gc| {
            (
                soqa.ontology_at(gc.ontology).name().to_owned(),
                soqa.concept(gc).name.clone(),
            )
        })
        .collect();
    let prep = toolkit.prepare_for(&members, runner.needs());
    let prepared = runner.prepare(&prep);
    let mut out = Vec::with_capacity(queries.len());
    for (n, &concept) in queries.iter().enumerate() {
        let request = Request::Rank { concept, measure };
        let body = (|| -> Result<String, String> {
            let c = concepts.get(concept).ok_or("no such concept")?;
            let query = soqa
                .resolve(&c.ontology, &c.name)
                .map_err(|e| e.to_string())?;
            let qpos = prep.position(query).ok_or("query not prepared")?;
            let mut ranked: Vec<ConceptAndSimilarity> = members
                .iter()
                .zip(&names)
                .enumerate()
                .map(|(i, (&gc, (ontology, name)))| ConceptAndSimilarity {
                    concept: name.clone(),
                    ontology: ontology.clone(),
                    similarity: match &prepared {
                        Some(p) => p.similarity(qpos, i),
                        None => runner.similarity(prep.base(), query, gc),
                    },
                })
                .collect();
            ranked.sort_by(|x, y| {
                y.similarity
                    .total_cmp(&x.similarity)
                    .then_with(|| (&x.ontology, &x.concept).cmp(&(&y.ontology, &y.concept)))
            });
            ranked.truncate(RANK_K);
            let body = ranked_json(&ranked);
            if n < CROSS_CHECKS {
                let facade = expected_body(toolkit, concepts, &request)?;
                if facade != body {
                    return Err(
                        "prepared oracle disagrees with SstToolkit::most_similar".to_owned()
                    );
                }
            }
            Ok(body)
        })();
        out.push((request, body.map(|b| digest(b.as_bytes()))));
    }
    out
}

/// Digest of the expected body of every distinct non-`/metrics` request:
/// ranks in bulk per measure, everything else through its facade call,
/// on two threads (the oracle runs after the timed phase).
pub fn expected_digests(
    toolkit: &SstToolkit,
    concepts: &[Concept],
    requests: &[Request],
) -> HashMap<Request, Result<u64, String>> {
    let distinct: BTreeSet<Request> = requests
        .iter()
        .copied()
        .filter(|r| *r != Request::Metrics)
        .collect();
    let mut jobs: Vec<Vec<Request>> = Vec::new();
    for m in Measure::ALL {
        let ranks: Vec<Request> = distinct
            .iter()
            .copied()
            .filter(|r| matches!(r, Request::Rank { measure, .. } if *measure == m))
            .collect();
        if !ranks.is_empty() {
            jobs.push(ranks);
        }
    }
    let others: Vec<Request> = distinct
        .iter()
        .copied()
        .filter(|r| !matches!(r, Request::Rank { .. }))
        .collect();
    let half = others.len().div_ceil(2);
    jobs.push(others.get(..half).unwrap_or_default().to_vec());
    jobs.push(others.get(half..).unwrap_or_default().to_vec());
    let run = |job: &[Request]| -> Vec<(Request, Result<u64, String>)> {
        match job.first() {
            Some(Request::Rank { measure, .. }) => {
                let queries: Vec<usize> = job
                    .iter()
                    .filter_map(|r| match r {
                        Request::Rank { concept, .. } => Some(*concept),
                        _ => None,
                    })
                    .collect();
                bulk_ranks(toolkit, concepts, *measure, &queries)
            }
            _ => job
                .iter()
                .map(|r| {
                    (
                        *r,
                        expected_body(toolkit, concepts, r).map(|b| digest(b.as_bytes())),
                    )
                })
                .collect(),
        }
    };
    // Two workers take jobs alternately; a panicked worker's keys stay
    // missing and so fail the oracle.
    let (evens, odds): (Vec<_>, Vec<_>) = jobs.iter().enumerate().partition(|(i, _)| i % 2 == 0);
    let work = |part: Vec<(usize, &Vec<Request>)>| {
        part.into_iter()
            .flat_map(|(_, j)| run(j))
            .collect::<Vec<_>>()
    };
    let (a, b) = std::thread::scope(|s| {
        let h = s.spawn(|| work(odds));
        let a = work(evens);
        (a, h.join().unwrap_or_default())
    });
    a.into_iter().chain(b).collect()
}

/// Checks every record against the library; returns how many failed.
pub fn check(toolkit: &SstToolkit, concepts: &[Concept], records: &[Record]) -> u64 {
    let requests: Vec<Request> = records.iter().map(|r| r.request).collect();
    let expected = expected_digests(toolkit, concepts, &requests);
    let mut failed = 0;
    for r in records {
        let ok = r.status == 200
            && match r.request {
                Request::Metrics => r.metrics_ok,
                other => matches!(expected.get(&other), Some(Ok(d)) if *d == r.digest),
            };
        if !ok {
            failed += 1;
            if failed <= 5 {
                eprintln!(
                    "oracle: {:?} status {} does not match the library",
                    r.request, r.status
                );
            }
        }
    }
    failed
}
