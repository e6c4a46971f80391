//! The traced run: times calls into each crate's public functions from
//! the benchmark's own code, around the same work the untraced run
//! drives. No spans are added inside the program.
//!
//! Each request of a traced replay is sent over HTTP (client time), then
//! handed to `Router::handle` as a built `Request` (handler time), then
//! the core call the handler wraps is made directly (core time), and for
//! a memo-missing rank the toolkit's own prepare / score / select calls
//! are timed as well. A row that is a difference ("−" in the README) is
//! taken between two calls made back to back on the same input.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use sst_core::runner::default_runners;
use sst_core::{align_with_limits, AlignmentConfig, CachedSimilarity, ConceptSet, SstToolkit};
use sst_limits::Limits;
use sst_server::router::Router;
use sst_server::Corpora;

use crate::client;
use crate::gen::{Concept, Measure, Request, ALIGN_PAIRS, QL_QUERIES, RANK_K};
use crate::oracle;

/// Largest share of the traced client time that the per-layer
/// self-times may leave unexplained.
pub const ACCOUNTING_TOLERANCE: f64 = 0.10;

/// Named samples, one list per per-layer row.
#[derive(Debug, Default)]
pub struct Layers {
    rows: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    pub fn add(&mut self, name: &str, value: f64) {
        self.rows.entry(name.to_owned()).or_default().push(value);
    }

    pub fn mean(&self, name: &str) -> Option<f64> {
        self.rows.get(name).and_then(|v| crate::stats::mean(v))
    }

    pub fn count(&self, name: &str) -> usize {
        self.rows.get(name).map_or(0, Vec::len)
    }
}

/// Per request class: client-observed times and the sum of the self
/// times of the layer rows on its blocking path, sample by sample.
#[derive(Debug, Default)]
pub struct Accounting {
    classes: BTreeMap<String, (Vec<f64>, Vec<f64>)>,
}

impl Accounting {
    pub fn add(&mut self, class: &str, client_ms: f64, self_sum_ms: f64) {
        let e = self.classes.entry(class.to_owned()).or_default();
        e.0.push(client_ms);
        e.1.push(self_sum_ms);
    }

    /// `(class, samples, client mean, unexplained share)` per class.
    pub fn residuals(&self) -> Vec<(String, usize, f64, f64)> {
        self.classes
            .iter()
            .filter_map(|(class, (client, sum))| {
                let c = crate::stats::mean(client)?;
                let s = crate::stats::mean(sum)?;
                Some((class.clone(), client.len(), c, (c - s) / c))
            })
            .collect()
    }

    /// Share of all traced client time the layer rows leave unexplained,
    /// over every class: each class weighs by the time it takes.
    pub fn unexplained(&self) -> f64 {
        let (mut client, mut explained) = (0.0, 0.0);
        for (c, s) in self.classes.values() {
            client += c.iter().sum::<f64>();
            explained += s.iter().sum::<f64>();
        }
        if client > 0.0 {
            (client - explained).abs() / client
        } else {
            0.0
        }
    }
}

pub fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// The outcome of one request, traced or not.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    pub request: Request,
    /// HTTP status; 0 for a connect or read error.
    pub status: u16,
    pub digest: u64,
    /// `/metrics` only: the exposition carries the expected series.
    pub metrics_ok: bool,
    pub ms: f64,
}

/// Sends one request untraced.
pub fn call(addr: SocketAddr, concepts: &[Concept], request: Request) -> Record {
    let wire = request.wire(concepts);
    match client::call(addr, &wire) {
        Ok(reply) => Record {
            request,
            status: reply.status,
            digest: oracle::digest(&reply.body),
            metrics_ok: request != Request::Metrics || oracle::metrics_body_ok(&reply.body),
            ms: reply.elapsed.as_secs_f64() * 1e3,
        },
        Err(e) => {
            eprintln!("request failed: {e}");
            Record {
                request,
                status: 0,
                digest: 0,
                metrics_ok: false,
                ms: 0.0,
            }
        }
    }
}

fn prepare_label(m: Measure) -> &'static str {
    match m {
        Measure::Levenshtein => "tokens",
        Measure::Lin | Measure::ConceptualSimilarity => "tables",
        Measure::Tfidf => "tfidf",
    }
}

/// Traces requests against one server: `router` and `core` must hold
/// the memo state the server's tenant holds for the same requests.
pub struct Tracer<'a> {
    addr: SocketAddr,
    concepts: &'a [Concept],
    toolkit: &'a SstToolkit,
    router: Router<'a>,
    registry: &'a Corpora,
    core: &'a CachedSimilarity<Arc<SstToolkit>>,
    runners: Vec<Box<dyn sst_core::MeasureRunner>>,
}

impl<'a> Tracer<'a> {
    pub fn new(
        addr: SocketAddr,
        concepts: &'a [Concept],
        toolkit: &'a SstToolkit,
        registry: &'a Corpora,
        core: &'a CachedSimilarity<Arc<SstToolkit>>,
    ) -> Tracer<'a> {
        Tracer {
            addr,
            concepts,
            toolkit,
            router: Router::new(
                registry,
                Limits::default(),
                Arc::new(AtomicBool::new(false)),
            ),
            registry,
            core,
            runners: default_runners(),
        }
    }

    /// Sends `request` over HTTP, then replays it layer by layer. `warm`
    /// says whether a rank's pairs are already memoized.
    pub fn trace(
        &self,
        request: Request,
        warm: bool,
        layers: &mut Layers,
        acct: &mut Accounting,
    ) -> Record {
        let mut record = call(self.addr, self.concepts, request);
        if record.status != 200 {
            return record;
        }
        let client = record.ms;
        let (method, path, query, body) = request.parts(self.concepts);
        let built = sst_server::http::Request {
            method: method.to_owned(),
            path: path.to_owned(),
            query: query.into_iter().collect(),
            body: body.into_bytes(),
        };
        let t = Instant::now();
        let answer = self.router.handle(&built);
        let handle = ms(t);
        if answer.status.0 != 200 {
            eprintln!(
                "traced handler answered {} for {request:?}",
                answer.status.0
            );
            record.status = answer.status.0;
            return record;
        }
        drop(answer);
        // Replaying a memo-missing rank or an alignment right after the
        // request runs on caches the request just warmed, so its handler
        // time reads low; the wire row takes only the other requests.
        let heavy = matches!(request, Request::Align(_))
            || (matches!(request, Request::Rank { .. }) && !warm);
        if !heavy {
            layers.add("server.wire_ms", client - handle);
        }
        let mut self_sum = client - handle;
        let mut class = request.class().label();
        let failed = match self.layer_calls(request, warm, handle, layers, &mut self_sum) {
            Ok(()) => false,
            Err(e) => {
                eprintln!("traced call failed for {request:?}: {e}");
                true
            }
        };
        if failed {
            record.status = 0;
            return record;
        }
        if matches!(request, Request::Rank { .. }) {
            class.push_str(if warm { ".warm" } else { ".miss" });
        }
        acct.add(&class, client, self_sum);
        record
    }

    fn concept(&self, i: usize) -> Result<&Concept, String> {
        self.concepts
            .get(i)
            .ok_or_else(|| format!("no concept {i}"))
    }

    fn layer_calls(
        &self,
        request: Request,
        warm: bool,
        handle: f64,
        layers: &mut Layers,
        self_sum: &mut f64,
    ) -> Result<(), String> {
        let tk = self.toolkit;
        let e = |e: sst_core::SstError| e.to_string();
        match request {
            Request::Rank { concept, measure } => {
                let c = self.concept(concept)?;
                let id = tk.measure_id(measure.name()).map_err(e)?;
                layers.add("server.handle_ms.rank", handle);
                let t = Instant::now();
                self.core
                    .most_similar(&c.name, &c.ontology, &ConceptSet::All, RANK_K, id)
                    .map_err(e)?;
                let core = ms(t);
                layers.add("server.overhead_ms.rank", handle - core);
                *self_sum += handle - core;
                if warm {
                    layers.add("core.memo.rank_ms", core);
                    *self_sum += core;
                    return Ok(());
                }
                let query = tk
                    .soqa()
                    .resolve(&c.ontology, &c.name)
                    .map_err(|e| e.to_string())?;
                let mut batch = tk.tree().all_concepts();
                batch.push(query);
                let needs = self.runners.get(id).ok_or("no runner")?.needs();
                let t = Instant::now();
                drop(tk.prepare_for(&batch, needs));
                let prepare = ms(t);
                let t = Instant::now();
                tk.similarity_to_set(&c.name, &c.ontology, &ConceptSet::All, id)
                    .map_err(e)?;
                let to_set = ms(t);
                let t = Instant::now();
                tk.most_similar(&c.name, &c.ontology, &ConceptSet::All, RANK_K, id)
                    .map_err(e)?;
                let rank = ms(t);
                if let Some(s) = tk.last_sched_stats() {
                    layers.add("core.sched.steals", s.steals() as f64);
                    layers.add("core.sched.imbalance", s.imbalance());
                }
                layers.add(
                    &format!("core.prepare_ms.{}", prepare_label(measure)),
                    prepare,
                );
                layers.add(&format!("core.rank_ms.{}", measure.label()), rank);
                layers.add(
                    &format!("core.score_ms.{}", measure.label()),
                    to_set - prepare,
                );
                layers.add("core.select_ms", rank - to_set);
                layers.add("core.memo.miss_overhead_ms", core - rank);
                *self_sum += (core - rank) + prepare + (to_set - prepare) + (rank - to_set);
            }
            Request::Approx { concept } => {
                let c = self.concept(concept)?;
                let t = Instant::now();
                tk.most_similar_approx(&c.name, &c.ontology, RANK_K)
                    .map_err(e)?;
                let approx = ms(t);
                layers.add("core.vector.approx_ms", approx);
                *self_sum += approx;
            }
            Request::Similarity { .. } => {
                layers.add("server.handle_ms.similarity", handle);
                *self_sum += handle;
            }
            Request::Ql(i) => {
                layers.add("server.handle_ms.ql", handle);
                let q = QL_QUERIES.get(i).ok_or("no query")?;
                let t = Instant::now();
                tk.query_with_limits(q, &Limits::default()).map_err(e)?;
                let ql = ms(t);
                layers.add("soqa.ql_ms", ql);
                *self_sum += ql;
            }
            Request::Metrics => {
                layers.add("server.handle_ms.metrics", handle);
                let t = Instant::now();
                let text = self.registry.metrics().render_text();
                let render = ms(t);
                layers.add("obs.render_ms", render);
                layers.add("obs.series", text.lines().count() as f64);
                *self_sum += render;
            }
            Request::Align(i) => {
                layers.add("server.handle_ms.align", handle);
                let (source, target) = ALIGN_PAIRS.get(i).ok_or("no pair")?;
                let t = Instant::now();
                let a = align_with_limits(
                    tk,
                    source,
                    target,
                    &AlignmentConfig::default(),
                    &Limits::default(),
                )
                .map_err(e)?;
                let align = ms(t);
                layers.add("core.align_ms", align);
                layers.add("core.align.candidate_pairs", a.stats.candidate_pairs as f64);
                layers.add("core.align.proposals", a.stats.proposals as f64);
                *self_sum += align;
            }
        }
        Ok(())
    }
}

/// Requests of the off-path probe: every request class once per probe
/// concept, each rank twice (memo miss, then memo hit).
pub fn probe_requests(concepts: &[usize], n: usize) -> Vec<(Request, bool)> {
    let mut out = Vec::new();
    for (i, &c) in concepts.iter().enumerate() {
        for m in Measure::ALL {
            out.push((
                Request::Rank {
                    concept: c,
                    measure: m,
                },
                false,
            ));
            out.push((
                Request::Rank {
                    concept: c,
                    measure: m,
                },
                true,
            ));
        }
        out.push((
            Request::Similarity {
                first: c,
                second: (c + 1) % n.max(1),
                measure: Measure::Levenshtein,
            },
            true,
        ));
        out.push((Request::Approx { concept: c }, false));
        out.push((Request::Ql(i % QL_QUERIES.len()), false));
        out.push((Request::Metrics, false));
        out.push((Request::Align(i % ALIGN_PAIRS.len()), false));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexplained_weighs_classes_by_their_time() {
        let mut acct = Accounting::default();
        acct.add("slow", 10.0, 10.0);
        acct.add("slow", 10.0, 10.0);
        acct.add("fast", 1.0, 0.0);
        assert!((acct.unexplained() - 1.0 / 21.0).abs() < 1e-12);
        assert_eq!(Accounting::default().unexplained(), 0.0);
    }
}
