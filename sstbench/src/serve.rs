//! `serve_hot` and `serve_cold`: one client in a closed loop against a
//! real one-worker `sst-server` over loopback TCP.

use std::sync::Arc;
use std::time::Instant;

use sst_core::{CachedSimilarity, SnapshotFile, SstToolkit, VectorStore};
use sst_limits::Limits;
use sst_server::Corpora;

use crate::corpus::{self, Sources, StartTimes};
use crate::gen::{self, Class, Concept, Request, Shape, Stream, HOT_MEASURES};
use crate::oracle;
use crate::report::{self, Outcome};
use crate::served::{self, Served, CORPUS};
use crate::stats;
use crate::trace::{self, ms, Accounting, Layers, Record, Tracer};

/// Requests per window. The serve latency quantiles are taken per window
/// of consecutive requests and averaged over the run's windows: on a
/// shared host, requests run in a fast or a slow state that switches
/// every second or so, and a quantile pooled over the run jumps between
/// the two states' values as their shares shift, while the mean over
/// windows moves smoothly with them. A multiple of both mix blocks, so
/// every window realises the mix exactly, and large enough that each
/// window's p90 has 20 samples beyond it.
pub const WINDOW: usize = 200;
/// Fewest complete windows a timed phase may have.
pub const MIN_WINDOWS: usize = 3;
/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Start pairs (source, then snapshot) per serve set-up; the last
/// snapshot-started toolkit is the one served. The start metrics are
/// medians over every set-up's starts.
pub const STARTS_PER_SETUP: usize = 3;
/// Cold requests sent before timing, enough to fill the memo
/// (65,536 pairs ≈ 70 ranks of 943 members) so timed ranks evict.
pub const COLD_WARMUP: usize = 100;

/// A served replica, warmed up and ready for the timed phase.
struct Rig {
    toolkit: Arc<SstToolkit>,
    concepts: Vec<Concept>,
    served: Served,
    stream: Stream,
    cold_start_ms: Vec<f64>,
    snapshot_start_ms: Vec<f64>,
}

/// Records the layer times of a start into the trace rows.
pub fn add_start_rows(layers: &mut Layers, t: &StartTimes, from_sources: bool) {
    let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
    if from_sources {
        layers.add("wrappers.parse_owl_ms", ms(t.parse_owl));
        layers.add("wrappers.parse_daml_ms", ms(t.parse_daml));
        layers.add("wrappers.parse_powerloom_ms", ms(t.parse_powerloom));
        layers.add("core.build_ms", ms(t.build));
    } else {
        layers.add("core.snapshot.import_ms", ms(t.import));
    }
    layers.add("core.first_rank_ms", ms(t.first_rank));
    layers.add("core.first_approx_ms", ms(t.first_approx));
}

/// Rebuilds the toolkit's NSW graph from its own rows (`core.vector.graph_ms`).
pub fn time_graph(toolkit: &SstToolkit, layers: &mut Layers) {
    let store = toolkit.vector_store();
    let rows = (0..store.len())
        .filter_map(|r| {
            Some((
                store.concept(r)?,
                store.label(r)?.to_owned(),
                store.row(r).to_vec(),
            ))
        })
        .collect();
    let t = Instant::now();
    drop(VectorStore::from_rows(rows, store.dim()));
    layers.add("core.vector.graph_ms", ms(t));
}

/// Exports a snapshot, timing export and (traced) decode.
pub fn export_snapshot(toolkit: &SstToolkit, layers: &mut Layers) -> Result<Vec<u8>, String> {
    let t = Instant::now();
    let bytes = toolkit.export_snapshot();
    layers.add("core.snapshot.export_ms", ms(t));
    layers.add("core.snapshot.bytes", bytes.len() as f64);
    let t = Instant::now();
    SnapshotFile::from_bytes(&bytes, &Limits::default())
        .map_err(|e| format!("decode snapshot: {e}"))?;
    layers.add("core.snapshot.decode_ms", ms(t));
    Ok(bytes)
}

impl Rig {
    /// Load (source start, snapshot export, snapshot start; repeated),
    /// bind, warm up.
    fn setup(shape: Shape, seed: u64, trace: bool, layers: &mut Layers) -> Result<Rig, String> {
        let src = Sources::read()?;
        let mut cold_start_ms = Vec::new();
        let mut snapshot_start_ms = Vec::new();
        let mut served_toolkit = None;
        for _ in 0..STARTS_PER_SETUP {
            drop(served_toolkit.take());
            let a = corpus::start_from_sources(&src, seed)?;
            cold_start_ms.push(a.times.total.as_secs_f64() * 1e3);
            let bytes = if trace {
                add_start_rows(layers, &a.times, true);
                time_graph(&a.toolkit, layers);
                export_snapshot(&a.toolkit, layers)?
            } else {
                a.toolkit.export_snapshot()
            };
            drop(a.toolkit);
            let b = corpus::start_from_snapshot(&bytes, seed)?;
            snapshot_start_ms.push(b.times.total.as_secs_f64() * 1e3);
            if trace {
                add_start_rows(layers, &b.times, false);
            }
            served_toolkit = Some(b.toolkit);
        }
        let toolkit = Arc::new(served_toolkit.ok_or("no start ran")?);
        let concepts = corpus::concepts(&toolkit);
        if concepts.len() < gen::HOT_CONCEPTS {
            return Err(format!("corpus has only {} concepts", concepts.len()));
        }
        let served = Served::start(Arc::clone(&toolkit))?;
        let mut stream = Stream::new(shape, seed, concepts.len());
        let warmup: Vec<Request> = match shape {
            Shape::Hot => stream
                .hot_concepts()
                .iter()
                .flat_map(|&concept| HOT_MEASURES.map(|measure| Request::Rank { concept, measure }))
                .collect(),
            Shape::Cold => stream.by_ref().take(COLD_WARMUP).collect(),
        };
        for request in warmup {
            let r = trace::call(served.addr, &concepts, request);
            if r.status != 200 {
                return Err(format!("warm-up {request:?} answered {}", r.status));
            }
        }
        Ok(Rig {
            toolkit,
            concepts,
            served,
            stream,
            cold_start_ms,
            snapshot_start_ms,
        })
    }
}

/// Sends requests from `next` until `seconds` have passed. Returns the
/// records and the wall time taken.
fn drive(seconds: f64, mut next: impl FnMut() -> Record) -> (Vec<Record>, f64) {
    let start = Instant::now();
    let mut out = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        out.push(next());
    }
    (out, start.elapsed().as_secs_f64())
}

/// p50 and p90 of each complete window of [`WINDOW`] consecutive
/// requests; voids the run below [`MIN_WINDOWS`] windows.
fn window_quantiles(records: &[Record]) -> Result<Vec<(f64, f64)>, String> {
    if records.len() < WINDOW * MIN_WINDOWS {
        return Err(format!(
            "{} requests: the metrics need {MIN_WINDOWS} windows of {WINDOW}",
            records.len()
        ));
    }
    Ok(records
        .chunks_exact(WINDOW)
        .filter_map(|chunk| {
            let lat = stats::sorted(&chunk.iter().map(|r| r.ms).collect::<Vec<_>>());
            Some((
                stats::nearest_rank(&lat, 50)?,
                stats::nearest_rank(&lat, 90)?,
            ))
        })
        .collect())
}

/// Memo traffic of a tenant: (hits, misses, evictions).
fn memo(corpora: &Corpora) -> (u64, u64, u64) {
    let t = corpora.default_tenant();
    let (h, m) = t.cache().stats();
    (h, m, t.cache().evictions())
}

fn hit_ratio(before: (u64, u64, u64), after: (u64, u64, u64)) -> f64 {
    let hits = after.0 - before.0;
    let misses = after.1 - before.1;
    hits as f64 / (hits + misses).max(1) as f64
}

/// Voids the run when the traffic did not have the shape the workload
/// promises, so a "predicted flat" row can never be fed the wrong mix.
fn shape_guards(shape: Shape, records: &[Record], hit: f64) -> Result<(), String> {
    let shed = records.iter().filter(|r| r.status == 429).count();
    if shed > 0 {
        return Err(format!("{shed} requests were shed with 429"));
    }
    match shape {
        Shape::Hot if hit < 0.99 => {
            return Err(format!("serve_hot memo hit ratio {hit:.4} < 0.99"))
        }
        Shape::Cold if hit > 0.05 => {
            return Err(format!("serve_cold memo hit ratio {hit:.4} > 0.05"))
        }
        _ => {}
    }
    let classes: Vec<Class> = records.iter().map(|r| r.request.class()).collect();
    let dev = gen::mix_deviation(shape.mix(), &classes);
    if dev > 1.0 {
        return Err(format!("realised mix is {dev:.2} points off the weights"));
    }
    Ok(())
}

pub fn run(shape: Shape, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut own = Layers::default();
    let mut setups = Vec::new();
    let mut cold = Vec::new();
    let mut snap = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        if let Some(mut previous) = rig.take() {
            previous.served.stop()?;
        }
        let t = Instant::now();
        let r = Rig::setup(shape, seed, trace, &mut own)?;
        setups.push(t.elapsed().as_secs_f64());
        cold.extend_from_slice(&r.cold_start_ms);
        snap.extend_from_slice(&r.snapshot_start_ms);
        rig = Some(r);
    }
    let mut rig = rig.ok_or("no set-up ran")?;
    let addr = rig.served.addr;
    let concepts = rig.concepts.clone();

    let plain_secs = if trace { seconds / 2.0 } else { seconds };
    let before = memo(&rig.served.corpora);
    let (plain, wall) = {
        let stream = &mut rig.stream;
        drive(plain_secs, || {
            let request = stream.pop();
            trace::call(addr, &concepts, request)
        })
    };
    let after = memo(&rig.served.corpora);
    // Peak memory of set-up plus serving, before the oracle allocates.
    let rss = report::rss_peak_mb()?;
    let hit = hit_ratio(before, after);
    shape_guards(shape, &plain, hit)?;
    eprintln!(
        "{} requests in {wall:.2}s, memo hit ratio {hit:.4}, evictions {}",
        plain.len(),
        after.2 - before.2
    );

    let mut records = plain.clone();
    let mut metrics = Vec::new();
    if trace {
        own.add("core.memo.hit_ratio", hit);
        own.add("core.memo.evictions", (after.2 - before.2) as f64);
        let mut acct = Accounting::default();
        let (traced, _) = {
            // serve_hot replays against the live, warm tenant; serve_cold
            // against a fresh shadow tenant and memo, which miss as the
            // server's tenant does.
            let shadow = Corpora::new(CORPUS, Arc::clone(&rig.toolkit));
            let fresh = CachedSimilarity::new(Arc::clone(&rig.toolkit));
            let live = rig.served.corpora.default_tenant();
            let (registry, core) = match shape {
                Shape::Hot => (&*rig.served.corpora, live.cache()),
                Shape::Cold => (&shadow, &fresh),
            };
            let tracer = Tracer::new(addr, &concepts, &rig.toolkit, registry, core);
            let stream = &mut rig.stream;
            let own = &mut own;
            let acct = &mut acct;
            drive(seconds / 2.0, || {
                let request = stream.pop();
                tracer.trace(request, shape == Shape::Hot, own, acct)
            })
        };
        let ok_ms = |rs: &[Record]| {
            stats::mean(
                &rs.iter()
                    .filter(|r| r.status == 200)
                    .map(|r| r.ms)
                    .collect::<Vec<_>>(),
            )
        };
        let overhead = ok_ms(&traced).zip(ok_ms(&plain)).map(|(t, p)| t - p);
        own.add("trace.overhead_ms", overhead.ok_or("no traced samples")?);
        own.add("trace.samples", traced.len() as f64);
        let unexplained = acct.unexplained();
        own.add("trace.accounting_residual", unexplained);
        for (class, n, client, share) in acct.residuals() {
            eprintln!(
                "accounting {class}: n={n} client {client:.3} ms, unexplained {:+.1}%",
                share * 100.0
            );
        }
        if unexplained > trace::ACCOUNTING_TOLERANCE {
            return Err(format!(
                "layer accounting leaves {:.1}% unexplained (tolerance {:.0}%)",
                unexplained * 100.0,
                trace::ACCOUNTING_TOLERANCE * 100.0
            ));
        }
        records.extend(traced);

        let mut probe_layers = Layers::default();
        let probed = served::probe(&rig.toolkit, &concepts, seed, &mut probe_layers)?;
        records.extend(probed);
        own.add("trace.oracle_checked", records.len() as f64);
        metrics = report::per_layer(&own, &probe_layers)?;
    }
    rig.served.stop()?;

    let failed = oracle::check(&rig.toolkit, &concepts, &records);
    if !trace {
        let windows = window_quantiles(&plain)?;
        let mean = |pick: fn(&(f64, f64)) -> f64, what: &str| {
            stats::mean(&windows.iter().map(pick).collect::<Vec<_>>())
                .ok_or_else(|| format!("no windows for {what}"))
        };
        let need = |v: Option<f64>, what: &str| v.ok_or_else(|| format!("no samples for {what}"));
        let answered = plain.iter().filter(|r| r.status == 200).count();
        metrics = vec![
            ("throughput_rps", answered as f64 / wall, "1/s"),
            ("latency_p50_ms", mean(|w| w.0, "p50")?, "ms"),
            ("latency_p90_ms", mean(|w| w.1, "p90")?, "ms"),
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
            "latency samples: {} in {} windows of {WINDOW} (each p90 has {} beyond)",
            plain.len(),
            windows.len(),
            stats::samples_beyond(WINDOW, 90)
        );
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted: records.len() as u64,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(shape: Shape, n: usize, status: u16) -> Vec<Record> {
        Stream::new(shape, 9, 943)
            .take(n)
            .map(|request| Record {
                request,
                status,
                digest: 0,
                metrics_ok: true,
                ms: 1.0,
            })
            .collect()
    }

    #[test]
    fn reported_p90_has_ten_samples_beyond_it() {
        // Each reported p90 comes from one window of WINDOW requests.
        assert!(stats::samples_beyond(WINDOW, 90) >= 10);
        let short = records(Shape::Hot, WINDOW * MIN_WINDOWS - 1, 200);
        assert!(window_quantiles(&short).unwrap_err().contains("windows"));
        let ok = records(Shape::Hot, WINDOW * MIN_WINDOWS, 200);
        assert!(shape_guards(Shape::Hot, &ok, 1.0).is_ok());
        let mut timed = ok.clone();
        timed.push(ok[0]);
        for (i, r) in timed.iter_mut().enumerate() {
            r.ms = (i % WINDOW) as f64;
        }
        // The incomplete last window is dropped; each window's nearest-rank
        // quantiles of 0..WINDOW are pinned.
        let windows = window_quantiles(&timed).unwrap();
        assert_eq!(windows, vec![(99.0, 179.0); MIN_WINDOWS]);
    }

    #[test]
    fn windows_realise_both_mixes_exactly() {
        for shape in [Shape::Hot, Shape::Cold] {
            let block: usize = shape.mix().iter().map(|&(_, w)| w).sum();
            assert_eq!(WINDOW % block, 0);
        }
    }

    #[test]
    fn guards_void_wrong_shapes() {
        let n = WINDOW * MIN_WINDOWS;
        assert!(shape_guards(Shape::Hot, &records(Shape::Hot, n, 200), 0.98).is_err());
        assert!(shape_guards(Shape::Cold, &records(Shape::Cold, n, 200), 0.06).is_err());
        assert!(shape_guards(Shape::Cold, &records(Shape::Cold, n, 200), 0.03).is_ok());
        assert!(shape_guards(Shape::Cold, &records(Shape::Cold, n, 429), 0.03).is_err());
        // Cold traffic judged against the hot mix is off by far more than a point.
        assert!(shape_guards(Shape::Hot, &records(Shape::Cold, n, 200), 1.0).is_err());
    }
}
