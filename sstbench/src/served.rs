//! A real `sst-server` on loopback: `Server::bind` + `Corpora`, one
//! worker, run on its own thread until stopped.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sst_core::{CachedSimilarity, SstToolkit};
use sst_server::{Corpora, Server, ServerConfig, ServerError, ShutdownHandle};

use crate::gen::{Concept, Rng};
use crate::trace::{self, Accounting, Layers, Record, Tracer};

/// Name of the served corpus (not an ontology name, so `/rank`'s
/// `ontology` parameter never routes to it by accident).
pub const CORPUS: &str = "paper";

#[derive(Debug)]
pub struct Served {
    pub corpora: Arc<Corpora>,
    pub addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: Option<JoinHandle<Result<(), ServerError>>>,
}

impl Served {
    pub fn start(toolkit: Arc<SstToolkit>) -> Result<Served, String> {
        let corpora = Arc::new(Corpora::new(CORPUS, toolkit));
        let config = ServerConfig {
            workers: 1,
            request_deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        };
        let server = Server::bind(config).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let shutdown = server.shutdown_handle();
        let shared = Arc::clone(&corpora);
        let thread = std::thread::spawn(move || server.run(&shared));
        Ok(Served {
            corpora,
            addr,
            shutdown,
            thread: Some(thread),
        })
    }

    /// Stops the server and waits for its thread.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.shutdown.shutdown();
        match thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("{e}");
        }
    }
}

/// Concepts of the off-path probe.
const PROBE_CONCEPTS: usize = 2;

/// The off-path probe: traces [`trace::probe_requests`] for seeded
/// concepts against a fresh server, a fresh shadow registry and a fresh
/// memo, so the rows a workload's own traffic never reaches still carry a
/// measured value. Adds the probe tenant's memo rows to `layers` and
/// returns the probe's records for the oracle.
pub fn probe(
    toolkit: &Arc<SstToolkit>,
    concepts: &[Concept],
    seed: u64,
    layers: &mut Layers,
) -> Result<Vec<Record>, String> {
    let mut pick = Rng::new(seed ^ 0x0FF_9A7E);
    let probe_concepts: Vec<usize> = (0..PROBE_CONCEPTS)
        .map(|_| pick.below(concepts.len()))
        .collect();
    let mut served = Served::start(Arc::clone(toolkit))?;
    let shadow = Corpora::new(CORPUS, Arc::clone(toolkit));
    let core = CachedSimilarity::new(Arc::clone(toolkit));
    let tracer = Tracer::new(served.addr, concepts, toolkit, &shadow, &core);
    let mut acct = Accounting::default();
    let records: Vec<Record> = trace::probe_requests(&probe_concepts, concepts.len())
        .into_iter()
        .map(|(request, warm)| tracer.trace(request, warm, layers, &mut acct))
        .collect();
    let tenant = served.corpora.default_tenant();
    let (hits, misses) = tenant.cache().stats();
    layers.add(
        "core.memo.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    layers.add("core.memo.evictions", tenant.cache().evictions() as f64);
    served.stop()?;
    Ok(records)
}
