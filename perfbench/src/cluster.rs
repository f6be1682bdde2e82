//! A live 2-server × 2-worker × 4-cachelet cluster with the slab engine,
//! ticked by the benchmark's own balancer loop.

use crate::trace::{self, TracedCoordinator, TracedLink, TracedTransport};
use crate::workload::{
    Wire, Workload, CACHELETS_PER_WORKER, SERVERS, WORKERS_PER_SERVER, WORKER_CAPACITY_OPS,
};
use mbal_balancer::coordinator::Coordinator;
use mbal_balancer::BalancerConfig;
use mbal_client::{Client, CoordinatorLink, SetOptions};
use mbal_core::clock::{Clock, RealClock};
use mbal_core::engine::EngineKind;
use mbal_core::types::{ServerId, WorkerAddr};
use mbal_ring::{ConsistentRing, MappingTable};
use mbal_server::tcp::{serve_tcp, TcpTransport};
use mbal_server::{InProcRegistry, Server, ServerConfig, Transport};
use mbal_telemetry::StatsReport;
use mbal_workload::WorkloadGen;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One balancer tick: when it ended and how long it held the server.
#[derive(Debug, Clone, Copy)]
pub struct Tick {
    pub end_ns: u64,
    pub dur_ns: u64,
}

pub struct Cluster {
    pub servers: Vec<Arc<Mutex<Server>>>,
    pub coordinator: Arc<Coordinator>,
    transport: Arc<dyn Transport>,
    link: Arc<dyn CoordinatorLink>,
    /// The undecorated transport, for preload and stats scrapes, so the
    /// traced counts hold caller traffic only.
    raw: Arc<dyn Transport>,
    clock: Arc<dyn Clock>,
    /// Present when the cluster was built for a traced run.
    pub traced: Option<Arc<TracedTransport>>,
    pub epoch_ms: u64,
    stop: Arc<AtomicBool>,
    tickers: Vec<JoinHandle<(Vec<Tick>, Vec<trace::Span>)>>,
}

impl Cluster {
    /// Spawns the servers (and TCP listeners when the workload uses
    /// TCP). The balancer loop starts separately, after any preload.
    pub fn spawn(w: &Workload, traced: bool) -> Self {
        let mut ring = ConsistentRing::new();
        for s in 0..SERVERS {
            for wk in 0..WORKERS_PER_SERVER {
                ring.add_worker(WorkerAddr::new(s, wk));
            }
        }
        let workers = (SERVERS * WORKERS_PER_SERVER) as usize;
        let vns = (workers * CACHELETS_PER_WORKER * 16).next_power_of_two();
        let mapping = MappingTable::build(&ring, CACHELETS_PER_WORKER, vns);
        let bal = BalancerConfig {
            phases: w.phases,
            ..BalancerConfig::aggressive()
        };
        let coordinator = Arc::new(Coordinator::new(mapping.clone(), bal.clone()));
        let registry = InProcRegistry::new();
        let clock: Arc<dyn Clock> = Arc::new(RealClock::new());
        let mut routes = HashMap::new();
        let mut servers = Vec::new();
        for s in 0..SERVERS {
            let mut cfg = ServerConfig::new(ServerId(s), WORKERS_PER_SERVER, w.server_mem)
                .cachelets_per_worker(CACHELETS_PER_WORKER)
                .balancer(bal.clone())
                .worker_capacity(WORKER_CAPACITY_OPS)
                .engine(EngineKind::SlabLru);
            cfg.metrics_port = None;
            let server = if traced {
                let service = Arc::new(TracedCoordinator(Arc::clone(&coordinator)));
                Server::spawn(cfg, &mapping, &registry, service, Arc::clone(&clock))
            } else {
                let service = Arc::clone(&coordinator);
                Server::spawn(cfg, &mapping, &registry, service, Arc::clone(&clock))
            };
            if w.wire == Wire::Tcp {
                routes.extend(
                    serve_tcp(&server.worker_mailboxes(), "127.0.0.1", 0)
                        .expect("bind loopback listener"),
                );
            }
            servers.push(Arc::new(Mutex::new(server)));
        }
        let raw: Arc<dyn Transport> = match w.wire {
            Wire::InProc => registry,
            Wire::Tcp => TcpTransport::new(routes),
        };
        let (transport, link, traced): (Arc<dyn Transport>, Arc<dyn CoordinatorLink>, _) = if traced
        {
            let t = Arc::new(TracedTransport::new(Arc::clone(&raw)));
            (
                Arc::clone(&t) as Arc<dyn Transport>,
                Arc::new(TracedLink(Arc::clone(&coordinator))),
                Some(t),
            )
        } else {
            (
                Arc::clone(&raw),
                Arc::clone(&coordinator) as Arc<dyn CoordinatorLink>,
                None,
            )
        };
        Self {
            servers,
            coordinator,
            transport,
            link,
            raw,
            clock,
            traced,
            epoch_ms: bal.epoch_ms,
            stop: Arc::new(AtomicBool::new(false)),
            tickers: Vec::new(),
        }
    }

    /// A caller's client: through the decorators in a traced run.
    pub fn client(&self) -> Client {
        Client::builder(Arc::clone(&self.transport), Arc::clone(&self.link)).build()
    }

    fn raw_client(&self) -> Client {
        let link = Arc::clone(&self.coordinator) as Arc<dyn CoordinatorLink>;
        Client::builder(Arc::clone(&self.raw), link).build()
    }

    /// Stores every record under the load-phase seed, then zeroes the
    /// servers' counters.
    pub fn preload(&self, w: &Workload, seed: u64) {
        let mut client = self.raw_client();
        let gen = WorkloadGen::new(w.spec.clone(), seed);
        for (k, v) in gen.load_phase() {
            client
                .set_opts(&k, &v, SetOptions::new())
                .expect("preload set");
        }
        client
            .server_stats(true)
            .expect("stats reset after preload");
    }

    /// Starts one balancer loop per server, calling `Server::tick` every
    /// epoch in place of `Server::start_balance_thread`, so each tick
    /// can be timed (and traced) from here.
    pub fn start_ticking(&mut self) {
        for (s, server) in self.servers.iter().enumerate() {
            let server = Arc::clone(server);
            let stop = Arc::clone(&self.stop);
            let epoch = Duration::from_millis(self.epoch_ms);
            let traced = self.traced.is_some();
            let clock = Arc::clone(&self.clock);
            self.tickers.push(std::thread::spawn(move || {
                let mut ticks = Vec::new();
                let mut seq = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(epoch);
                    seq += 1;
                    let now_ms = clock.now_millis();
                    let start = Instant::now();
                    let mut guard = server.lock().expect("server lock poisoned by a panic");
                    if traced {
                        trace::set_op((1 << 63) | ((s as u64) << 40) | seq);
                        trace::span("balancer.tick", || guard.tick(now_ms));
                    } else {
                        guard.tick(now_ms);
                    }
                    drop(guard);
                    ticks.push(Tick {
                        end_ns: trace::now_ns(),
                        dur_ns: start.elapsed().as_nanos() as u64,
                    });
                }
                (ticks, trace::take_thread_spans())
            }));
        }
    }

    /// Every worker's stats report, optionally resetting the counters.
    pub fn stats(&self, reset: bool) -> Vec<StatsReport> {
        self.raw_client()
            .server_stats(reset)
            .expect("stats from workers")
    }

    /// Stops the balancer loops and the workers; returns the ticks and
    /// the spans the loops recorded.
    pub fn shutdown(self) -> (Vec<Tick>, Vec<trace::Span>) {
        self.stop.store(true, Ordering::Relaxed);
        let mut ticks = Vec::new();
        let mut spans = Vec::new();
        for h in self.tickers {
            let (t, s) = h.join().expect("balancer loop panicked");
            ticks.extend(t);
            spans.extend(s);
        }
        for s in &self.servers {
            s.lock()
                .expect("server lock poisoned by a panic")
                .shutdown();
        }
        (ticks, spans)
    }
}
