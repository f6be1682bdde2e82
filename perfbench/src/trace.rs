//! In-memory span recording and the decorators that emit spans at the
//! layer boundaries the benchmark can reach from outside the program:
//! the client's transport, the client's coordinator link, and the
//! coordinator service handed to each server.
//!
//! Every recording thread keeps its spans in a thread-local buffer; the
//! thread hands the buffer back with [`take_thread_spans`] before it
//! ends, and the benchmark writes the union out once the run is over.

use mbal_balancer::coordinator::{Coordinator, HeartbeatReply};
use mbal_balancer::plan::{Migration, WorkerLoad};
use mbal_balancer::CoordinatorService;
use mbal_client::CoordinatorLink;
use mbal_core::types::{CacheletId, ServerId, WorkerAddr};
use mbal_proto::{Request, Response};
use mbal_ring::MappingTable;
use mbal_server::{Transport, TransportError};
use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Unique across threads.
    pub id: u64,
    /// The enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// Shared by every span of one client op (or one balancer tick).
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

struct Local {
    thread: u64,
    next: u64,
    op: u64,
    stack: Vec<u64>,
    spans: Vec<Span>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local {
        thread: NEXT_THREAD.fetch_add(1, Relaxed),
        next: 0,
        op: 0,
        stack: Vec::new(),
        spans: Vec::new(),
    });
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Makes `op` the op id of spans this thread records from now on.
pub fn set_op(op: u64) {
    LOCAL.with(|l| l.borrow_mut().op = op);
}

/// Runs `f` inside a span called `name`, child of whatever span this
/// thread is in.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let (id, parent, op) = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.next += 1;
        let id = (l.thread << 40) | l.next;
        let parent = l.stack.last().copied().unwrap_or(0);
        l.stack.push(id);
        (id, parent, l.op)
    });
    let start_ns = now_ns();
    let out = f();
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.stack.pop();
        l.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
            parent,
            op,
        });
    });
    out
}

/// Removes and returns every span this thread has recorded.
pub fn take_thread_spans() -> Vec<Span> {
    LOCAL.with(|l| std::mem::take(&mut l.borrow_mut().spans))
}

/// Writes spans as tab-separated lines: op, id, parent, name, start, end.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "op\tid\tparent\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.op, s.id, s.parent, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

/// The client's transport, with a `transport.call` span per call and
/// counts of calls, requests and timeouts.
pub struct TracedTransport {
    inner: Arc<dyn Transport>,
    calls: AtomicU64,
    requests: AtomicU64,
    timeouts: AtomicU64,
}

impl TracedTransport {
    pub fn new(inner: Arc<dyn Transport>) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
        }
    }

    /// `(calls, requests, timeouts)` so far.
    pub fn counts(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Relaxed),
            self.requests.load(Relaxed),
            self.timeouts.load(Relaxed),
        )
    }

    fn note(&self, requests: usize, timeouts: usize) {
        self.calls.fetch_add(1, Relaxed);
        self.requests.fetch_add(requests as u64, Relaxed);
        self.timeouts.fetch_add(timeouts as u64, Relaxed);
    }
}

fn is_timeout<T>(r: &Result<T, TransportError>) -> usize {
    usize::from(matches!(r, Err(TransportError::Timeout(_))))
}

impl Transport for TracedTransport {
    fn call(&self, addr: WorkerAddr, req: Request) -> Result<Response, TransportError> {
        let r = span("transport.call", || self.inner.call(addr, req));
        self.note(1, is_timeout(&r));
        r
    }

    fn call_with_deadline(
        &self,
        addr: WorkerAddr,
        req: Request,
        deadline: Duration,
    ) -> Result<Response, TransportError> {
        let r = span("transport.call", || {
            self.inner.call_with_deadline(addr, req, deadline)
        });
        self.note(1, is_timeout(&r));
        r
    }

    fn call_many(
        &self,
        addr: WorkerAddr,
        reqs: Vec<Request>,
        deadline: Duration,
    ) -> Vec<Result<Response, TransportError>> {
        let n = reqs.len();
        let r = span("transport.call", || {
            self.inner.call_many(addr, reqs, deadline)
        });
        self.note(n, r.iter().map(is_timeout).sum());
        r
    }

    fn cast(&self, addr: WorkerAddr, req: Request) {
        self.inner.cast(addr, req)
    }
}

/// The client's coordinator link, with a span per heartbeat and table
/// fetch.
pub struct TracedLink(pub Arc<Coordinator>);

impl CoordinatorLink for TracedLink {
    fn heartbeat(&self, version: u64) -> HeartbeatReply {
        span("coordinator.heartbeat", || {
            CoordinatorLink::heartbeat(&*self.0, version)
        })
    }

    fn full_table(&self) -> MappingTable {
        span("coordinator.full_table", || {
            CoordinatorLink::full_table(&*self.0)
        })
    }
}

/// The coordinator as the servers see it, with a `coordinator.call`
/// span around every entry point.
pub struct TracedCoordinator(pub Arc<Coordinator>);

impl TracedCoordinator {
    fn inner(&self) -> &dyn CoordinatorService {
        &*self.0
    }
}

impl CoordinatorService for TracedCoordinator {
    fn report_stats(&self, server: ServerId, workers: Vec<WorkerLoad>) {
        span("coordinator.call", || {
            self.inner().report_stats(server, workers)
        })
    }

    fn mapping_snapshot(&self) -> MappingTable {
        span("coordinator.call", || self.inner().mapping_snapshot())
    }

    fn mapping_version(&self) -> u64 {
        span("coordinator.call", || self.inner().mapping_version())
    }

    fn request_migration(&self, src: WorkerAddr) -> Option<Vec<Migration>> {
        span("coordinator.call", || self.inner().request_migration(src))
    }

    fn migration_complete(&self, cachelet: CacheletId) {
        span("coordinator.call", || {
            self.inner().migration_complete(cachelet)
        })
    }

    fn migration_failed(&self, m: &Migration) {
        span("coordinator.call", || self.inner().migration_failed(m))
    }

    fn report_local_move(&self, m: &Migration) {
        span("coordinator.call", || self.inner().report_local_move(m))
    }

    fn heartbeat(&self, client_version: u64) -> HeartbeatReply {
        span("coordinator.call", || {
            CoordinatorService::heartbeat(self.inner(), client_version)
        })
    }

    fn join_server(&self, server: ServerId, workers: u16, now_ms: u64) -> u64 {
        span("coordinator.call", || {
            self.inner().join_server(server, workers, now_ms)
        })
    }

    fn drain_server(&self, server: ServerId, now_ms: u64) -> u64 {
        span("coordinator.call", || {
            self.inner().drain_server(server, now_ms)
        })
    }

    fn membership_heartbeat(
        &self,
        server: ServerId,
        incarnation: u64,
        now_ms: u64,
    ) -> Option<mbal_membership::NodeState> {
        span("coordinator.call", || {
            self.inner()
                .membership_heartbeat(server, incarnation, now_ms)
        })
    }

    fn membership_tick(&self, now_ms: u64) -> Vec<mbal_membership::MembershipEvent> {
        span("coordinator.call", || self.inner().membership_tick(now_ms))
    }

    fn membership_view(&self, now_ms: u64) -> Option<mbal_membership::MembershipView> {
        span("coordinator.call", || self.inner().membership_view(now_ms))
    }

    fn cluster_epoch(&self) -> u64 {
        span("coordinator.call", || self.inner().cluster_epoch())
    }

    fn pending_moves_for(&self, server: ServerId) -> Vec<Migration> {
        span("coordinator.call", || {
            self.inner().pending_moves_for(server)
        })
    }

    fn rebalance_inflight(&self) -> u64 {
        span("coordinator.call", || self.inner().rebalance_inflight())
    }
}
