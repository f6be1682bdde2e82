//! The closed loop: `CALLERS` threads, each with its own client and
//! seeded op stream, each waiting for its reply before the next op.

use crate::cluster::Cluster;
use crate::report::Hist;
use crate::trace::{self, Span};
use crate::workload::{caller_seed, key_index, ValueCheck, Workload, CALLERS};
use mbal_client::{Client, ClientError, ClientStats, SetOptions};
use mbal_workload::{OpKind, WorkloadGen};
use std::collections::BTreeMap;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// What one caller saw in the measure window.
#[derive(Default)]
pub struct Tally {
    /// Call-to-return latency of successful GETs / SETs (fills included), ns.
    pub get_ns: Hist,
    pub set_ns: Hist,
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub fills: u64,
    pub attempted: u64,
    pub ok: u64,
    /// Refused or failed ops by status.
    pub errors: BTreeMap<String, u64>,
    /// GET hits whose value no writer produced (counted in every phase).
    pub mismatches: u64,
    /// `Moved` redirects the client followed.
    pub moved: u64,
    /// `busy_retries` + `transport_retries` of the client.
    pub retries: u64,
}

impl Tally {
    fn merge(&mut self, o: Tally) {
        self.get_ns.merge(&o.get_ns);
        self.set_ns.merge(&o.set_ns);
        self.gets += o.gets;
        self.hits += o.hits;
        self.sets += o.sets;
        self.fills += o.fills;
        self.attempted += o.attempted;
        self.ok += o.ok;
        for (k, v) in o.errors {
            *self.errors.entry(k).or_default() += v;
        }
        self.mismatches += o.mismatches;
        self.moved += o.moved;
        self.retries += o.retries;
    }
}

/// A measure window's results, summed over callers.
pub struct Window {
    pub tally: Tally,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Spans the callers recorded (traced runs only).
    pub spans: Vec<Span>,
}

impl Window {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

fn label(e: &ClientError) -> String {
    match (e.status(), e) {
        (Some(s), _) => format!("{s:?}"),
        (None, ClientError::Transport(_)) => "Transport".into(),
        (None, ClientError::RetriesExhausted) => "RetriesExhausted".into(),
        (None, _) => "Other".into(),
    }
}

struct Caller<'a> {
    client: Client,
    gen: WorkloadGen,
    w: &'a Workload,
    check: &'a ValueCheck,
    traced: bool,
    op_id: u64,
}

impl Caller<'_> {
    /// Runs `f` as one timed op, inside a root span when traced.
    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Client) -> R) -> (R, u64) {
        let start = Instant::now();
        let r = if self.traced {
            self.op_id += 1;
            trace::set_op(self.op_id);
            let client = &mut self.client;
            trace::span(name, || f(client))
        } else {
            f(&mut self.client)
        };
        (r, start.elapsed().as_nanos() as u64)
    }

    fn set(&mut self, t: &mut Tally, key: &[u8], value: &[u8]) {
        t.sets += 1;
        t.attempted += 1;
        let (r, ns) = self.timed("client.set", |c| c.set_opts(key, value, SetOptions::new()));
        match r {
            Ok(_) => {
                t.ok += 1;
                t.set_ns.record(ns);
            }
            Err(e) => *t.errors.entry(label(&e)).or_default() += 1,
        }
    }

    fn one_op(&mut self, t: &mut Tally) {
        let op = self.gen.next_op();
        if op.kind != OpKind::Get {
            return self.set(t, &op.key, &op.value);
        }
        t.gets += 1;
        t.attempted += 1;
        let (r, ns) = self.timed("client.get", |c| c.get(&op.key));
        match r {
            Ok(Some(v)) => {
                t.ok += 1;
                t.hits += 1;
                t.get_ns.record(ns);
                if !self.check.ok(&op.key, &v) {
                    t.mismatches += 1;
                }
            }
            Ok(None) => {
                t.ok += 1;
                t.get_ns.record(ns);
                if self.w.fill_on_miss {
                    let idx = key_index(&op.key).expect("generated keys carry their index");
                    let value = self.gen.make_value(idx);
                    t.fills += 1;
                    self.set(t, &op.key, &value);
                }
            }
            Err(e) => *t.errors.entry(label(&e)).or_default() += 1,
        }
    }

    fn poll(&mut self) {
        if self.traced {
            self.op_id += 1;
            trace::set_op(self.op_id);
            let client = &mut self.client;
            trace::span("client.poll", || client.poll_coordinator());
        } else {
            self.client.poll_coordinator();
        }
    }

    /// Issues ops until `until`, polling the coordinator once per
    /// balancer epoch the way a client's heartbeat would.
    fn run_until(&mut self, t: &mut Tally, until: Instant, epoch: Duration) {
        let mut next_poll = Instant::now() + epoch;
        loop {
            let now = Instant::now();
            if now >= until {
                break;
            }
            if now >= next_poll {
                self.poll();
                next_poll = now + epoch;
            }
            self.one_op(t);
        }
    }
}

/// Warms up for `warmup`, then measures for `measure`. `at_start` runs
/// while every caller is parked between the two (the benchmark resets
/// server counters and takes its snapshots there), so server and client
/// counts cover the same ops.
pub fn run(
    cluster: &Cluster,
    w: &Workload,
    seed: u64,
    check: &ValueCheck,
    warmup: Duration,
    measure: Duration,
    at_start: impl FnOnce(),
) -> Window {
    let barrier = Barrier::new(CALLERS + 1);
    let t0: Mutex<Option<Instant>> = Mutex::new(None);
    let epoch = Duration::from_millis(cluster.epoch_ms);
    let traced = cluster.traced.is_some();
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..CALLERS)
            .map(|c| {
                let (barrier, t0) = (&barrier, &t0);
                sc.spawn(move || {
                    let mut caller = Caller {
                        client: cluster.client(),
                        gen: WorkloadGen::new(w.spec.clone(), caller_seed(seed, c)),
                        w,
                        check,
                        traced,
                        op_id: (c as u64 + 1) << 40,
                    };
                    let mut warm = Tally::default();
                    caller.run_until(&mut warm, Instant::now() + warmup, epoch);
                    drop(trace::take_thread_spans());
                    barrier.wait();
                    barrier.wait();
                    let before = caller.client.stats();
                    let start = t0.lock().expect("t0 lock").expect("t0 set before release");
                    let mut t = Tally {
                        mismatches: warm.mismatches,
                        ..Tally::default()
                    };
                    caller.run_until(&mut t, start + measure, epoch);
                    let end_ns = trace::now_ns();
                    let after = caller.client.stats();
                    t.moved = after.moved - before.moved;
                    t.retries = retries(after) - retries(before);
                    (t, end_ns, trace::take_thread_spans())
                })
            })
            .collect();
        barrier.wait();
        at_start();
        let start_ns = trace::now_ns();
        *t0.lock().expect("t0 lock") = Some(Instant::now());
        barrier.wait();
        let mut out = Window {
            tally: Tally::default(),
            start_ns,
            end_ns: start_ns,
            spans: Vec::new(),
        };
        for h in handles {
            let (t, end_ns, spans) = h.join().expect("caller thread panicked");
            out.tally.merge(t);
            out.end_ns = out.end_ns.max(end_ns);
            out.spans.extend(spans);
        }
        out
    })
}

fn retries(s: ClientStats) -> u64 {
    s.busy_retries + s.transport_retries
}
