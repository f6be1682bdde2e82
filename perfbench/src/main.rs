//! Closed-loop benchmark of the MBal cache: end-to-end goodput and
//! latency per workload (`--trace 0`), or per-layer numbers from a
//! traced run (`--trace 1`). See `perfbench/README.md`.
//!
//! Usage: `mbal-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! The last line of standard output is the JSON result.

mod cluster;
mod load;
mod replay;
mod report;
mod trace;
mod workload;

use cluster::{Cluster, Tick};
use load::Window;
use mbal_balancer::Phase;
use mbal_telemetry::{Counter, MetricsSnapshot, StatsReport};
use report::{median, peak_rss_mb, percentile, ratio, Metrics};
use std::collections::HashMap;
use std::time::{Duration, Instant};
use trace::Span;
use workload::{caller_seed, stream_digest, ValueCheck, Workload, CALLERS};

/// After its measure window an untraced run sets the cluster up again
/// until it has `MIN_SETUPS` set-ups and `SETUP_BUDGET` has passed (at
/// most `MAX_SETUPS`); `setup_s` is the median, so cheap set-ups get
/// many samples.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 1000;
const SETUP_BUDGET: Duration = Duration::from_secs(1);
/// Closed-loop warm-up before every measure window.
const WARMUP: Duration = Duration::from_secs(1);
/// Ops per caller whose spans go into the trace file.
const TRACE_FILE_OPS: u64 = 20_000;
/// Ops per caller covered by the printed input digest.
const DIGEST_OPS: usize = 1_000;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        kv.insert(flag, value);
    }
    let get = |k: &str| kv.get(k).ok_or(format!("missing {k}"));
    let name = get("--workload")?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: Workload::by_name(name).ok_or(format!(
            "unknown workload {name} (inproc-read, tcp-read, churn-evict)"
        ))?,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbal-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let w = &args.workload;
    println!(
        "workload {} seed {} seconds {} trace {} | 2 servers x 2 workers x 4 cachelets, slab engine, \
         {} MiB/server, {} closed-loop callers, {} cpus",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.server_mem >> 20,
        CALLERS,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    for c in 0..CALLERS {
        let seed = caller_seed(args.seed, c);
        println!(
            "caller {c} seed {seed} first-{DIGEST_OPS}-ops digest {:016x}",
            stream_digest(&w.spec, seed, DIGEST_OPS)
        );
    }
    let gen_ns = replay::gen_ns_per_op(w, args.seed);
    println!("gen.ns_per_op {gen_ns:.1}");
    let check = ValueCheck::new(w, args.seed);
    let measure = Duration::from_secs(args.seconds);
    let (metrics, window) = if args.trace {
        traced_run(w, args.seed, &check, measure, gen_ns)
    } else {
        untraced_run(w, args.seed, &check, measure)
    };
    let t = &window.tally;
    let failed = t.attempted - t.ok;
    let correct = t.mismatches == 0;
    if !correct {
        println!(
            "VALUE CHECK FAILED: {} GET hits carried a value no writer stored",
            t.mismatches
        );
    }
    println!("{}", metrics.json(correct, t.attempted, failed));
    if !correct {
        std::process::exit(1);
    }
}

/// Spawns a cluster and preloads it when the workload asks. Returns the
/// cluster and its set-up time in seconds.
fn set_up(w: &Workload, seed: u64, traced: bool) -> (Cluster, f64) {
    let t = Instant::now();
    let cluster = Cluster::spawn(w, traced);
    if w.preload {
        cluster.preload(w, seed);
    }
    let secs = t.elapsed().as_secs_f64();
    (cluster, secs)
}

/// Balancer counters, read at both ends of the measure window.
#[derive(Default)]
struct Marks {
    migrations: u64,
    events: [usize; 3],
}

fn phase_events(c: &Cluster) -> [usize; 3] {
    let mut n = [0; 3];
    for s in &c.servers {
        for ev in s.lock().expect("server lock").events().events() {
            match ev.phase {
                Phase::KeyReplication => n[0] += 1,
                Phase::LocalMigration => n[1] += 1,
                Phase::CoordinatedMigration => n[2] += 1,
                Phase::Normal => {}
            }
        }
    }
    n
}

/// One measure window on a fresh cluster; returns everything the
/// metrics are computed from.
struct Measured {
    window: Window,
    reports: Vec<StatsReport>,
    marks: Marks,
    end_marks: Marks,
    ticks: Vec<Tick>,
    tick_spans: Vec<Span>,
    timeouts: u64,
    calls: u64,
    requests: u64,
}

fn measure_on(
    mut cluster: Cluster,
    w: &Workload,
    seed: u64,
    check: &ValueCheck,
    measure: Duration,
) -> Measured {
    cluster.start_ticking();
    let mut marks = Marks::default();
    let window = load::run(&cluster, w, seed, check, WARMUP, measure, || {
        cluster.stats(true);
        marks.migrations = cluster.coordinator.migration_counters().1;
        marks.events = phase_events(&cluster);
    });
    let reports = cluster.stats(false);
    let end_marks = Marks {
        migrations: cluster.coordinator.migration_counters().1,
        events: phase_events(&cluster),
    };
    let (calls, requests, timeouts) = cluster.traced.as_ref().map_or((0, 0, 0), |t| t.counts());
    let (ticks, tick_spans) = cluster.shutdown();
    Measured {
        window,
        reports,
        marks,
        end_marks,
        ticks,
        tick_spans,
        timeouts,
        calls,
        requests,
    }
}

fn merged(reports: &[StatsReport]) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::default();
    for r in reports {
        m.merge(&r.load.metrics);
    }
    m
}

/// Prints the error breakdown and the client/server op ledger; returns
/// the absolute ledger gap.
fn print_ledger(window: &Window, server: &MetricsSnapshot) -> f64 {
    let t = &window.tally;
    let failed = t.attempted - t.ok;
    println!(
        "ops attempted {} ok {} failed {} error_rate {:.6}",
        t.attempted,
        t.ok,
        failed,
        ratio(failed as f64, t.attempted as f64)
    );
    for (status, n) in &t.errors {
        println!("  failed with {status}: {n}");
    }
    let client = t.gets + t.sets;
    let served = server.get(Counter::Gets) + server.get(Counter::ReplicaReads);
    let server_total = served + server.get(Counter::Sets);
    let gap = server_total as i64 - client as i64;
    println!(
        "ledger: client gets {} sets {} (fills {}) | server gets {} replica_reads {} sets {} | gap {gap}",
        t.gets,
        t.sets,
        t.fills,
        server.get(Counter::Gets),
        server.get(Counter::ReplicaReads),
        server.get(Counter::Sets),
    );
    gap.unsigned_abs() as f64
}

struct Latency {
    goodput: f64,
    get_p50_us: f64,
}

fn latency(window: &Window) -> Latency {
    Latency {
        goodput: window.tally.ok as f64 / window.seconds(),
        get_p50_us: window.tally.get_ns.percentile(0.5) / 1e3,
    }
}

fn untraced_run(
    w: &Workload,
    seed: u64,
    check: &ValueCheck,
    measure: Duration,
) -> (Metrics, Window) {
    let (cluster, first) = set_up(w, seed, false);
    let m = measure_on(cluster, w, seed, check, measure);
    // Read before the extra set-ups: TCP listeners outlive their
    // cluster, so later set-ups would inflate the peak.
    let rss = peak_rss_mb();
    let began = Instant::now();
    let mut setups = vec![(first * 1e9) as u64];
    while setups.len() < MAX_SETUPS && (setups.len() < MIN_SETUPS || began.elapsed() < SETUP_BUDGET)
    {
        let (c, secs) = set_up(w, seed, false);
        setups.push((secs * 1e9) as u64);
        c.shutdown();
    }
    println!("set-ups: {}", setups.len());
    let server = merged(&m.reports);
    print_ledger(&m.window, &server);
    let win = &m.window;
    let t = &win.tally;
    println!(
        "samples: {} GETs, {} SETs over {:.3} s",
        t.get_ns.len(),
        t.set_ns.len(),
        win.seconds()
    );
    let hit_ratio = ratio(t.hits as f64, t.gets as f64);
    let success_ratio = ratio(t.ok as f64, t.attempted as f64);
    let mut out = Metrics::default();
    out.add("goodput_ops", t.ok as f64 / win.seconds(), "ops/s");
    out.add("get_p50_us", t.get_ns.percentile(0.5) / 1e3, "us");
    out.add("get_p99_us", t.get_ns.percentile(0.99) / 1e3, "us");
    out.add("set_p50_us", t.set_ns.percentile(0.5) / 1e3, "us");
    out.add("set_p99_us", t.set_ns.percentile(0.99) / 1e3, "us");
    out.add("hit_ratio", hit_ratio, "ratio");
    out.add("success_ratio", success_ratio, "ratio");
    out.add("setup_s", median(&mut setups) / 1e9, "s");
    out.add("peak_rss_mb", rss, "MiB");
    out.print("end-to-end");
    (out, m.window)
}

fn traced_run(
    w: &Workload,
    seed: u64,
    check: &ValueCheck,
    measure: Duration,
    gen_ns: f64,
) -> (Metrics, Window) {
    // Half the window untraced, half traced, each on its own cluster:
    // the difference is the tracing overhead.
    let half = measure / 2;
    let (plain, _) = set_up(w, seed, false);
    let plain = measure_on(plain, w, seed, check, half);
    let base = latency(&plain.window);
    let (traced, _) = set_up(w, seed, true);
    let mut m = measure_on(traced, w, seed, check, half);
    let server = merged(&m.reports);
    let ledger_gap = print_ledger(&m.window, &server);
    let traced_lat = latency(&m.window);
    let (start_ns, end_ns) = (m.window.start_ns, m.window.end_ns);
    let in_window = |s: &Span| s.start_ns >= start_ns && s.end_ns <= end_ns;

    // The file keeps each caller's first `TRACE_FILE_OPS` ops and every
    // balancer span; the metrics below use every span in memory.
    let mut first_op: HashMap<u64, u64> = HashMap::new();
    for s in &m.window.spans {
        let first = first_op.entry(s.op >> 40).or_insert(s.op);
        *first = (*first).min(s.op);
    }
    let mut file_spans: Vec<Span> = m
        .window
        .spans
        .iter()
        .filter(|s| s.op - first_op[&(s.op >> 40)] < TRACE_FILE_OPS)
        .copied()
        .collect();
    file_spans.extend(m.tick_spans.iter().copied());
    let path = std::path::PathBuf::from(format!("perfbench/out/trace-{}.tsv", w.name));
    trace::write_spans(&path, &file_spans).expect("write trace file");
    println!(
        "traced {} spans; wrote {} to {}",
        m.window.spans.len() + m.tick_spans.len(),
        file_spans.len(),
        path.display()
    );

    let spans: Vec<&Span> = m.window.spans.iter().filter(|s| in_window(s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in &spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let durs = |name: &str| -> Vec<u64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns())
            .collect()
    };
    let roots: Vec<&&Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && (s.name == "client.get" || s.name == "client.set"))
        .collect();
    let mut op_ns: Vec<u64> = roots.iter().map(|s| s.dur_ns()).collect();
    let mut self_ns: Vec<u64> = roots
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect();
    let mut call_ns = durs("transport.call");
    let mut poll_ns = durs("coordinator.heartbeat");
    let ops = roots.len() as f64;

    let read = server.read_latency();
    let write = server.write_latency();
    let worker_ops: Vec<f64> = m
        .reports
        .iter()
        .map(|r| r.load.metrics.ops() as f64)
        .collect();
    let mean_ops = worker_ops.iter().sum::<f64>() / worker_ops.len().max(1) as f64;
    let max_ops = worker_ops.iter().copied().fold(0.0, f64::max);

    let mut tick_ns: Vec<u64> = m
        .ticks
        .iter()
        .filter(|t| t.end_ns >= start_ns && t.end_ns <= end_ns)
        .map(|t| t.dur_ns)
        .collect();
    let mut coord_ns: Vec<u64> = m
        .tick_spans
        .iter()
        .filter(|s| in_window(s) && s.name == "coordinator.call")
        .map(|s| s.dur_ns())
        .collect();

    let engine = replay::engine(w, seed);
    let codec = replay::codec(&engine);
    let t = &m.window.tally;
    let sets = server.get(Counter::Sets) as f64;
    let call_p50_us = median(&mut call_ns) / 1e3;

    let mut out = Metrics::default();
    out.add("client.op_p50_us", median(&mut op_ns) / 1e3, "us");
    out.add("client.op_p99_us", percentile(&mut op_ns, 0.99) / 1e3, "us");
    out.add("client.self_p50_us", median(&mut self_ns) / 1e3, "us");
    out.add(
        "client.calls_per_op",
        ratio(call_ns.len() as f64, ops),
        "calls/op",
    );
    out.add(
        "client.moved_per_op",
        ratio(t.moved as f64, ops),
        "moves/op",
    );
    out.add("client.retries", t.retries as f64, "count");
    out.add("client.poll_p50_us", median(&mut poll_ns) / 1e3, "us");
    out.add("client.polls", poll_ns.len() as f64, "count");
    out.add("transport.call_p50_us", call_p50_us, "us");
    out.add(
        "transport.call_p99_us",
        percentile(&mut call_ns, 0.99) / 1e3,
        "us",
    );
    out.add("transport.wait_us", call_p50_us - read.p50_us as f64, "us");
    out.add(
        "transport.batch_len",
        ratio(m.requests as f64, m.calls as f64),
        "reqs/call",
    );
    out.add("transport.timeouts", m.timeouts as f64, "count");
    out.add("worker.read_p50_us", read.p50_us as f64, "us");
    out.add("worker.read_p99_us", read.p99_us as f64, "us");
    out.add("worker.write_p50_us", write.p50_us as f64, "us");
    out.add("worker.write_p99_us", write.p99_us as f64, "us");
    out.add("worker.imbalance", ratio(max_ops, mean_ops), "max/mean");
    out.add(
        "worker.errors.not_owner",
        server.get(Counter::NotOwnerErrors) as f64,
        "count",
    );
    out.add(
        "worker.errors.oom",
        server.get(Counter::OomErrors) as f64,
        "count",
    );
    out.add(
        "worker.errors.other",
        server.get(Counter::OtherErrors) as f64,
        "count",
    );
    out.add("worker.ledger_gap", ledger_gap, "ops");
    out.add("engine.hit_ratio", server.hit_ratio(), "ratio");
    let oom = server.get(Counter::OomErrors) as f64;
    out.add("engine.store_ok_ratio", ratio(sets - oom, sets), "ratio");
    out.add(
        "engine.evictions_per_set",
        ratio(server.get(Counter::Evictions) as f64, sets),
        "evictions/set",
    );
    out.add(
        "engine.evicted_bytes",
        server.get(Counter::EvictedBytes) as f64,
        "bytes",
    );
    out.add("engine.replay_get_ns", engine.get_ns, "ns");
    out.add("engine.replay_set_ns", engine.set_ns, "ns");
    out.add("proto.encode_ns", codec.encode_ns, "ns");
    out.add("proto.decode_ns", codec.decode_ns, "ns");
    out.add("proto.bytes_per_op", codec.bytes_per_op, "bytes");
    out.add("balancer.tick_p50_us", median(&mut tick_ns) / 1e3, "us");
    out.add(
        "balancer.tick_max_us",
        percentile(&mut tick_ns, 1.0) / 1e3,
        "us",
    );
    for (i, name) in [
        "balancer.events.p1",
        "balancer.events.p2",
        "balancer.events.p3",
    ]
    .into_iter()
    .enumerate()
    {
        out.add(
            name,
            (m.end_marks.events[i] - m.marks.events[i]) as f64,
            "count",
        );
    }
    out.add(
        "balancer.migrations",
        (m.end_marks.migrations - m.marks.migrations) as f64,
        "count",
    );
    out.add(
        "balancer.replica_updates",
        server.get(Counter::ReplicaUpdates) as f64,
        "count",
    );
    out.add(
        "balancer.replica_read_hit_ratio",
        ratio(
            server.get(Counter::ReplicaReadHits) as f64,
            server.get(Counter::ReplicaReads) as f64,
        ),
        "ratio",
    );
    out.add("coordinator.call_p50_us", median(&mut coord_ns) / 1e3, "us");
    out.add("gen.ns_per_op", gen_ns, "ns");
    out.add(
        "trace.overhead_frac.goodput",
        ratio(base.goodput - traced_lat.goodput, base.goodput),
        "fraction",
    );
    out.add(
        "trace.overhead_frac.get_p50",
        ratio(traced_lat.get_p50_us - base.get_p50_us, base.get_p50_us),
        "fraction",
    );
    out.print("per-layer (traced half-window)");
    println!(
        "untraced half-window: goodput_ops {:.1} get_p50_us {:.3}; traced: goodput_ops {:.1} get_p50_us {:.3}",
        base.goodput, base.get_p50_us, traced_lat.goodput, traced_lat.get_p50_us
    );
    // The value checks of both halves decide `correct`.
    m.window.tally.mismatches += plain.window.tally.mismatches;
    (out, m.window)
}
