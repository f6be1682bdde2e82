//! The three workloads, their seeded op streams, and the check every
//! GET hit goes through.

use mbal_balancer::PhaseSet;
use mbal_workload::{Op, OpKind, Popularity, WorkloadGen, WorkloadSpec};

/// Which transport a workload's callers use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    InProc,
    Tcp,
}

/// One named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub spec: WorkloadSpec,
    pub wire: Wire,
    /// Cache memory per server, bytes.
    pub server_mem: usize,
    /// Whether every record is stored before the run.
    pub preload: bool,
    /// Whether a GET miss is followed by a fill SET (cache-aside).
    pub fill_on_miss: bool,
    pub phases: PhaseSet,
}

pub const SERVERS: u16 = 2;
pub const WORKERS_PER_SERVER: u16 = 2;
pub const CACHELETS_PER_WORKER: usize = 4;
pub const CALLERS: usize = 2;
/// Balancer load capacity per worker, ops/s. A fixed constant, not
/// derived from measured speed, so a faster data path shows up as more
/// balancer activity instead of a moved threshold.
pub const WORKER_CAPACITY_OPS: f64 = 20_000.0;

impl Workload {
    pub fn by_name(name: &str) -> Option<Self> {
        let ycsb_b = WorkloadSpec::workload_b(10_000);
        Some(match name {
            "inproc-read" => Self {
                name: "inproc-read",
                spec: ycsb_b,
                wire: Wire::InProc,
                server_mem: 64 << 20,
                preload: true,
                fill_on_miss: false,
                phases: PhaseSet::none(),
            },
            "tcp-read" => Self {
                name: "tcp-read",
                spec: ycsb_b,
                wire: Wire::Tcp,
                server_mem: 64 << 20,
                preload: true,
                fill_on_miss: false,
                phases: PhaseSet::none(),
            },
            "churn-evict" => Self {
                name: "churn-evict",
                spec: WorkloadSpec {
                    records: 100_000,
                    read_fraction: 0.5,
                    popularity: Popularity::Zipfian { theta: 0.99 },
                    key_len: 24,
                    value_len: 1024,
                    ttl_range_ms: (0, 0),
                },
                wire: Wire::InProc,
                server_mem: 8 << 20,
                preload: false,
                fill_on_miss: true,
                phases: PhaseSet::all(),
            },
            _ => return None,
        })
    }

    /// Memory one worker owns: what the offline engine replay gets.
    pub fn worker_mem(&self) -> usize {
        self.server_mem / WORKERS_PER_SERVER as usize
    }
}

/// The seeds a run derives from `--seed`: the load phase uses the seed
/// itself, each caller a mix of it.
pub fn caller_seed(seed: u64, caller: usize) -> u64 {
    let mut z = seed ^ (caller as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The record index a generated key names (`user` + zero-padded digits).
pub fn key_index(key: &[u8]) -> Option<u64> {
    std::str::from_utf8(key.strip_prefix(b"user")?)
        .ok()?
        .parse()
        .ok()
}

/// Checks GET hits against the values the load phase and the callers
/// can have written.
pub struct ValueCheck {
    writers: Vec<WorkloadGen>,
    value_len: usize,
}

impl ValueCheck {
    pub fn new(w: &Workload, seed: u64) -> Self {
        let mut seeds = vec![seed];
        seeds.extend((0..CALLERS).map(|c| caller_seed(seed, c)));
        Self {
            writers: seeds
                .into_iter()
                .map(|s| WorkloadGen::new(w.spec.clone(), s))
                .collect(),
            value_len: w.spec.value_len,
        }
    }

    pub fn ok(&self, key: &[u8], value: &[u8]) -> bool {
        let Some(idx) = key_index(key) else {
            return false;
        };
        value.len() == self.value_len && self.writers.iter().any(|g| g.make_value(idx) == value)
    }
}

/// FNV-1a over the first `n` ops of a fresh generator: equal digests
/// mean two runs replayed identical inputs.
pub fn stream_digest(spec: &WorkloadSpec, seed: u64, n: usize) -> u64 {
    let mut gen = WorkloadGen::new(spec.clone(), seed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for _ in 0..n {
        let op: Op = gen.next_op();
        eat(&[match op.kind {
            OpKind::Get => 0,
            OpKind::Set => 1,
            OpKind::Delete => 2,
            OpKind::Touch => 3,
        }]);
        eat(&op.key);
        eat(&op.value);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_check_accepts_writers_and_rejects_others() {
        let w = Workload::by_name("churn-evict").expect("known workload");
        let check = ValueCheck::new(&w, 7);
        let key = w.spec.key_of(42);
        assert_eq!(key_index(&key), Some(42));
        let caller = WorkloadGen::new(w.spec.clone(), caller_seed(7, 1));
        let mut value = caller.make_value(42);
        assert!(check.ok(&key, &value));
        value[3] ^= 1;
        assert!(!check.ok(&key, &value));
        assert!(!check.ok(&key, &value[..10]));
    }

    #[test]
    fn stream_digest_depends_on_the_seed_only() {
        let spec = Workload::by_name("inproc-read")
            .expect("known workload")
            .spec;
        assert_eq!(stream_digest(&spec, 3, 100), stream_digest(&spec, 3, 100));
        assert_ne!(stream_digest(&spec, 3, 100), stream_digest(&spec, 4, 100));
    }
}
