//! Offline replays of a caller's op stream through single layers: one
//! engine of the pinned kind, the wire codec, and the generator itself.

use crate::report::median;
use crate::workload::{caller_seed, key_index, Workload};
use mbal_core::engine::{build_engine, EngineKind};
use mbal_core::types::{CacheletId, Value};
use mbal_proto::codec::opcode_of;
use mbal_proto::{decode_request, decode_response, encode_request, encode_response};
use mbal_proto::{Request, Response};
use mbal_workload::{OpKind, WorkloadGen};
use std::hint::black_box;
use std::time::Instant;

/// Ops replayed through the engine and the codec.
const REPLAY_OPS: usize = 200_000;
/// Ops drawn to time the generator.
const GEN_OPS: usize = 500_000;

pub struct EngineReplay {
    pub get_ns: f64,
    pub set_ns: f64,
    /// The request/response pairs the replay produced, for the codec.
    pairs: Vec<(Request, Response)>,
}

/// Caller 0's stream on one slab engine sized like one worker: the
/// preload (when the workload has one) first, then cache-aside fills on
/// misses exactly as the callers do.
pub fn engine(w: &Workload, seed: u64) -> EngineReplay {
    let mut engine = build_engine(EngineKind::SlabLru, w.worker_mem());
    if w.preload {
        for (k, v) in WorkloadGen::new(w.spec.clone(), seed).load_phase() {
            engine.set(&k, &v, 0, 0).expect("preload fits one worker");
        }
    }
    let mut gen = WorkloadGen::new(w.spec.clone(), caller_seed(seed, 0));
    let (mut get_ns, mut set_ns) = (Vec::new(), Vec::new());
    let mut pairs = Vec::with_capacity(REPLAY_OPS);
    let cachelet = CacheletId(0);
    let mut set = |engine: &mut Box<dyn mbal_core::Engine>, key: Vec<u8>, value: Vec<u8>| {
        let t = Instant::now();
        let r = black_box(engine.set(&key, &value, 0, 0));
        set_ns.push(t.elapsed().as_nanos() as u64);
        let resp = match r {
            Ok(_) => Response::Stored,
            Err(e) => Response::Fail {
                status: mbal_proto::Status::OutOfMemory,
                message: e.to_string(),
            },
        };
        let value = Value::from(value);
        (
            Request::Set {
                cachelet,
                key,
                value,
                expiry_ms: 0,
            },
            resp,
        )
    };
    while pairs.len() < REPLAY_OPS {
        let op = gen.next_op();
        if op.kind != OpKind::Get {
            pairs.push(set(&mut engine, op.key, op.value));
            continue;
        }
        let t = Instant::now();
        let hit = black_box(engine.get(&op.key, 0));
        get_ns.push(t.elapsed().as_nanos() as u64);
        let miss = hit.is_none();
        let resp = match hit {
            Some(value) => Response::Value {
                value,
                replicas: Vec::new(),
            },
            None => Response::NotFound,
        };
        pairs.push((
            Request::Get {
                cachelet,
                key: op.key.clone(),
            },
            resp,
        ));
        if miss && w.fill_on_miss {
            let value = gen.make_value(key_index(&op.key).expect("generated key"));
            pairs.push(set(&mut engine, op.key, value));
        }
    }
    EngineReplay {
        get_ns: median(&mut get_ns),
        set_ns: median(&mut set_ns),
        pairs,
    }
}

pub struct CodecReplay {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_op: f64,
}

/// Every request/response pair of the engine replay encoded and decoded
/// once; per-op times are medians of request + response.
pub fn codec(e: &EngineReplay) -> CodecReplay {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut bytes = 0usize;
    for (i, (req, resp)) in e.pairs.iter().enumerate() {
        let opaque = i as u32;
        let opcode = opcode_of(req);
        let t = Instant::now();
        let req_frame = black_box(encode_request(req, opaque).expect("encodable request"));
        let resp_frame =
            black_box(encode_response(resp, opcode, opaque).expect("encodable response"));
        enc.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        let (back, _) = black_box(decode_request(&req_frame).expect("decodable request"));
        let (resp_back, _, _) =
            black_box(decode_response(&resp_frame).expect("decodable response"));
        dec.push(t.elapsed().as_nanos() as u64);
        assert!(
            back == *req && resp_back == *resp,
            "codec round trip changed op {i}"
        );
        bytes += req_frame.len() + resp_frame.len();
    }
    CodecReplay {
        encode_ns: median(&mut enc),
        decode_ns: median(&mut dec),
        bytes_per_op: bytes as f64 / e.pairs.len() as f64,
    }
}

/// Mean time to draw one op from caller 0's generator, ns.
pub fn gen_ns_per_op(w: &Workload, seed: u64) -> f64 {
    let mut gen = WorkloadGen::new(w.spec.clone(), caller_seed(seed, 0));
    let t = Instant::now();
    for _ in 0..GEN_OPS {
        black_box(gen.next_op());
    }
    t.elapsed().as_nanos() as f64 / GEN_OPS as f64
}
