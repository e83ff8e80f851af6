//! Probes: layers that only run inside another layer's call (crypto under
//! `SecureChannel::seal`, telemetry under a fabric call) timed through the
//! same public functions on instances the benchmark owns, at the sizes the
//! workloads use. Probes run after the workload in a traced run.

use std::hint::black_box;
use std::time::Instant;

use lateral_crypto::aead::Aead;
use lateral_crypto::dh::EphemeralSecret;
use lateral_crypto::rng::Drbg;
use lateral_crypto::sha256::sha256;
use lateral_crypto::sign::SigningKey;
use lateral_net::channel::SecureChannel;
use lateral_net::session::{encode_request_group, RequestEntry};
use lateral_telemetry::{outcome, Telemetry, TraceContext};

use crate::report::Outcome;
use crate::stats::median;

/// Rounds per probe; a probe reports the median round.
const ROUNDS: usize = 7;

/// Bytes of one fleet WAN batch: 50k 11-byte readings per shard per tick.
pub const FLEET_BATCH_BYTES: usize = 50_000 * 11;
/// Small session payload.
pub const SMALL: usize = 24;
/// Large session payload.
pub const LARGE: usize = 1024;
/// Requests per multiplexed group.
pub const GROUP: usize = 32;

/// Median over [`ROUNDS`] of the mean nanoseconds per iteration of `f`.
fn probe(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    f(0);
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t0 = Instant::now();
            for i in 0..iters {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&rounds)
}

/// The plaintext of one request group of 32 small requests.
pub fn group_plaintext() -> Vec<u8> {
    let entries: Vec<RequestEntry> = (0..GROUP as u64)
        .map(|id| RequestEntry {
            id,
            ctx: TraceContext {
                trace_id: 1,
                parent: lateral_telemetry::SpanId(id + 2),
            },
            payload: vec![0x5a; SMALL],
        })
        .collect();
    encode_request_group(&entries)
}

/// Crypto, channel and telemetry probes, run in every traced run.
pub fn common(out: &mut Outcome) {
    let kib = |bytes: usize| bytes as f64 / 1024.0;
    let big = vec![0xa5u8; 64 * 1024];
    let ns = probe(16, |_| {
        black_box(sha256(black_box(&big)));
    });
    out.metric(
        "crypto.sha256_ns_per_kib",
        ns / kib(big.len()),
        ROUNDS as u64,
        "probe, 64 KiB",
    );

    let aead = Aead::new(&[7u8; 32]);
    for (name, len, iters) in [
        ("crypto.aead_ns.24b", SMALL, 4000),
        ("crypto.aead_ns.1kib", LARGE, 1000),
    ] {
        let msg = vec![0x11u8; len];
        let ns = probe(iters, |i| {
            let sealed = aead.seal(i as u64, b"probe", black_box(&msg));
            black_box(aead.open(i as u64, b"probe", &sealed).expect("opens"));
        });
        out.metric(name, ns, ROUNDS as u64, "probe, seal + open");
    }
    let batch = vec![0x22u8; FLEET_BATCH_BYTES];
    let ns = probe(2, |i| {
        let sealed = aead.seal(i as u64, b"probe", black_box(&batch));
        black_box(aead.open(i as u64, b"probe", &sealed).expect("opens"));
    });
    out.metric(
        "crypto.aead_ns_per_kib.batch",
        ns / kib(FLEET_BATCH_BYTES),
        ROUNDS as u64,
        "probe, seal + open of one fleet WAN batch",
    );

    let key = SigningKey::from_seed(b"probe signer");
    let vk = key.verifying_key();
    let msg = [0x33u8; 64];
    let sig = key.sign(&msg);
    let ns = probe(40, |_| {
        black_box(key.sign(black_box(&msg)));
    });
    out.metric("crypto.sign_ns", ns, ROUNDS as u64, "probe, 64 B message");
    let ns = probe(40, |_| {
        vk.verify(black_box(&msg), &sig).expect("verifies");
    });
    out.metric("crypto.verify_ns", ns, ROUNDS as u64, "probe, 64 B message");
    let mut rng = Drbg::from_seed(b"probe dh");
    let peer = EphemeralSecret::generate(&mut rng).public_share();
    let ns = probe(40, |_| {
        let secret = EphemeralSecret::generate(&mut rng);
        black_box(secret.public_share());
        black_box(secret.agree(&peer, b"probe").expect("agrees"));
    });
    out.metric(
        "crypto.dh_ns",
        ns,
        ROUNDS as u64,
        "probe, generate + share + agree",
    );

    // Ordered records at the session's dominant size: one request group.
    let group = group_plaintext();
    let (seal_ns, open_ns) = channel_probe(&group, 400);
    out.metric(
        "channel.seal_ns",
        seal_ns,
        ROUNDS as u64,
        format!("probe, {} B request-group record", group.len()),
    );
    out.metric(
        "channel.open_ns",
        open_ns,
        ROUNDS as u64,
        format!("probe, {} B request-group record", group.len()),
    );
    let shared = [9u8; 32];
    let (mut tx, mut rx) = (
        SecureChannel::from_shared(&shared, true),
        SecureChannel::from_shared(&shared, false),
    );
    let ns = probe(2, |_| {
        let rec = tx.seal_numbered(black_box(&batch));
        black_box(rx.open_numbered(&rec).expect("opens"));
    });
    out.metric(
        "channel.numbered_ns_per_kib",
        ns / kib(FLEET_BATCH_BYTES),
        ROUNDS as u64,
        "probe, seal + open of one fleet WAN batch",
    );

    let mut tel = Telemetry::new();
    let label = tel.intern("invoke probe");
    let ns = probe(20_000, |_| {
        let at = tel.tick();
        let id = tel.begin_span_label(label, "probe", at);
        tel.end_span(id, at, outcome::OK);
    });
    out.metric(
        "telemetry.span_ns.interned",
        ns,
        ROUNDS as u64,
        "probe, begin + end",
    );
    let component = String::from("svc");
    let ns = probe(20_000, |_| {
        let at = tel.tick();
        let id = tel.begin_span(&format!("serve {component}"), "probe", at);
        tel.end_span(id, at, outcome::OK);
    });
    out.metric(
        "telemetry.span_ns.formatted",
        ns,
        ROUNDS as u64,
        "probe, format! + begin + end",
    );
}

/// Seal and open nanoseconds of ordered records of `plain`.
fn channel_probe(plain: &[u8], iters: usize) -> (f64, f64) {
    let shared = [3u8; 32];
    let (mut tx, mut rx) = (
        SecureChannel::from_shared(&shared, true),
        SecureChannel::from_shared(&shared, false),
    );
    let mut seal = Vec::new();
    let mut open = Vec::new();
    for _ in 0..ROUNDS {
        let t0 = Instant::now();
        let records: Vec<Vec<u8>> = (0..iters).map(|_| tx.seal(black_box(plain))).collect();
        seal.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        let t0 = Instant::now();
        for r in &records {
            black_box(rx.open(r).expect("in order"));
        }
        open.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    (median(&seal), median(&open))
}
