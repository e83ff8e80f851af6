//! Robustness sweeps: every parser that consumes adversarial bytes
//! fails *cleanly* on arbitrary input — no panics, no silent acceptance.
//!
//! This is the flip side of §III-B: hostile-input handling is isolated
//! into components, but those components must also never crash the
//! substrate dispatcher. (`forbid(unsafe_code)` rules out memory
//! corruption; these deterministic fuzz sweeps rule out logic panics.)

use lateral::components::ftpm::decode_quote;
use lateral::components::html::parse_html;
use lateral::components::imap::parse_fetch;
use lateral::crypto::rng::Drbg;
use lateral::crypto::sign::{Signature, SigningKey, VerifyingKey};
use lateral::net::channel::{decode_evidence, ChannelPolicy, ClientHandshake, ServerHandshake};
use lateral::net::wire::Reader;
use lateral::vpfs::{LegacyFs, MemBlockDevice, Vpfs, BLOCK_SIZE};

const CASES: usize = 128;

fn bytes(rng: &mut Drbg, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(max_len as u64 + 1) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn text(rng: &mut Drbg, max_len: usize) -> String {
    String::from_utf8_lossy(&bytes(rng, max_len)).into_owned()
}

#[test]
fn wire_reader_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz wire");
    for _ in 0..CASES {
        let data = bytes(&mut rng, 256);
        let mut r = Reader::new(&data);
        // Drain up to 8 fields; every outcome must be Ok or Err, never a
        // panic.
        for _ in 0..8 {
            if r.field().is_err() {
                break;
            }
        }
    }
}

#[test]
fn evidence_decoder_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz evidence");
    for _ in 0..CASES {
        let _ = decode_evidence(&bytes(&mut rng, 512));
    }
}

#[test]
fn quote_decoder_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz quote");
    for _ in 0..CASES {
        let _ = decode_quote(&bytes(&mut rng, 512));
    }
}

#[test]
fn html_parser_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz html");
    for _ in 0..CASES {
        let _ = parse_html(&text(&mut rng, 300));
    }
}

#[test]
fn imap_parser_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz imap");
    for _ in 0..CASES {
        let _ = parse_fetch(&text(&mut rng, 300));
    }
}

#[test]
fn signature_decoder_never_accepts_garbage_blindly() {
    let mut rng = Drbg::from_seed(b"fuzz sig");
    for _ in 0..CASES {
        let mut raw = [0u8; 64];
        rng.fill_bytes(&mut raw);
        // Either rejected at decode, or decoded but then fails to verify
        // against a real key and message.
        if let Ok(sig) = Signature::from_bytes(&raw) {
            let key = SigningKey::from_seed(b"fuzz");
            assert!(key.verifying_key().verify(b"message", &sig).is_err());
        }
    }
}

#[test]
fn verifying_key_decoder_never_panics() {
    let mut rng = Drbg::from_seed(b"fuzz vk");
    for _ in 0..CASES {
        let mut raw = [0u8; 32];
        rng.fill_bytes(&mut raw);
        let _ = VerifyingKey::from_bytes(&raw);
    }
}

#[test]
fn client_handshake_survives_arbitrary_server_hello() {
    let mut rng = Drbg::from_seed(b"fuzz client hello");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 512);
        let mut hs_rng = Drbg::from_seed(b"fuzz hs");
        let (state, _hello) = ClientHandshake::start(SigningKey::from_seed(b"c"), &mut hs_rng);
        // Random bytes must never be accepted (the chance of forging a
        // valid signature is negligible) and must never panic.
        assert!(state
            .finish(&junk, &ChannelPolicy::open(), |_| None)
            .is_err());
    }
}

#[test]
fn server_handshake_survives_arbitrary_client_hello() {
    let mut rng = Drbg::from_seed(b"fuzz server hello");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 256);
        let mut hs_rng = Drbg::from_seed(b"fuzz hs 2");
        // accept() may succeed only for well-formed hellos (two 32-byte
        // fields); anything else errors cleanly.
        let _ = ServerHandshake::accept(&SigningKey::from_seed(b"s"), &mut hs_rng, &junk);
    }
}

#[test]
fn legacy_fs_mount_survives_random_disks() {
    let mut rng = Drbg::from_seed(b"fuzz disks");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, BLOCK_SIZE - 1);
        let total = 32 + rng.gen_range(32) as usize;
        let mut device = MemBlockDevice::new(total);
        // Write attacker-chosen bytes over the superblock region.
        let mut sb = [0u8; BLOCK_SIZE];
        sb[..junk.len()].copy_from_slice(&junk);
        use lateral::vpfs::BlockDevice;
        device.write_block(0, &sb).unwrap();
        // Mount may or may not accept the garbage magic; every
        // subsequent operation must be panic-free either way.
        if let Ok(mut fs) = LegacyFs::mount(device) {
            let _ = fs.list();
            let _ = fs.read("anything");
        }
    }
}

#[test]
fn vpfs_mount_never_accepts_garbage_roots() {
    let mut rng = Drbg::from_seed(b"fuzz roots");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 200);
        let mut legacy = LegacyFs::format(MemBlockDevice::new(64)).unwrap();
        legacy.write("vpfs_root", &junk).unwrap();
        assert!(Vpfs::mount(legacy, &[1u8; 32], None).is_err());
    }
}

#[test]
fn attack_report_decoder_never_panics_or_silently_accepts() {
    use lateral::components::compromise::AttackReport;
    let mut rng = Drbg::from_seed(b"fuzz attack report");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 96);
        // Arbitrary bytes either fail cleanly or decode to a report that
        // re-encodes to a decodable, equal value — never a panic, never a
        // half-parsed inconsistent accept.
        if let Ok(report) = AttackReport::decode(&junk) {
            assert_eq!(
                AttackReport::decode(&report.encode()).unwrap(),
                report,
                "accepted input must round-trip consistently"
            );
        }
    }
    // Truncations of a valid encoding must be rejected, not misread.
    let valid = AttackReport {
        active: true,
        oob_reads_attempted: 7,
        oob_reads_succeeded: 3,
        granted_channels: 2,
        exfil_successes: 2,
        forged_attempted: 9,
        forged_succeeded: 0,
    }
    .encode();
    for cut in 0..valid.len() {
        assert!(
            AttackReport::decode(&valid[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
}

#[test]
fn trace_context_decoder_never_panics_or_silently_accepts() {
    use lateral::telemetry::{SpanId, TraceContext, CTX_ENCODED_LEN};
    let mut rng = Drbg::from_seed(b"fuzz trace context");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 2 * CTX_ENCODED_LEN);
        // Arbitrary bytes either fail cleanly or decode to a context
        // that re-encodes to a decodable, equal value — never a panic,
        // never a half-parsed accept. (A context travels inside sealed
        // channel records, but the codec itself must hold this bar
        // unauthenticated.)
        if let Ok(ctx) = TraceContext::decode(&junk) {
            assert_eq!(
                TraceContext::decode(&ctx.encode()).unwrap(),
                ctx,
                "accepted input must round-trip consistently"
            );
        }
    }
    let valid = TraceContext {
        trace_id: 0xE12_F00D,
        parent: SpanId(42),
    }
    .encode();
    assert_eq!(valid.len(), CTX_ENCODED_LEN);
    // Truncations of a valid encoding must be rejected, not misread.
    for cut in 0..valid.len() {
        assert!(
            TraceContext::decode(&valid[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Trailing garbage is rejected too — the codec is all-or-nothing.
    let mut padded = valid.clone();
    padded.push(0);
    assert!(TraceContext::decode(&padded).is_err());
    // Byte-level mutations must never panic; flips in the magic,
    // version, or the trace-id's zero-guard are rejected outright.
    let mut rng = Drbg::from_seed(b"fuzz trace context bytes");
    for _ in 0..CASES {
        let mut mutated = valid.clone();
        let idx = rng.gen_range(mutated.len() as u64) as usize;
        mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
        if let Ok(ctx) = TraceContext::decode(&mutated) {
            assert_ne!(ctx.trace_id, 0, "a zero trace id must never decode");
            assert_eq!(TraceContext::decode(&ctx.encode()).unwrap(), ctx);
        }
    }
}

#[test]
fn manifest_parser_never_panics_or_silently_accepts() {
    use lateral::core::manifest::AppManifest;
    let mut rng = Drbg::from_seed(b"fuzz manifest");
    for _ in 0..CASES {
        let junk = text(&mut rng, 400);
        // Arbitrary text either errors cleanly or yields a manifest that
        // survives its own validation and round-trips through the text
        // form — silent acceptance of garbage would poison composition.
        if let Ok(app) = AppManifest::parse(&junk) {
            app.validate()
                .expect("parse() only returns valid manifests");
            let reparsed = AppManifest::parse(&app.to_text()).expect("round-trip");
            assert_eq!(reparsed.name, app.name);
            assert_eq!(reparsed.components.len(), app.components.len());
        }
    }
    // Line-level mutations of a well-formed manifest must never panic.
    let good = "app metered\ncomponent worker\nrestart 3 10\nchannel ask worker 9\n";
    let mut rng = Drbg::from_seed(b"fuzz manifest lines");
    for _ in 0..CASES {
        let mut mutated: Vec<u8> = good.as_bytes().to_vec();
        let idx = rng.gen_range(mutated.len() as u64) as usize;
        mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
        let _ = AppManifest::parse(&String::from_utf8_lossy(&mutated));
    }
}

#[test]
fn signed_manifest_decoder_never_panics_or_silently_accepts() {
    use lateral::registry::{ManifestDraft, SignedManifest};
    let mut rng = Drbg::from_seed(b"fuzz signed manifest");
    for _ in 0..CASES {
        let junk = text(&mut rng, 400);
        // Arbitrary text either errors cleanly or decodes to a manifest
        // whose canonical text round-trips to an equal value — the same
        // no-partial-acceptance bar as `AttackReport::decode`.
        if let Ok(m) = SignedManifest::decode(&junk) {
            assert_eq!(
                SignedManifest::decode(&m.to_text()).unwrap(),
                m,
                "accepted input must round-trip consistently"
            );
        }
    }
    // A genuinely signed manifest decodes, verifies, and round-trips.
    let key = SigningKey::from_seed(b"fuzz manifest publisher");
    let valid = ManifestDraft::new("meter", b"meter image")
        .endpoint("read")
        .channel("push", "sink", 7)
        .sign(&key, None)
        .to_text();
    let decoded = SignedManifest::decode(&valid).unwrap();
    decoded.verify_signature().unwrap();
    // Every strict prefix is rejected — the signature line is mandatory
    // and a truncated hex field never half-parses. (The full text minus
    // only its trailing newline is the one equivalent form.)
    for cut in 0..valid.len() - 1 {
        assert!(
            SignedManifest::decode(&valid[..cut]).is_err(),
            "truncation at {cut} must be rejected"
        );
    }
    // Byte-level mutations must never panic; when they decode, the
    // signature check still gates acceptance into a registry.
    let mut rng = Drbg::from_seed(b"fuzz signed manifest bytes");
    for _ in 0..CASES {
        let mut mutated: Vec<u8> = valid.as_bytes().to_vec();
        let idx = rng.gen_range(mutated.len() as u64) as usize;
        mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
        if let Ok(m) = SignedManifest::decode(&String::from_utf8_lossy(&mutated)) {
            // A flipped payload bit that still parses must break the
            // signature; a flip inside the signature hex likewise.
            if m != decoded {
                assert!(m.verify_signature().is_err(), "forged manifest verified");
            }
        }
    }
}

#[test]
fn app_manifest_rejects_duplicate_declarations() {
    use lateral::core::manifest::AppManifest;
    // Duplicate component names.
    let err = AppManifest::parse("app a\ncomponent w\ncomponent w\n")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate component name"), "{err}");
    // Duplicate channel declarations (same label).
    let err = AppManifest::parse(
        "app a\ncomponent w\nchannel ask sink 1\nchannel ask sink 2\ncomponent sink\n",
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("duplicate channel label"), "{err}");
    // Duplicate channel declarations (same target and badge, distinct
    // labels).
    let err = AppManifest::parse(
        "app a\ncomponent w\nchannel ask sink 1\nchannel tell sink 1\ncomponent sink\n",
    )
    .unwrap_err()
    .to_string();
    assert!(err.contains("duplicate channel declaration"), "{err}");
    // Duplicate scalar directives within one component.
    let err = AppManifest::parse("app a\ncomponent w\nloc 10\nloc 20\n")
        .unwrap_err()
        .to_string();
    assert!(err.contains("duplicate 'loc'"), "{err}");
}

#[test]
fn wot_proof_decoders_never_panic_or_silently_accept() {
    use lateral::wot::Proof;
    let mut rng = Drbg::from_seed(b"fuzz wot proofs");
    for _ in 0..CASES {
        let junk = text(&mut rng, 500);
        // Arbitrary text either errors cleanly or decodes to a proof
        // whose canonical text round-trips to an equal value — the same
        // no-partial-acceptance bar as the signed-manifest decoder.
        if let Ok(p) = Proof::decode(&junk) {
            assert_eq!(
                Proof::decode(&p.to_text()).unwrap(),
                p,
                "accepted input must round-trip consistently"
            );
        }
    }
}

#[test]
fn wot_proof_decoders_reject_structural_mutations() {
    use lateral::crypto::Digest;
    use lateral::wot::{Proof, Rating, ReviewProof, Revocation, TrustProof};
    let reviewer = SigningKey::from_seed(b"fuzz wot reviewer");
    let peer = SigningKey::from_seed(b"fuzz wot peer");
    let subject = Digest::of(b"fuzz wot subject image");
    let valid_texts = [
        ReviewProof::issue(&reviewer, subject, Rating::High, 7).to_text(),
        TrustProof::issue(&reviewer, &peer.verifying_key(), Rating::Trust, 7).to_text(),
        Revocation::issue(&reviewer, subject, 7).to_text(),
    ];
    for valid in &valid_texts {
        let decoded = Proof::decode(valid).unwrap();
        decoded.verify_signature().unwrap();
        // Every strict prefix is rejected — the signature line is
        // mandatory and a truncated hex field never half-parses. (The
        // full text minus only its trailing newline is the one
        // equivalent form.)
        for cut in 0..valid.len() - 1 {
            assert!(
                Proof::decode(&valid[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
        let lines: Vec<&str> = valid.lines().collect();
        // Dropping any single line must be rejected: with strict
        // positional fields there is no optional line to absorb it.
        for drop in 0..lines.len() {
            let mut mutated: Vec<&str> = lines.clone();
            mutated.remove(drop);
            assert!(
                Proof::decode(&(mutated.join("\n") + "\n")).is_err(),
                "line-drop at {drop} must be rejected"
            );
        }
        // Duplicating any single line must be rejected too — duplicate
        // fields are exactly the ambiguity adversarial proofs trade on.
        for dup in 0..lines.len() {
            let mut mutated: Vec<&str> = lines.clone();
            mutated.insert(dup, lines[dup]);
            assert!(
                Proof::decode(&(mutated.join("\n") + "\n")).is_err(),
                "line-dup at {dup} must be rejected"
            );
        }
        // Byte-level mutations must never panic; when they decode, the
        // signature check still gates ingestion into a trust graph.
        let mut rng = Drbg::from_seed(b"fuzz wot proof bytes");
        for _ in 0..CASES {
            let mut mutated: Vec<u8> = valid.as_bytes().to_vec();
            let idx = rng.gen_range(mutated.len() as u64) as usize;
            mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
            if let Ok(p) = Proof::decode(&String::from_utf8_lossy(&mutated)) {
                if p != decoded {
                    assert!(p.verify_signature().is_err(), "forged proof verified");
                }
            }
        }
    }
}

#[test]
fn crossing_profile_parser_never_panics_or_silently_accepts() {
    use lateral::telemetry::profile::CrossingProfile;
    let mut rng = Drbg::from_seed(b"fuzz crossing profile");
    for _ in 0..CASES {
        let junk = text(&mut rng, 500);
        // Arbitrary text either errors cleanly or decodes to a profile
        // whose canonical text round-trips to an equal value — silent
        // acceptance would poison placement decisions downstream.
        if let Ok(p) = CrossingProfile::parse(&junk) {
            assert_eq!(
                CrossingProfile::parse(&p.to_text()).unwrap(),
                p,
                "accepted input must round-trip consistently"
            );
            assert_eq!(
                CrossingProfile::parse(&p.to_text()).unwrap().digest(),
                p.digest()
            );
        }
    }
    // Mutations of a valid encoding must never panic, and anything that
    // still decodes must round-trip; trailing garbage is rejected.
    let mut valid = CrossingProfile::new();
    for cost in [5u64, 1_000, 1_008, 3_000, 60_008] {
        valid.observe("meter", "ledger", "ipc", cost, 64);
    }
    valid.observe("ledger", "audit", "smc", 6_000, 32);
    let valid = valid.to_text();
    assert!(CrossingProfile::parse(&format!("{valid}x")).is_err());
    assert!(
        CrossingProfile::parse(valid.trim_end()).is_ok(),
        "trailing newline optional"
    );
    let mut rng = Drbg::from_seed(b"fuzz crossing profile bytes");
    for _ in 0..CASES {
        let mut mutated: Vec<u8> = valid.as_bytes().to_vec();
        let idx = rng.gen_range(mutated.len() as u64) as usize;
        mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
        if let Ok(p) = CrossingProfile::parse(&String::from_utf8_lossy(&mutated)) {
            assert_eq!(CrossingProfile::parse(&p.to_text()).unwrap(), p);
        }
    }
}

#[test]
fn placement_plan_parser_never_panics_or_silently_accepts() {
    use lateral::core::placement::PlacementPlan;
    let mut rng = Drbg::from_seed(b"fuzz placement plan");
    for _ in 0..CASES {
        let junk = text(&mut rng, 500);
        // Same bar as the crossing-profile codec: the plan drives live
        // migrations, so a half-parsed accept is a placement attack.
        if let Ok(p) = PlacementPlan::parse(&junk) {
            assert_eq!(
                PlacementPlan::parse(&p.to_text()).unwrap(),
                p,
                "accepted input must round-trip consistently"
            );
        }
    }
    // Mutations of a valid encoding must never panic, and anything that
    // still decodes must round-trip; trailing garbage is rejected.
    let valid = "placement-plan v1\n\
                 component ledger calls 40 bytes 2560 current 0 chosen 1\n\
                 candidate 0 sgx eligible 1 cost 146560\n\
                 candidate 1 software eligible 1 cost 240\n\
                 component meter calls 40 bytes 2560 current 0 chosen 1\n\
                 candidate 0 sgx eligible 1 cost 146560\n\
                 candidate 1 software eligible 1 cost 240\n";
    let decoded = PlacementPlan::parse(valid).unwrap();
    assert_eq!(decoded.move_count(), 2);
    assert!(PlacementPlan::parse(&format!("{valid}x")).is_err());
    let mut rng = Drbg::from_seed(b"fuzz placement plan bytes");
    for _ in 0..CASES {
        let mut mutated: Vec<u8> = valid.as_bytes().to_vec();
        let idx = rng.gen_range(mutated.len() as u64) as usize;
        mutated[idx] ^= (1 + rng.gen_range(255)) as u8;
        if let Ok(p) = PlacementPlan::parse(&String::from_utf8_lossy(&mutated)) {
            assert_eq!(PlacementPlan::parse(&p.to_text()).unwrap(), p);
        }
    }
}

#[test]
fn trailing_garbage_is_rejected_by_every_binary_codec() {
    use lateral::crypto::Digest;
    use lateral::net::channel::encode_evidence;
    use lateral::net::session::{
        decode_reply_group, decode_request_group, encode_reply_group, encode_request_group,
        ReplyEntry, RequestEntry, ResumeAccept, ResumeHello, ResumptionTicket, SessionEpoch,
        STATUS_OK,
    };
    use lateral::substrate::attest::AttestationEvidence;
    use lateral::telemetry::{SpanId, TraceContext};

    // Every binary codec must be strict-finish: a valid encoding decodes,
    // and the same bytes with ANY suffix appended are rejected whole —
    // trailing bytes are where smuggled payloads and parser differentials
    // live. Sweep several suffixes, not just one.
    fn sweep<T: std::fmt::Debug>(
        name: &str,
        valid: &[u8],
        decode: impl Fn(&[u8]) -> Result<T, Box<dyn std::error::Error>>,
    ) {
        decode(valid).unwrap_or_else(|e| panic!("{name}: valid encoding rejected: {e}"));
        let mut rng = Drbg::from_seed(b"fuzz trailing garbage");
        for extra in 1..=4usize {
            let mut padded = valid.to_vec();
            for _ in 0..extra {
                padded.push(rng.gen_range(256) as u8);
            }
            assert!(
                decode(&padded).is_err(),
                "{name}: accepted {extra} trailing byte(s)"
            );
        }
    }

    let epoch = SessionEpoch {
        revocation: 3,
        trust: 1,
        regrant: 2,
    };
    sweep("session-epoch", &epoch.encode(), |b| {
        SessionEpoch::decode(b).map_err(Into::into)
    });

    let ticket = ResumptionTicket {
        id: [7u8; 16],
        secret: [9u8; 32],
        evidence: [3u8; 32],
        epoch,
    };
    sweep("resumption-ticket", &ticket.encode(), |b| {
        ResumptionTicket::decode(b).map_err(Into::into)
    });

    let mut rng = Drbg::from_seed(b"fuzz resume hello");
    let hello = ResumeHello::new(&ticket, &mut rng);
    sweep("resume-hello", &hello.encode(), |b| {
        ResumeHello::decode(b).map_err(Into::into)
    });

    let accept = ResumeAccept {
        nonce: [5u8; 32],
        proof: [6u8; 32],
    };
    sweep("resume-accept", &accept.encode(), |b| {
        ResumeAccept::decode(b).map_err(Into::into)
    });

    let requests = vec![RequestEntry {
        id: 1,
        ctx: TraceContext {
            trace_id: 7,
            parent: SpanId(2),
        },
        payload: b"req".to_vec(),
    }];
    sweep("request-group", &encode_request_group(&requests), |b| {
        decode_request_group(b).map_err(Into::into)
    });

    let replies = vec![ReplyEntry {
        id: 1,
        status: STATUS_OK,
        payload: b"rep".to_vec(),
    }];
    sweep("reply-group", &encode_reply_group(&replies), |b| {
        decode_reply_group(b).map_err(Into::into)
    });

    let key = SigningKey::from_seed(b"fuzz evidence platform");
    let evidence = AttestationEvidence {
        substrate: "microkernel".into(),
        platform_key: key.verifying_key().to_bytes(),
        measurement: Digest::of(b"fuzz measurement"),
        platform_state: Digest::of(b"fuzz platform"),
        report_data: b"bound channel key".to_vec(),
        signature: key.sign(b"not checked by the codec").to_bytes(),
    };
    sweep("attestation-evidence", &encode_evidence(&evidence), |b| {
        decode_evidence(b).map_err(Into::into)
    });

    let mut tpm = lateral::tpm::Tpm::new(b"fuzz tpm");
    tpm.extend(0, b"event");
    let quote = tpm.quote(&[0], b"nonce");
    sweep(
        "tpm-quote",
        &lateral::components::ftpm::encode_quote(&quote),
        |b| decode_quote(b).map_err(Into::into),
    );

    sweep(
        "trace-context",
        &TraceContext {
            trace_id: 9,
            parent: SpanId(4),
        }
        .encode(),
        |b| TraceContext::decode(b).map_err(Into::into),
    );
}

#[test]
fn session_codecs_never_panic_on_arbitrary_bytes() {
    use lateral::net::session::{
        decode_reply_group, decode_request_group, ResumeAccept, ResumeHello, ResumptionTicket,
        SessionEpoch,
    };
    let mut rng = Drbg::from_seed(b"fuzz session codecs");
    for _ in 0..CASES {
        let junk = bytes(&mut rng, 512);
        let _ = decode_request_group(&junk);
        let _ = decode_reply_group(&junk);
        let _ = SessionEpoch::decode(&junk);
        let _ = ResumptionTicket::decode(&junk);
        let _ = ResumeHello::decode(&junk);
        let _ = ResumeAccept::decode(&junk);
    }
}

#[test]
fn record_opener_never_yields_a_payload_for_hostile_bytes() {
    use lateral::net::channel::SecureChannel;
    use lateral::net::NetError;

    let mut rng = Drbg::from_seed(b"fuzz record opener");
    let secret = [0x5A; 32];
    let mut tx = SecureChannel::from_shared(&secret, true);
    let mut rx = SecureChannel::from_shared(&secret, false);
    // Deliver three records first, so both past and future sequence
    // numbers exist around the genuine record (sequence 3).
    let mut delivered = Vec::new();
    for i in 0..3u8 {
        let record = tx.seal(&[i]);
        rx.open(&record).unwrap();
        delivered.push(record);
    }
    let body = b"meter 17: 42 kWh, ok";
    let genuine = tx.seal(body);

    let mut hostile = Vec::new();
    for len in 0..=80 {
        let mut junk = vec![0u8; len];
        rng.fill_bytes(&mut junk);
        hostile.push(junk);
    }
    for cut in 0..genuine.len() {
        hostile.push(genuine[..cut].to_vec());
    }
    // Every single-bit flip: the sequence prefix, the ciphertext and
    // the tag.
    for bit in 0..genuine.len() * 8 {
        let mut flipped = genuine.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        hostile.push(flipped);
    }
    // The genuine box under a spliced past or future sequence.
    for seq in [0u64, 2, 4, 5, u64::MAX] {
        let mut spliced = seq.to_le_bytes().to_vec();
        spliced.extend_from_slice(&genuine[8..]);
        hostile.push(spliced);
    }
    for bytes in &hostile {
        let got = rx.open(bytes);
        assert!(
            matches!(got, Err(NetError::RecordRejected(_))),
            "{} hostile bytes opened as {got:?}",
            bytes.len()
        );
    }

    // None of it moved the window: the genuine record opens now, and a
    // genuine replay (of it, or of an older record) is a typed
    // duplicate that moves nothing either.
    assert_eq!(rx.open(&genuine).unwrap(), body);
    assert_eq!(rx.open(&genuine), Err(NetError::Duplicate(3)));
    assert_eq!(rx.open(&delivered[0]), Err(NetError::Duplicate(0)));
    let next = tx.seal(b"next");
    assert_eq!(rx.open(&next).unwrap(), b"next");
}

#[test]
fn subverted_component_report_roundtrips() {
    let mut rng = Drbg::from_seed(b"fuzz report");
    for _ in 0..CASES {
        use lateral::components::compromise::AttackReport;
        let oob = rng.gen_range(100) as u32;
        let granted = rng.gen_range(10) as u32;
        let forged = rng.gen_range(200) as u32;
        let r = AttackReport {
            active: true,
            oob_reads_attempted: oob + 1,
            oob_reads_succeeded: oob,
            granted_channels: granted,
            exfil_successes: granted,
            forged_attempted: forged + 1,
            forged_succeeded: forged,
        };
        assert_eq!(AttackReport::decode(&r.encode()).unwrap(), r);
    }
}
