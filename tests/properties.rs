//! Randomized-sweep tests over the core invariants, spanning crates.
//!
//! Formerly proptest-based; now driven by the deterministic seeded
//! `Drbg` so the suite runs with no external dependencies and produces
//! the same cases on every run (failures are exactly reproducible).

use lateral::crypto::aead::Aead;
use lateral::crypto::chacha;
use lateral::crypto::group::Scalar;
use lateral::crypto::hmac::HmacSha256;
use lateral::crypto::rng::Drbg;
use lateral::crypto::sha256::Sha256;
use lateral::crypto::sign::SigningKey;
use lateral::crypto::Digest;
use lateral::substrate::cap::{Badge, CapTable};
use lateral::substrate::DomainId;
use lateral::vpfs::{LegacyFs, MemBlockDevice, Vpfs};

const CASES: usize = 64;

fn bytes(rng: &mut Drbg, max_len: usize) -> Vec<u8> {
    let len = rng.gen_range(max_len as u64 + 1) as usize;
    let mut out = vec![0u8; len];
    rng.fill_bytes(&mut out);
    out
}

fn label(rng: &mut Drbg, max_len: usize) -> String {
    let len = 1 + rng.gen_range(max_len as u64) as usize;
    (0..len)
        .map(|_| (b'a' + rng.gen_range(26) as u8) as char)
        .collect()
}

// ------------------------------------------------------------ crypto

#[test]
fn sha256_incremental_equals_oneshot() {
    let mut rng = Drbg::from_seed(b"prop sha256");
    for _ in 0..CASES {
        let data = bytes(&mut rng, 2048);
        let split = rng.gen_range(data.len() as u64 + 1) as usize;
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), lateral::crypto::sha256::sha256(&data));
    }
}

#[test]
fn aead_roundtrip_any_payload() {
    let mut rng = Drbg::from_seed(b"prop aead");
    for _ in 0..CASES {
        let key = rng.gen_key();
        let nonce = rng.next_u64();
        let aad = bytes(&mut rng, 64);
        let data = bytes(&mut rng, 1024);
        let aead = Aead::new(&key);
        let boxed = aead.seal(nonce, &aad, &data);
        assert_eq!(aead.open(nonce, &aad, &boxed).unwrap(), data);
    }
}

#[test]
fn aead_any_single_bitflip_detected() {
    let mut rng = Drbg::from_seed(b"prop aead flip");
    for _ in 0..CASES {
        let key = rng.gen_key();
        let mut data = bytes(&mut rng, 255);
        data.push(rng.next_u64() as u8); // non-empty
        let aead = Aead::new(&key);
        let mut boxed = aead.seal(0, b"", &data);
        let idx = rng.gen_range(boxed.len() as u64) as usize;
        boxed[idx] ^= 1 << rng.gen_range(8);
        assert!(aead.open(0, b"", &boxed).is_err());
    }
}

#[test]
fn chacha_xor_is_involutive() {
    let mut rng = Drbg::from_seed(b"prop chacha");
    for _ in 0..CASES {
        let key = rng.gen_key();
        let mut nonce = [0u8; 12];
        rng.fill_bytes(&mut nonce);
        let counter = rng.next_u32();
        let data = bytes(&mut rng, 512);
        let mut buf = data.clone();
        chacha::xor_stream(&key, counter, &nonce, &mut buf);
        chacha::xor_stream(&key, counter, &nonce, &mut buf);
        assert_eq!(buf, data);
    }
}

#[test]
fn hmac_distinguishes_keys_and_messages() {
    let mut rng = Drbg::from_seed(b"prop hmac");
    for _ in 0..CASES {
        let mut k1 = bytes(&mut rng, 63);
        k1.push(1);
        let mut k2 = bytes(&mut rng, 63);
        k2.push(2);
        let msg = bytes(&mut rng, 256);
        if k1 != k2 {
            assert_ne!(HmacSha256::mac(&k1, &msg), HmacSha256::mac(&k2, &msg));
        }
    }
}

#[test]
fn signatures_verify_and_bind_message() {
    let mut rng = Drbg::from_seed(b"prop sign");
    for _ in 0..CASES {
        let mut seed = [0u8; 16];
        rng.fill_bytes(&mut seed);
        let msg = bytes(&mut rng, 256);
        let other = bytes(&mut rng, 256);
        let key = SigningKey::from_seed(&seed);
        let sig = key.sign(&msg);
        assert!(key.verifying_key().verify(&msg, &sig).is_ok());
        if other != msg {
            assert!(key.verifying_key().verify(&other, &sig).is_err());
        }
    }
}

#[test]
fn scalar_group_laws() {
    let mut rng = Drbg::from_seed(b"prop scalar");
    for _ in 0..CASES {
        let mut wa = [0u8; 64];
        rng.fill_bytes(&mut wa[..32]);
        let mut wb = [0u8; 64];
        rng.fill_bytes(&mut wb[..32]);
        let sa = Scalar::from_hash_wide(&wa);
        let sb = Scalar::from_hash_wide(&wb);
        assert_eq!(sa.add(&sb), sb.add(&sa));
        assert_eq!(sa.mul(&sb), sb.mul(&sa));
        assert_eq!(sa.add(&sb).sub(&sb), sa);
    }
}

#[test]
fn drbg_forks_never_collide() {
    let mut rng = Drbg::from_seed(b"prop fork");
    for _ in 0..CASES {
        let mut seed = [0u8; 8];
        rng.fill_bytes(&mut seed);
        let label1 = label(&mut rng, 8);
        let label2 = label(&mut rng, 8);
        let mut parent = Drbg::from_seed(&seed);
        let mut c1 = parent.fork(&label1);
        let mut c2 = parent.fork(&label2);
        // Even identical labels differ (fork counter advances).
        assert_ne!(c1.next_u64(), c2.next_u64());
    }
}

// ------------------------------------------------------------ digest

#[test]
fn digest_extend_is_injective_in_order() {
    let mut rng = Drbg::from_seed(b"prop digest");
    for _ in 0..CASES {
        let n = 1 + rng.gen_range(4) as usize;
        let parts: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, 16)).collect();
        let forward = parts.iter().fold(Digest::ZERO, |acc, p| acc.extend(p));
        if parts.len() > 1 {
            let mut reversed = parts.clone();
            reversed.reverse();
            if reversed != parts {
                let backward = reversed.iter().fold(Digest::ZERO, |acc, p| acc.extend(p));
                assert_ne!(forward, backward);
            }
        }
    }
}

// ------------------------------------------------------------ vpfs

#[test]
fn vpfs_roundtrips_arbitrary_files() {
    let mut rng = Drbg::from_seed(b"prop vpfs rt");
    for _ in 0..16 {
        let name = label(&mut rng, 12);
        let data = bytes(&mut rng, 8192);
        let legacy = LegacyFs::format(MemBlockDevice::new(256)).unwrap();
        let mut vpfs = Vpfs::format(legacy, &[9u8; 32]).unwrap();
        vpfs.write(&name, &data).unwrap();
        assert_eq!(vpfs.read(&name).unwrap(), data);
    }
}

#[test]
fn vpfs_overwrites_converge_to_last_value() {
    let mut rng = Drbg::from_seed(b"prop vpfs ow");
    for _ in 0..16 {
        let n = 1 + rng.gen_range(5) as usize;
        let versions: Vec<Vec<u8>> = (0..n).map(|_| bytes(&mut rng, 512)).collect();
        let legacy = LegacyFs::format(MemBlockDevice::new(512)).unwrap();
        let mut vpfs = Vpfs::format(legacy, &[9u8; 32]).unwrap();
        for v in &versions {
            vpfs.write("doc", v).unwrap();
        }
        assert_eq!(&vpfs.read("doc").unwrap(), versions.last().unwrap());
    }
}

#[test]
fn vpfs_corruption_never_yields_wrong_plaintext() {
    let mut rng = Drbg::from_seed(b"prop vpfs corrupt");
    for _ in 0..16 {
        let mut data = bytes(&mut rng, 2047);
        data.push(rng.next_u64() as u8);
        let block_sel = rng.next_u64() as usize;
        let offset = rng.next_u64() as usize;
        let mask = 1 + rng.gen_range(255) as u8;
        let legacy = LegacyFs::format(MemBlockDevice::new(256)).unwrap();
        let mut vpfs = Vpfs::format(legacy, &[9u8; 32]).unwrap();
        vpfs.write("doc", &data).unwrap();
        let obj = vpfs
            .legacy()
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("obj_"))
            .unwrap();
        let blocks = vpfs.legacy().file_blocks(&obj).unwrap();
        let target = blocks[block_sel % blocks.len()];
        vpfs.legacy()
            .device()
            .corrupt(target, offset, mask)
            .unwrap();
        // Either the read errors, or — if the flip hit padding beyond the
        // object's bytes — it returns the exact original data. It must
        // never return silently wrong data.
        if let Ok(read_back) = vpfs.read("doc") {
            assert_eq!(read_back, data);
        }
    }
}

// ------------------------------------------------------------ caps

#[test]
fn cap_table_never_honors_foreign_or_stale_caps() {
    let mut rng = Drbg::from_seed(b"prop caps");
    for _ in 0..CASES {
        let n = 1 + rng.gen_range(19) as usize;
        let owners: Vec<u32> = (0..n).map(|_| rng.gen_range(8) as u32).collect();
        let revoke_mask = rng.next_u32();
        let me = DomainId(0);
        let mut table = CapTable::new();
        let caps: Vec<_> = owners
            .iter()
            .enumerate()
            .map(|(i, target)| table.install(me, DomainId(*target), Badge(i as u64)))
            .collect();
        for (i, cap) in caps.iter().enumerate() {
            if revoke_mask & (1 << (i % 32)) != 0 {
                table.revoke(cap);
                assert!(table.lookup(me, cap).is_err());
            } else {
                // Valid for the owner...
                assert!(table.lookup(me, cap).is_ok());
                // ...never for anyone else.
                assert!(table.lookup(DomainId(1), cap).is_err());
            }
        }
    }
}
