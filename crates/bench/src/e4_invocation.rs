//! E4 — the cost of decomposition (§III-E "Potential Roadblocks").
//!
//! Measures the logical-cycle cost of one request/reply across each
//! isolation boundary, over payload sizes. Expected shape (the cost
//! ladder the systems literature reports): function call ≪ microkernel
//! IPC < TrustZone SMC ≈ SGX enclave transition < SEP mailbox < Flicker
//! late launch ≪ network round trip — decomposition costs constant small
//! factors, far from the interactive-budget ceiling. The Flicker point
//! also explains *why* SGX exists: "a more refined implementation of the
//! late-launch approach" (§II-B) is ~20× cheaper per call.

use std::collections::BTreeMap;

use lateral_crypto::sign::SigningKey;
use lateral_crypto::Digest;
use lateral_flicker::Flicker;
use lateral_hw::clock::CostModel;
use lateral_hw::machine::MachineBuilder;
use lateral_microkernel::Microkernel;
use lateral_sep::Sep;
use lateral_sgx::Sgx;
use lateral_substrate::cap::{Badge, ChannelCap};
use lateral_substrate::fabric::CrossingKind;
use lateral_substrate::software::SoftwareSubstrate;
use lateral_substrate::substrate::{DomainSpec, Substrate};
use lateral_substrate::testkit::Echo;
use lateral_substrate::DomainId;
use lateral_trustzone::TrustZone;

use crate::table::render;

/// Payload sizes measured.
pub const SIZES: [usize; 4] = [16, 256, 4096, 16384];

/// Cycles per invocation for one mechanism across [`SIZES`].
#[derive(Clone, Debug)]
pub struct Mechanism {
    /// Mechanism name.
    pub name: String,
    /// Cycles per call, aligned with [`SIZES`].
    pub cycles: Vec<u64>,
}

/// One row of fabric counters for a measured mechanism: what the engine
/// itself traced while the ladder ran — crossing counts and bytes
/// moved, per crossing kind.
#[derive(Clone, Debug)]
pub struct CrossingFacts {
    /// Mechanism name (matches [`Mechanism::name`]).
    pub mechanism: String,
    /// Crossing kind name as the engine classified it.
    pub crossing: String,
    /// Invocations charged with this crossing kind.
    pub count: u64,
    /// Payload bytes moved across this crossing kind.
    pub bytes: u64,
}

/// Reads the charged cost of the invocation from the fabric trace —
/// the engine records what it charged, so E4 no longer differences the
/// clock around the call.
fn charged_cost(sub: &mut dyn Substrate, caller: DomainId, cap: &ChannelCap, size: usize) -> u64 {
    let payload = vec![0xAAu8; size];
    sub.invoke(caller, cap, &payload).expect("invoke");
    sub.fabric()
        .trace()
        .last()
        .expect("the invoke was traced")
        .cost
}

/// Folds the crossings the engine traced on `sub` — the trace
/// [`charged_cost`] reads — into one row per crossing kind, in kind
/// order.
fn crossing_facts(sub: &dyn Substrate, mechanism: &str) -> Vec<CrossingFacts> {
    let mut by_kind: BTreeMap<CrossingKind, (u64, u64)> = BTreeMap::new();
    for ev in sub.fabric().trace() {
        let (count, bytes) = by_kind.entry(ev.crossing).or_default();
        *count += 1;
        *bytes += ev.bytes;
    }
    by_kind
        .into_iter()
        .map(|(kind, (count, bytes))| CrossingFacts {
            mechanism: mechanism.to_string(),
            crossing: kind.name().to_string(),
            count,
            bytes,
        })
        .collect()
}

fn measure(sub: &mut dyn Substrate) -> Vec<u64> {
    // Caller and callee are both plain domains; substrates whose
    // interesting crossing involves a host/legacy side are measured by
    // the dedicated blocks below.
    let callee = sub
        .spawn(DomainSpec::named("callee"), Box::new(Echo))
        .expect("spawn callee");
    let caller = sub
        .spawn(DomainSpec::named("caller"), Box::new(Echo))
        .expect("spawn caller");
    let cap = sub.grant_channel(caller, callee, Badge(0)).expect("grant");
    SIZES
        .iter()
        .map(|size| charged_cost(sub, caller, &cap, *size))
        .collect()
}

/// Runs all mechanisms.
pub fn run() -> Vec<Mechanism> {
    run_with_facts().0
}

/// Runs all mechanisms and additionally returns the crossings each
/// substrate's engine traced during the measurement.
pub fn run_with_facts() -> (Vec<Mechanism>, Vec<CrossingFacts>) {
    let costs = CostModel::default();
    let mut out = Vec::new();
    let mut facts = Vec::new();

    // Baseline: a plain function call inside one component.
    out.push(Mechanism {
        name: "function call (vertical baseline)".into(),
        cycles: SIZES.iter().map(|_| costs.function_call).collect(),
    });

    let mut sw = SoftwareSubstrate::new("e4");
    out.push(Mechanism {
        name: "software substrate dispatch".into(),
        cycles: measure(&mut sw),
    });
    facts.extend(crossing_facts(&sw, "software substrate dispatch"));

    let mut mk = Microkernel::new(
        MachineBuilder::new().name("e4-mk").frames(256).build(),
        "e4",
    )
    .with_attestation(SigningKey::from_seed(b"e4"), Digest::ZERO);
    out.push(Mechanism {
        name: "microkernel sync IPC".into(),
        cycles: measure(&mut mk),
    });
    facts.extend(crossing_facts(&mk, "microkernel sync IPC"));

    // TrustZone: legacy normal world calling into the secure world (SMC).
    let mut tz = TrustZone::new(
        MachineBuilder::new().name("e4-tz").frames(256).build(),
        "e4",
    );
    {
        let callee = tz
            .spawn(DomainSpec::named("callee"), Box::new(Echo))
            .expect("spawn");
        let caller = tz
            .spawn_normal(DomainSpec::named("legacy"), Box::new(Echo))
            .expect("spawn");
        let cap = tz.grant_channel(caller, callee, Badge(0)).expect("grant");
        let cycles = SIZES
            .iter()
            .map(|size| charged_cost(&mut tz, caller, &cap, *size))
            .collect();
        out.push(Mechanism {
            name: "TrustZone SMC (world switch)".into(),
            cycles,
        });
    }
    facts.extend(crossing_facts(&tz, "TrustZone SMC (world switch)"));

    // SGX: host calling into an enclave (EENTER/EEXIT pair).
    let mut sgx = Sgx::new(
        MachineBuilder::new().name("e4-sgx").frames(256).build(),
        "e4",
    );
    {
        let callee = sgx
            .spawn(DomainSpec::named("enclave"), Box::new(Echo))
            .expect("spawn");
        let caller = sgx
            .spawn_host(DomainSpec::named("host"), Box::new(Echo))
            .expect("spawn");
        let cap = sgx.grant_channel(caller, callee, Badge(0)).expect("grant");
        let cycles = SIZES
            .iter()
            .map(|size| charged_cost(&mut sgx, caller, &cap, *size))
            .collect();
        out.push(Mechanism {
            name: "SGX enclave transition".into(),
            cycles,
        });
    }
    facts.extend(crossing_facts(&sgx, "SGX enclave transition"));

    // SEP: application CPU calling the coprocessor (mailbox).
    let mut sep = Sep::new(
        MachineBuilder::new().name("e4-sep").frames(256).build(),
        "e4",
    );
    {
        let callee = sep
            .spawn(DomainSpec::named("sep-svc"), Box::new(Echo))
            .expect("spawn");
        let caller = sep
            .spawn_host(DomainSpec::named("app"), Box::new(Echo))
            .expect("spawn");
        let cap = sep.grant_channel(caller, callee, Badge(0)).expect("grant");
        let cycles = SIZES
            .iter()
            .map(|size| charged_cost(&mut sep, caller, &cap, *size))
            .collect();
        out.push(Mechanism {
            name: "SEP mailbox round trip".into(),
            cycles,
        });
    }
    facts.extend(crossing_facts(&sep, "SEP mailbox round trip"));

    // Flicker: every call is a DRTM late-launch session.
    let mut flicker = Flicker::new("e4");
    out.push(Mechanism {
        name: "Flicker late launch per call".into(),
        cycles: measure(&mut flicker),
    });
    facts.extend(crossing_facts(&flicker, "Flicker late launch per call"));

    // Network round trip (per the cost model: two packets + copies).
    out.push(Mechanism {
        name: "cross-machine round trip".into(),
        cycles: SIZES
            .iter()
            .map(|size| 2 * costs.network_packet + 2 * costs.copy_cost(*size))
            .collect(),
    });

    (out, facts)
}

/// Renders the report.
pub fn report() -> String {
    let (mechanisms, facts) = run_with_facts();
    let mut header = vec!["mechanism".to_string()];
    header.extend(SIZES.iter().map(|s| format!("{s} B")));
    let mut rows = vec![header];
    for m in &mechanisms {
        let mut r = vec![m.name.clone()];
        r.extend(m.cycles.iter().map(|c| format!("{c}")));
        rows.push(r);
    }
    let mut fact_rows = vec![vec![
        "mechanism".to_string(),
        "crossing".to_string(),
        "crossings".to_string(),
        "bytes moved".to_string(),
    ]];
    for f in &facts {
        fact_rows.push(vec![
            f.mechanism.clone(),
            f.crossing.clone(),
            f.count.to_string(),
            f.bytes.to_string(),
        ]);
    }
    format!(
        "E4 — invocation cost ladder (logical cycles per request/reply)\n\n{}\n\
         shape check: function < IPC < SMC ≈ enclave < mailbox < late-launch < network\n\n\
         fabric counters (engine-accounted crossings during the run)\n\n{}\n",
        render(&rows),
        render(&fact_rows)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cycles_at_16(mechanisms: &[Mechanism], name_contains: &str) -> u64 {
        mechanisms
            .iter()
            .find(|m| m.name.contains(name_contains))
            .unwrap_or_else(|| panic!("mechanism {name_contains}"))
            .cycles[0]
    }

    #[test]
    fn ladder_shape_holds() {
        let m = run();
        let func = cycles_at_16(&m, "function");
        let ipc = cycles_at_16(&m, "microkernel");
        let smc = cycles_at_16(&m, "TrustZone");
        let enclave = cycles_at_16(&m, "SGX");
        let mailbox = cycles_at_16(&m, "SEP");
        let drtm = cycles_at_16(&m, "Flicker");
        let net = cycles_at_16(&m, "cross-machine");
        assert!(func < ipc, "{func} < {ipc}");
        assert!(ipc < smc, "{ipc} < {smc}");
        assert!(
            smc <= enclave + enclave / 2,
            "SMC ≈ enclave: {smc} vs {enclave}"
        );
        assert!(enclave < mailbox, "{enclave} < {mailbox}");
        assert!(mailbox < drtm, "{mailbox} < {drtm}");
        assert!(drtm < net, "{drtm} < {net}");
    }

    #[test]
    fn larger_payloads_cost_more() {
        for m in run() {
            if m.name.contains("function") {
                continue; // flat baseline
            }
            assert!(m.cycles[3] > m.cycles[0], "{}: {:?}", m.name, m.cycles);
        }
    }

    #[test]
    fn report_renders() {
        let r = report();
        assert!(r.contains("16384 B"));
        assert!(r.contains("fabric counters"));
        assert!(r.contains("bytes moved"));
    }

    #[test]
    fn fabric_counters_account_every_measured_byte() {
        let (_, facts) = run_with_facts();
        let total: u64 = SIZES.iter().map(|s| *s as u64).sum();
        for mech in [
            "software substrate dispatch",
            "microkernel sync IPC",
            "TrustZone SMC (world switch)",
            "SGX enclave transition",
            "SEP mailbox round trip",
            "Flicker late launch per call",
        ] {
            let rows: Vec<_> = facts.iter().filter(|f| f.mechanism == mech).collect();
            assert_eq!(
                rows.iter().map(|f| f.count).sum::<u64>(),
                SIZES.len() as u64,
                "{mech}: one crossing per measured size"
            );
            assert_eq!(
                rows.iter().map(|f| f.bytes).sum::<u64>(),
                total,
                "{mech}: engine accounted all payload bytes"
            );
        }
    }

    #[test]
    fn boundary_mechanisms_report_their_crossing_kind() {
        let (_, facts) = run_with_facts();
        let kind_of = |mech: &str| {
            facts
                .iter()
                .filter(|f| f.mechanism == mech)
                .max_by_key(|f| f.count)
                .map(|f| f.crossing.clone())
                .unwrap_or_else(|| panic!("no facts for {mech}"))
        };
        assert_eq!(kind_of("TrustZone SMC (world switch)"), "smc");
        assert_eq!(kind_of("SGX enclave transition"), "enclave");
        assert_eq!(kind_of("SEP mailbox round trip"), "mailbox");
        assert_eq!(kind_of("Flicker late launch per call"), "late-launch");
    }
}
