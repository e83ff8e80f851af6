//! Generic cross-machine composition: a sealing vault exported from an
//! SGX assembly, consumed from a laptop over an adversarial network,
//! gated on channel-bound attestation — all through the reusable
//! `lateral::core::remote` machinery (no application-specific protocol
//! code).
//!
//! ```text
//! cargo run --example distributed_vault
//! ```

use lateral::core::composer::compose;
use lateral::core::manifest::{AppManifest, ComponentManifest};
use lateral::core::remote::{call, establish, RemoteClient, RemoteServer, ServiceExport};
use lateral::crypto::sign::SigningKey;
use lateral::hw::machine::MachineBuilder;
use lateral::net::channel::ChannelPolicy;
use lateral::net::sim::Network;
use lateral::net::Addr;
use lateral::sgx::Sgx;
use lateral::substrate::attacker::AttackerModel;
use lateral::substrate::attest::TrustPolicy;
use lateral::substrate::cap::Badge;
use lateral::substrate::component::Component;
use lateral::substrate::substrate::Substrate;
use lateral::substrate::testkit::Sealer;

fn factory(cm: &ComponentManifest) -> Option<Box<dyn Component>> {
    (cm.name == "vault").then(|| Box::new(Sealer) as Box<dyn Component>)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut net = Network::new("vault-demo");

    // --- cloud side: compose the vault; it lands in an SGX enclave ------
    let sgx = Sgx::new(
        MachineBuilder::new().name("cloud").frames(256).build(),
        "cloud",
    );
    let quoting_key = sgx.platform_verifying_key()?;
    let pool: Vec<Box<dyn Substrate>> = vec![Box::new(sgx)];
    let app = AppManifest::new(
        "vault-service",
        vec![ComponentManifest::new("vault")
            .image(b"vault v1 (audited)")
            .requires(&[AttackerModel::RemoteSoftware, AttackerModel::PhysicalBus])],
    );
    let mut cloud = compose(&app, pool, &mut factory)?;
    println!("vault placed on: {}", cloud.substrate_of("vault")?);

    let mut server = RemoteServer::bind(
        &mut net,
        Addr::new("vault.cloud.example"),
        ServiceExport {
            component: "vault".into(),
            badge: Badge(0x0B57),
            identity: SigningKey::from_seed(b"vault channel id"),
            client_policy: ChannelPolicy::open(),
            attest: true, // bind SGX evidence into every handshake
        },
    );

    // --- laptop side: trust only the audited build on genuine hardware --
    let mut trust = TrustPolicy::new();
    trust.trust_platform(quoting_key);
    trust.expect_measurement(cloud.measurement("vault")?);
    let mut client = RemoteClient::new(
        &mut net,
        Addr::new("laptop.example"),
        Addr::new("vault.cloud.example"),
        SigningKey::from_seed(b"laptop id"),
        ChannelPolicy::open().with_attestation(trust),
        None,
    );

    establish(&mut net, &mut client, None, &mut server, &mut cloud)?;
    let attested = client.peer().unwrap().attested.clone().unwrap();
    println!(
        "connected; the vault proved (in-channel) it runs {} on {}",
        attested.measurement.short_hex(),
        attested.substrate
    );

    // Seal a secret remotely; only this vault identity can ever unseal it.
    let sealed = call(
        &mut net,
        &mut client,
        &mut server,
        &mut cloud,
        b"s:the launch codes",
    )?;
    println!("sealed remotely: {} bytes", sealed.len());
    let mut req = b"u:".to_vec();
    req.extend_from_slice(&sealed);
    let plain = call(&mut net, &mut client, &mut server, &mut cloud, &req)?;
    println!("unsealed remotely: {:?}", String::from_utf8_lossy(&plain));

    println!(
        "\nnetwork adversary saw {} packets — zero plaintext in any of them",
        net.sent()
    );
    let leaky = net
        .recorded()
        .iter()
        .any(|p| p.payload.windows(16).any(|w| w == b"the launch codes"));
    println!("plaintext leaked: {leaky}");
    Ok(())
}
