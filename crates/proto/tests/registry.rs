//! Registry round-trip properties: for every registered suite, the
//! analytic side's derived configuration must feed the suite's own
//! simulator factory, on any deployment the scenario layer can
//! produce; lookup must be total and deterministic over the registered
//! names.

use edmac_mac::Deployment;
use edmac_net::Topology;
use edmac_phy::UnitDisk;
use edmac_proto::{ProtocolRegistry, ProtocolSuite};
use edmac_radio::{FrameSizes, Radio};
use edmac_sim::{CoexNetwork, SimConfig, Simulation, WakeMode};
use edmac_units::{Hertz, Seconds};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A panel of deployments spanning the families the registry must
/// serve: the reference and validation rings plus a realized disk.
fn deployments() -> Vec<(&'static str, Deployment)> {
    let mut rng = StdRng::seed_from_u64(7);
    let disk = Topology::uniform_disk(40, 2.2, &mut rng).expect("connected disk");
    let disk_env = Deployment::from_topology(&disk, Hertz::per_interval(Seconds::new(60.0)))
        .expect("disk deployment");
    vec![
        ("reference ring", Deployment::reference()),
        ("validation ring", Deployment::validation()),
        ("realized disk", disk_env),
    ]
}

#[test]
fn every_suite_round_trips_its_own_configuration() {
    // The heart of the "cannot diverge by construction" claim: the
    // record each suite's model derives is accepted by the same
    // suite's simulator factory, and the product simulates under the
    // engine on a real topology.
    let registry = ProtocolRegistry::builtin();
    let mut rng = StdRng::seed_from_u64(7);
    let topology = Topology::uniform_disk(40, 2.2, &mut rng).expect("connected disk");
    for suite in registry.iter() {
        for (label, env) in deployments() {
            let model = suite.model();
            assert_eq!(model.name(), suite.name(), "{label}");
            let config = model.configure(&env);
            assert_eq!(config.protocol(), suite.name(), "{label}");
            let bounds = model.bounds(&env);
            let x = vec![bounds.lower(0); model.dim()];
            let protocol = suite.simulator(&config, &x);
            assert_eq!(protocol.name(), suite.name(), "{label}");
        }
        // And the built protocol drives the engine end to end.
        let env = Deployment::reference();
        let protocol = suite.simulator_for(&env, &suite.reference_params());
        let report = Simulation::new(
            &[CoexNetwork {
                topology: &topology,
                protocol: protocol.as_ref(),
            }],
            &UnitDisk,
            Radio::cc2420(),
            FrameSizes::default(),
            SimConfig {
                duration: Seconds::new(90.0),
                sample_period: Seconds::new(30.0),
                warmup: Seconds::new(15.0),
                seed: 5,
                scheduling: WakeMode::Coarse,
            },
        )
        .unwrap_or_else(|e| {
            panic!(
                "{}: engine rejected the suite's protocol: {e}",
                suite.name()
            )
        })
        .run();
        assert_eq!(report.protocol(), suite.name());
        assert!(
            report.delivery_ratio() > 0.5,
            "{}: delivery {}",
            suite.name(),
            report.delivery_ratio()
        );
    }
}

#[test]
fn name_lookup_is_total_and_deterministic() {
    let registry = ProtocolRegistry::builtin();
    let names = registry.names();
    // Total: every listed name resolves, to the suite carrying it.
    for name in &names {
        assert_eq!(registry.get(name).map(|s| s.name()), Some(*name));
        assert_eq!(registry.suite(name).unwrap().name(), *name);
    }
    // Deterministic: iteration order and lookups are stable across
    // independently built registries.
    let again = ProtocolRegistry::builtin();
    assert_eq!(names, again.names());
    for name in &names {
        assert_eq!(
            registry.get(name).map(|s| s.name()),
            again.get(name).map(|s| s.name())
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn arbitrary_names_never_panic_and_misses_list_the_registry(idx in 0usize..8, suffix in 0u32..1000) {
        // Lookup over arbitrary-ish names: either a normalized hit on
        // a registered suite or a structured miss naming the registry.
        let spellings = ["x-mac", "XMAC", "dmac", "l_mac", "scpmac", "CSMA", "b-mac", "tdma"];
        let name = if suffix % 3 == 0 {
            spellings[idx].to_string()
        } else {
            format!("{}{}", spellings[idx], suffix)
        };
        let registry = ProtocolRegistry::builtin();
        match registry.suite(&name) {
            Ok(suite) => prop_assert!(registry.names().contains(&suite.name())),
            Err(e) => {
                let msg = e.to_string();
                prop_assert!(msg.contains(&name) && msg.contains("X-MAC"));
            }
        }
    }
}

// Object-safety and marker-trait contract, checked at compile time:
// suites and simulator protocols must remain usable as shared,
// thread-safe trait objects (the study worker pool depends on it).
#[test]
fn trait_objects_are_shareable_across_threads() {
    fn assert_send_sync<T: Send + Sync + ?Sized>() {}
    assert_send_sync::<dyn ProtocolSuite>();
    assert_send_sync::<std::sync::Arc<dyn ProtocolSuite>>();
    assert_send_sync::<dyn edmac_sim::SimProtocol>();
    assert_send_sync::<Box<dyn edmac_sim::SimProtocol>>();

    // And a suite handle actually crosses a thread boundary.
    let suite = ProtocolRegistry::builtin().suite("LMAC").unwrap();
    let name = std::thread::spawn(move || suite.model().name())
        .join()
        .expect("worker thread");
    assert_eq!(name, "LMAC");
}
