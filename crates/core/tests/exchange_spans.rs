//! The phase spans of a round are opened and closed by the exchange driver
//! alone: one `broadcast`, `local_train`, `collect` and `aggregate` span
//! per exchange, whatever becomes of the replies; a leg nobody answers —
//! local training among them — has the first two.
//!
//! The trace collector is process-wide, so this file holds ONE test: in a
//! binary with others, their rounds would land in the same counters.

use fedclassavg::algo::{Algorithm, FedAvg, FedClassAvg, FedMd, FedProto, KtPfl, LocalOnly};
use fedclassavg::comm::{FaultPlan, Network};
use fedclassavg::config::HyperParams;
use fedclassavg::sim::test_support::{tiny_fleet, tiny_fleet_homogeneous, tiny_public_data};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// An in-memory journal the test can read back.
#[derive(Clone, Default)]
struct Journal(Arc<Mutex<Vec<u8>>>);

impl Write for Journal {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("journal").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn an_exchange_opens_each_of_its_phase_spans_once() {
    let journal = Journal::default();
    let guard = fca_trace::install_writer(Box::new(journal.clone()), "spans", "any", "f32")
        .expect("install the journal");
    if !fca_trace::is_active() {
        return; // built with tracing compiled out: nothing to count
    }
    let hp = HyperParams::micro_default();
    let all = [0, 1, 2];
    let public = || tiny_public_data(12, 782);
    let homogeneous_state = tiny_fleet_homogeneous(3, 781)
        .0
        .client_mut(0)
        .model
        .full_state();
    // Everyone offline.
    let dark = FaultPlan::with_dropout(1, 1.0);
    let full = [
        ("broadcast", 1),
        ("local_train", 1),
        ("collect", 1),
        ("aggregate", 1),
    ];
    let two_legs = [
        ("broadcast", 2),
        ("local_train", 2),
        ("collect", 1),
        ("aggregate", 1),
    ];
    // (algorithm, on a homogeneous fleet?, fault plan, spans of one round)
    type Case = (
        Box<dyn Algorithm>,
        bool,
        FaultPlan,
        Vec<(&'static str, u64)>,
    );
    let cases: Vec<Case> = vec![
        (
            Box::new(FedClassAvg::new(8, 3, 1)),
            false,
            FaultPlan::none(),
            full.to_vec(),
        ),
        // Zero survivors: the spans are the same, the fold is skipped.
        (
            Box::new(FedClassAvg::new(8, 3, 1)),
            false,
            dark,
            full.to_vec(),
        ),
        (
            Box::new(FedAvg::new(homogeneous_state)),
            true,
            FaultPlan::none(),
            full.to_vec(),
        ),
        (
            Box::new(FedProto::new(8, 3, 1.0)),
            false,
            FaultPlan::none(),
            full.to_vec(),
        ),
        (
            Box::new(FedMd::new(public())),
            false,
            FaultPlan::none(),
            two_legs.to_vec(),
        ),
        (
            Box::new(KtPfl::new(public(), 3).with_local_epochs(1)),
            false,
            FaultPlan::none(),
            two_legs.to_vec(),
        ),
        // No consensus to send: the second leg never starts.
        (Box::new(FedMd::new(public())), false, dark, full.to_vec()),
        (
            Box::new(LocalOnly::new()),
            false,
            FaultPlan::none(),
            vec![("broadcast", 1), ("local_train", 1)],
        ),
    ];
    let mut expected = Vec::new();
    for (round, (mut algo, homogeneous, plan, spans)) in cases.into_iter().enumerate() {
        let mut fleet = if homogeneous {
            tiny_fleet_homogeneous(3, 781).0
        } else {
            tiny_fleet(3, 781).0
        };
        let mut net = Network::new(3).with_fault_plan(plan);
        net.begin_round(1, &all);
        algo.round(1, &mut fleet, &all, &net, &hp);
        fca_trace::flush_ops(round as u64);
        expected.push((algo.name(), spans));
    }
    drop(guard);

    let text = String::from_utf8(journal.0.lock().expect("journal").clone()).expect("utf-8");
    let mut seen: Vec<BTreeMap<String, u64>> = vec![BTreeMap::new(); expected.len()];
    for line in text.lines() {
        if let fca_trace::Event::Phase {
            round,
            phase,
            calls,
            ..
        } = fca_trace::Event::parse(line).expect("schema-valid line")
        {
            seen[round as usize].insert(phase, calls);
        }
    }
    for (case, ((name, spans), seen)) in expected.iter().zip(&seen).enumerate() {
        let spans: BTreeMap<String, u64> = spans
            .iter()
            .map(|&(phase, calls)| (phase.to_string(), calls))
            .collect();
        assert_eq!(seen, &spans, "case {case}, {name}");
    }
}
