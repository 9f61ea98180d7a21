//! Communication audit: inspect exactly what crosses the wire in each
//! algorithm, at both paper scale (analytic, Table 5) and micro scale
//! (measured on the simulated network's serialized bytes).
//!
//! ```sh
//! cargo run --release --example communication_audit
//! ```

use fedclassavg_suite::fed::comm::{Network, WireMessage};
use fedclassavg_suite::models::classifier::ClassifierWeights;
use fedclassavg_suite::models::descriptors::{
    classifier_bytes, ktpfl_public_bytes, resnet18_descriptor,
};
use fedclassavg_suite::tensor::Tensor;

fn main() {
    // --- Paper-scale analytics (Table 5) ---------------------------------
    let resnet = resnet18_descriptor(512, 10);
    println!("paper-scale payloads per client per round:");
    println!(
        "  full ResNet-18 state dict : {:>12} B  ({:.2} MB, {} params)",
        resnet.state_bytes(200),
        resnet.state_bytes(200) as f64 / 1_048_576.0,
        resnet.param_count()
    );
    let ktpfl = ktpfl_public_bytes(3000, 3 * 32 * 32);
    println!(
        "  KT-pFL public broadcast   : {:>12} B  ({:.2} MB)",
        ktpfl,
        ktpfl as f64 / 1_048_576.0
    );
    let cls = classifier_bytes(512, 10);
    println!(
        "  FedClassAvg classifier    : {:>12} B  ({:.1} KB)",
        cls,
        cls as f64 / 1024.0
    );

    // --- Micro-scale, measured on the wire --------------------------------
    println!("\nmicro-scale messages, measured as serialized bytes:");
    let w = ClassifierWeights::zeros(32, 10);
    let msg = WireMessage::Classifier(w.clone());
    println!("  Classifier(32×10)         : {:>12} B", msg.encoded_len());
    let protos = WireMessage::Prototypes((0..10).map(|_| Some(Tensor::zeros([32]))).collect());
    println!(
        "  Prototypes(10×32)         : {:>12} B",
        protos.encoded_len()
    );
    let soft = WireMessage::SoftPredictions(Tensor::zeros([64, 10]));
    println!("  SoftPredictions(64×10)    : {:>12} B", soft.encoded_len());

    // Round-trip them through a real network and check the accounting.
    let net = Network::new(2);
    net.send_to_client(0, &msg).expect("send");
    net.send_to_client(1, &protos).expect("send");
    net.send_to_server(0, &soft).expect("send");
    let down = net.stats().downlink_bytes();
    let up = net.stats().uplink_bytes();
    println!("\nnetwork counters after 3 sends: down {down} B, up {up} B");
    assert_eq!(down as usize, msg.encoded_len() + protos.encoded_len());
    assert_eq!(up as usize, soft.encoded_len());

    // Decode on the receiving ends.
    let got = net.client_recv(0).expect("broadcast delivered");
    assert_eq!(got, msg);
    let replies = net.collect_round(0, 1);
    assert_eq!(replies[0].0, 0);
    println!("round-trip decode OK; byte accounting is exact.");
}
