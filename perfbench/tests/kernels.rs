//! The reference kernels do the same work on every call.

use pp_perfbench::refk::{
    alu, gather, gather_buffer, lanes, lanes_buffer, splitmix64, Pairing, RefTimer,
};

#[test]
fn alu_result_depends_only_on_iterations() {
    assert_eq!(alu(100).to_bits(), alu(100).to_bits());
    assert_ne!(alu(100).to_bits(), alu(101).to_bits());
}

#[test]
fn gather_result_depends_only_on_iterations() {
    let mut a = gather_buffer();
    let mut b = gather_buffer();
    b.fill(7);
    let first = gather(&mut a, 10_000);
    // A dirty buffer is reset first, so the work and its checksum repeat.
    assert_eq!(first, gather(&mut a, 10_000));
    assert_eq!(first, gather(&mut b, 10_000));
    assert_ne!(first, gather(&mut a, 20_000));
}

#[test]
fn lanes_result_depends_only_on_iterations() {
    let mut a = lanes_buffer();
    let first = lanes(&mut a, 1000);
    assert_eq!(first, lanes(&mut a, 1000));
    assert_ne!(first, lanes(&mut a, 2000));
}

#[test]
fn splitmix_is_the_reference_generator() {
    // First output of SplitMix64 seeded with 0.
    assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
}

#[test]
fn every_pairing_records_its_kernels() {
    let mut refs = RefTimer::default();
    for pairing in [
        Pairing::Alu,
        Pairing::Gather,
        Pairing::Lanes2,
        Pairing::Both,
    ] {
        let f = refs.factor(pairing);
        assert!(f.is_finite() && f > 0.0, "{pairing:?} factor {f}");
    }
    assert_eq!(refs.alu_ms.len(), 2);
    assert_eq!(refs.gather_ms.len(), 1);
    assert_eq!(refs.lanes_ms.len(), 2);
    refs.setup_factor();
    refs.calibrate(2);
    assert_eq!(refs.setup_ms.len(), 1);
    assert_eq!(refs.gather_ms.len(), 1);
    assert_eq!(refs.calibration_ms.len(), 2);
}
