//! Second test battery: the campaign's population builders and the
//! testbed day's time axis.

use crate::experiment::{
    epoch_to_time, heterogeneous, homogeneous, revenue_gain_percent, SigmaLevel, TenantSpec,
};
use ovnes::slice::SliceClass;

#[test]
fn homogeneous_builder() {
    let specs = homogeneous(SliceClass::Mmtc, 7, 0.3, SigmaLevel::Half, 4.0);
    assert_eq!(specs.len(), 7);
    for s in &specs {
        assert_eq!(s.class, SliceClass::Mmtc);
        assert_eq!(s.alpha, 0.3);
        assert_eq!(s.penalty_factor, 4.0);
    }
}

#[test]
fn heterogeneous_builder_split() {
    let specs = heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        25.0,
        SigmaLevel::Zero,
        1.0,
    );
    let urllc = specs
        .iter()
        .filter(|s| s.class == SliceClass::Urllc)
        .count();
    let embb = specs.iter().filter(|s| s.class == SliceClass::Embb).count();
    assert_eq!((urllc, embb), (3, 7)); // 25% of 10, rounded
                                       // β = 0 and β = 100 are pure populations.
    assert!(heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        0.0,
        SigmaLevel::Zero,
        1.0
    )
    .iter()
    .all(|s| s.class == SliceClass::Embb));
    assert!(heterogeneous(
        SliceClass::Embb,
        SliceClass::Urllc,
        10,
        100.0,
        SigmaLevel::Zero,
        1.0
    )
    .iter()
    .all(|s| s.class == SliceClass::Urllc));
}

#[test]
fn sigma_levels() {
    assert_eq!(SigmaLevel::Zero.fraction(), 0.0);
    assert_eq!(SigmaLevel::Quarter.fraction(), 0.25);
    assert_eq!(SigmaLevel::Half.fraction(), 0.5);
}

#[test]
fn revenue_gain_edges() {
    assert_eq!(revenue_gain_percent(6.0, 3.0), 100.0);
    assert_eq!(revenue_gain_percent(3.0, 3.0), 0.0);
    assert_eq!(revenue_gain_percent(0.0, 0.0), 0.0);
    assert!(revenue_gain_percent(1.0, 0.0).is_infinite());
}

#[test]
fn tenant_spec_constructible() {
    let s = TenantSpec {
        class: SliceClass::Urllc,
        alpha: 0.4,
        sigma: SigmaLevel::Quarter,
        penalty_factor: 16.0,
    };
    assert_eq!(s.sigma.label(), "σ=λ/4");
}

#[test]
fn epoch_time_axis() {
    assert_eq!(epoch_to_time(0), "06:00");
    assert_eq!(epoch_to_time(17), "23:00");
}

// ------------------------------------------------------------ orchestrator
