//! The split-TCP rate-control middlebox of §2.1.3 as a per-sample classifier.
//!
//! The paper's middlebox splits each TCP connection in two and, per the
//! slice's aggregate load:
//!
//! 1. load within both SLA and reservation ⇒ **forward transparently**;
//! 2. load above the SLA ⇒ randomly **drop** the excess, shaping to the SLA
//!    (the tenant exceeded its contract — not an operator violation);
//! 3. load within the SLA but above the reserved capacity ⇒ **buffer** (ack
//!    early, deliver late) to shape to the reservation. This is the deficit
//!    that overbooking risks; we account it as an SLA-violation event with
//!    its dropped/delayed share.
//!
//! The classifier is pure; rates are Mb/s over one monitoring sample.

/// Outcome of pushing one sample of offered load through the middlebox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Verdict {
    /// Offered load (what the tenant's VS transmitted).
    pub offered: f64,
    /// Delivered to users within the reservation: `min(offered, Λ, z)`.
    pub served: f64,
    /// Excess over the SLA that was shaped away (case 2): `max(0, offered − Λ)`.
    pub shaped: f64,
    /// In-SLA traffic the operator failed to carry (case 3):
    /// `max(0, min(offered, Λ) − z)`. Positive ⇒ SLA violation.
    pub deficit: f64,
}

impl Verdict {
    /// True when this sample violated the tenant's SLA.
    pub(crate) fn violated(&self) -> bool {
        self.deficit > 0.0
    }

    /// Fraction of the in-SLA load that was not served (0 when idle).
    pub(crate) fn deficit_fraction(&self) -> f64 {
        let in_sla = self.served + self.deficit;
        if in_sla <= 0.0 {
            0.0
        } else {
            self.deficit / in_sla
        }
    }
}

/// Classifies one monitoring sample.
///
/// * `offered` — the slice's aggregate load this sample (Mb/s),
/// * `sla` — the contracted rate Λ (Mb/s),
/// * `reservation` — the reserved rate z (Mb/s), `λ̂ ≤ z ≤ Λ` under
///   overbooking, `z = Λ` without.
///
/// # Panics
/// Panics on negative inputs.
pub(crate) fn classify(offered: f64, sla: f64, reservation: f64) -> Verdict {
    assert!(offered >= 0.0 && sla >= 0.0 && reservation >= 0.0);
    let in_sla = offered.min(sla);
    let served = in_sla.min(reservation);
    Verdict {
        offered,
        served,
        shaped: (offered - sla).max(0.0),
        deficit: (in_sla - served).max(0.0),
    }
}
