//! Demonstrates the forecasting block (§2.2.2): `predict_next` on a flat, a
//! trending and a diurnal series of hourly peak loads, first on less than
//! two days of history (simple exponential smoothing) and then on four
//! (Holt-Winters with a daily season), with the uncertainty estimate σ̂
//! that scales the overbooking risk term.
//!
//! Run with: `cargo run --release --example forecast_demo`

use ovnes_forecast::predict_next;
use ovnes_netsim::TrafficGenerator;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEASON: usize = 24;
const MIN_SIGMA: f64 = 0.05;

/// RMSE of the one-step forecasts of `series[from..from + SEASON]`, each
/// made from the history before it.
fn rolling_rmse(series: &[f64], from: usize) -> f64 {
    let sq: f64 = (from..from + SEASON)
        .map(|t| (predict_next(&series[..t], SEASON, MIN_SIGMA).value - series[t]).powi(2))
        .sum();
    (sq / SEASON as f64).sqrt()
}

fn main() {
    // Five days of hourly peak loads around 100 Mb/s.
    let mut rng = StdRng::seed_from_u64(4);
    let mut draw = |gen: &TrafficGenerator, ramp: f64| -> Vec<f64> {
        (0..SEASON * 5)
            .map(|t| gen.sample(t as u64, &mut rng) + ramp * t as f64)
            .collect()
    };
    let flat = TrafficGenerator::gaussian(100.0, 6.0);
    let series = [
        ("flat", draw(&flat, 0.0)),
        (
            "trending",
            draw(&TrafficGenerator::gaussian(70.0, 6.0), 0.5),
        ),
        (
            "diurnal",
            draw(&flat.clone().with_diurnal(0.5, SEASON), 0.0),
        ),
    ];

    println!("One-step forecasts with predict_next (season {SEASON} h, σ̂ floor {MIN_SIGMA}).");
    println!("Day 2 forecasts from under two seasons of history (SES); day 5 from four");
    println!("or more (Holt-Winters). RMSE in Mb/s over each day's 24 forecasts.\n");
    // Each hat is a combining character: one more char than it shows.
    println!(
        "{:<10} {:>12} {:>12} {:>15} {:>11}",
        "series", "RMSE day 2", "RMSE day 5", "λ̂ hour 97", "σ̂ hour 97"
    );
    for (name, s) in &series {
        let p = predict_next(&s[..SEASON * 4], SEASON, MIN_SIGMA);
        println!(
            "{:<10} {:>12.2} {:>12.2} {:>14.1} {:>10.3}",
            name,
            rolling_rmse(s, SEASON),
            rolling_rmse(s, SEASON * 4),
            p.value,
            p.sigma
        );
    }

    let (_, diurnal) = &series[2];
    println!("\nDiurnal series, hour by hour (first 8 h of day 5):");
    println!("{:>4} {:>8} {:>9} {:>8}", "h", "truth", "λ̂", "σ̂");
    for h in 0..8 {
        let t = SEASON * 4 + h;
        let p = predict_next(&diurnal[..t], SEASON, MIN_SIGMA);
        println!(
            "{:>4} {:>8.1} {:>8.1} {:>7.3}",
            h, diurnal[t], p.value, p.sigma
        );
    }
    println!("\n(σ̂ scales the risk term ξ = σ̂·L in the AC-RR objective: predictable");
    println!(" traffic ⇒ aggressive overbooking, erratic traffic ⇒ conservative.)");
}
