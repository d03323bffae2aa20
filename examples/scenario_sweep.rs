//! The default scenario sweep: eight named city-scale workloads (all
//! three operators, a flash crowd, a 10× overload, the §5 testbed day,
//! and the overbooking on/off ablation pair on N1) fanned across parallel
//! sweep workers, with the bit-identical-report guarantee checked live.
//!
//! Run with: `cargo run --release --example scenario_sweep`
//!
//! * `--smoke` — one short preset per operator instead of the full sweep
//!   (the CI smoke leg).
//! * `--chaos` — the fault-injection suite instead of the full sweep: the
//!   outage storm, the starved solve budget, LP warm-path fault
//!   injection, and the carry-under-chaos run (the CI chaos-smoke
//!   leg). The run must complete with zero panics, apply infrastructure
//!   events, degrade epochs, evict slices, and stay bit-identical across
//!   worker counts.
//! * `--workers N` — parallel sweep workers for the second pass
//!   (default 4; the first pass is always serial for the comparison).
//! * `--trace-out DIR` — force observability on and write the merged
//!   span trace to `DIR/journal.jsonl` (one JSON event per span) and
//!   `DIR/folded.txt` (flamegraph.pl folded stacks). The run asserts
//!   that span totals account for at least 80% of the measured horizon
//!   wall-clock, so the trace is a faithful breakdown rather than a
//!   sample.

use ovnes_scenario::presets;
use ovnes_scenario::sweep::run_sweep;
use ovnes_topology::operators::Operator;

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let workers: usize = arg_value("--workers")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let trace_out = arg_value("--trace-out").map(std::path::PathBuf::from);
    if trace_out.is_some() {
        // Tracing must see every epoch, so flip the switch before the
        // first sweep runs (this overrides OVNES_OBS for the process).
        ovnes_obs::set_enabled(true);
    }

    let (specs, label): (Vec<_>, _) = if chaos {
        (presets::chaos_sweep(), "chaos sweep")
    } else if smoke {
        (
            Operator::all().into_iter().map(presets::smoke).collect(),
            "smoke sweep",
        )
    } else {
        (presets::default_sweep(), "default sweep")
    };
    println!("{label}: {} scenarios\n", specs.len());

    let serial = run_sweep(&specs, 1).expect("serial sweep");
    let parallel = run_sweep(&specs, workers).expect("parallel sweep");

    print!("{}", parallel.render());
    println!(
        "\nwall-clock: serial {:.2}s, {} workers {:.2}s ({:.2}x)",
        serial.wall_seconds,
        parallel.workers,
        parallel.wall_seconds,
        serial.wall_seconds / parallel.wall_seconds.max(1e-9),
    );

    let identical = serial.fingerprint() == parallel.fingerprint();
    println!(
        "deterministic across worker counts: {} ({:#018x})",
        identical,
        parallel.fingerprint()
    );
    assert!(
        identical,
        "sweep reports diverged between 1 and {} workers",
        parallel.workers
    );

    if chaos {
        // The chaos leg must prove the storm bites, not just that the
        // binary exits 0.
        assert!(
            parallel.total_infra_events > 0,
            "chaos sweep applied no infrastructure events"
        );
        assert!(
            parallel.total_degraded_epochs > 0,
            "chaos sweep never degraded an epoch — the budgets did not bind"
        );
        assert!(
            parallel.total_evictions > 0,
            "chaos sweep evicted no slices — the revalidation path went unexercised"
        );
        println!(
            "chaos: {} infra events, {} degraded epochs, {} evictions — all gates passed",
            parallel.total_infra_events, parallel.total_degraded_epochs, parallel.total_evictions,
        );
    }

    if let Some(dir) = trace_out {
        // Horizon wall-clock actually traced, for the coverage gate below:
        // every scenario run in this process contributes spans.
        let traced_wall_seconds: f64 = serial
            .scenarios
            .iter()
            .chain(parallel.scenarios.iter())
            .map(|s| s.wall_seconds)
            .sum();
        let trace = ovnes_obs::trace::drain();
        assert!(
            !trace.is_empty(),
            "--trace-out produced an empty trace — spans were never recorded"
        );
        std::fs::create_dir_all(&dir).expect("create trace dir");

        let journal_path = dir.join("journal.jsonl");
        let mut journal =
            std::io::BufWriter::new(std::fs::File::create(&journal_path).expect("create journal"));
        trace.write_journal(&mut journal).expect("write journal");
        std::io::Write::flush(&mut journal).expect("flush journal");

        let folded_path = dir.join("folded.txt");
        let mut folded =
            std::io::BufWriter::new(std::fs::File::create(&folded_path).expect("create folded"));
        trace.write_folded(&mut folded).expect("write folded");
        std::io::Write::flush(&mut folded).expect("flush folded");

        // The trace must be a faithful breakdown of where the horizon
        // went, not a sample: the `scenario` root span has to cover at
        // least 80% of the wall-clock the scenario drivers measured.
        let coverage = trace.total_ns("scenario") as f64 / (traced_wall_seconds * 1e9).max(1.0);
        println!(
            "\ntrace: coverage {:.1}% of {:.2}s measured horizon wall-clock \
             (journal: {}, folded: {})",
            100.0 * coverage,
            traced_wall_seconds,
            journal_path.display(),
            folded_path.display(),
        );
        assert!(
            coverage >= 0.80,
            "span totals cover only {:.1}% of the measured horizon wall-clock",
            100.0 * coverage
        );
    }
}
