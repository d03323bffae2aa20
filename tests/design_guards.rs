//! Design invariants the compiler cannot hold, checked over the source tree:
//! one `GUARDS` row per invariant and one `DELETED` row per deleted name. A
//! new design guard is a row here. The compiler holds two more: `AcrrInstance`
//! is not `Clone` (KAC copies no instance), and every `ovnes*` crate denies
//! `unreachable_pub` (the "Public surface" row checks the attribute is there).

use std::{fs, ops::RangeBounds, path::Path};

type Tree = [(String, String)];
type Pred<'a> = &'a dyn Fn(&str) -> bool;

/// (path from the workspace root, text) of every file under `crates/*/src`
/// (not `crates/compat/*`), `tests` and `examples`, except this one.
fn tree() -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).unwrap();
    let mut dirs: Vec<_> = crates.map(|e| e.unwrap().path().join("src")).collect();
    dirs.extend([root.join("tests"), root.join("examples")]);
    let mut files = vec![];
    while let Some(dir) = dirs.pop() {
        for entry in fs::read_dir(dir).into_iter().flatten() {
            let path = entry.unwrap().path();
            let rel = path.strip_prefix(root).unwrap().display().to_string();
            if path.is_dir() {
                dirs.push(path);
            } else if rel != "tests/design_guards.rs" {
                files.push((rel, fs::read_to_string(path).unwrap()));
            }
        }
    }
    files.sort();
    files
}

/// `file:line` of each line that `hit` matches in the files `scope` names:
/// roots, in which `*` matches any one component, and the filters `*.rs`
/// (`.rs` files only), `!tests` (no test file: grep's `/tests[a-z_]*\.rs:`)
/// and `!/tests` (no path holding `/tests`).
fn grep_by(t: &Tree, scope: &str, mut hit: impl FnMut(&str) -> bool) -> Vec<String> {
    let mut found = vec![];
    for (path, text) in t.iter().filter(|(p, _)| within(p, scope)) {
        for (line, n) in text.lines().zip(1..) {
            if hit(line) {
                found.push(format!("{path}:{n}"));
            }
        }
    }
    found
}

/// `grep_by` for the lines that hold any of `any`.
fn grep(t: &Tree, scope: &str, any: &[&str]) -> Vec<String> {
    grep_by(t, scope, |l| any.iter().any(|p| l.contains(p)))
}

fn within(path: &str, scope: &str) -> bool {
    let name = path.rsplit('/').next().unwrap();
    let stem = name.len() >= 8 && name.starts_with("tests") && name.ends_with(".rs");
    let lower = |b: &u8| *b == b'_' || b.is_ascii_lowercase();
    let test = stem && name.as_bytes()[5..name.len() - 3].iter().all(lower);
    let under = |root: &str| {
        let mut parts = path.split('/');
        root.split('/').all(|r| Some(r) == parts.next() || r == "*")
    };
    let rs = !scope.contains("*.rs") || name.ends_with(".rs");
    let test = scope.contains("!tests") && test;
    let tests_dir = scope.contains("!/tests") && path.contains("/tests");
    rs && !test && !tests_dir && scope.split(' ').any(under)
}

/// `grep_by(t, f, hit)`, kept to the lines from one that `start` matches
/// through the next that opens with `}` (awk's `/start/,/^}/`).
fn inside(t: &Tree, f: &str, start: Pred, hit: Pred) -> Vec<String> {
    let mut open = false;
    grep_by(t, f, |l| {
        open |= start(l);
        let kept = open && hit(l);
        open &= !l.starts_with('}');
        kept
    })
}

/// Nothing if the number of hits is in `n`, else that number and the hits.
fn count(n: impl RangeBounds<usize>, mut hits: Vec<String>) -> Vec<String> {
    if n.contains(&hits.len()) {
        return vec![];
    }
    hits.insert(0, format!("{} matching lines", hits.len()));
    hits
}

/// `line` holds `w` between non-word characters (`grep -w`, `\bw\b`).
fn word(line: &str, w: &str) -> bool {
    let word = |c: char| c == '_' || c.is_alphanumeric();
    let free = |i: usize| !line[..i].ends_with(word) && !line[i + w.len()..].starts_with(word);
    line.match_indices(w).any(|(i, _)| free(i))
}

const SRC: &str = "crates/*/src";
const CODE: &str = "crates/*/src *.rs !tests";
const CORE: &str = "crates/core/src *.rs !tests";
const ORCH: &str = "crates/core/src/orchestrator.rs";
const LP: &str = "crates/lp/src *.rs !/tests";
const HW: &str = "crates/forecast/src/holt_winters.rs";
const LIBS: &str = "crates/*/src/lib.rs";
const DENY_UNREACHABLE_PUB: &str = "#![deny(unreachable_pub)]";
const LU: &str = "crates/lp/src/revised/lu.rs";
const KAC: &str = "crates/core/src/solver/kac.rs";
const MILP: &str = "crates/milp/src *.rs !tests";
const EXACT: &str = "crates/core/src/solver/benders.rs crates/core/src/solver/oneshot.rs \
                     crates/core/src/solver/baseline.rs crates/milp/src/lib.rs";
const TERMS: [&str; 3] = ["1.0 - alpha", "1.0 - beta", "1.0 - gamma"];
/// The lines that declare the ignored carry switch, after a `:` and blanks.
const SWITCH: [&str; 4] = [
    "pub incremental: bool,",
    "incremental: false,",
    "incremental: _,",
    "pub fn incremental(self, _on: bool) -> Self {",
];

/// A check over the tree: what breaks its invariant, nothing if it holds.
type Check = fn(&Tree) -> Vec<String>;

/// One row per invariant: the statement with its reason, and its check.
const GUARDS: &[(&str, Check)] = &[
    (
        "Ambient knobs: the one OVNES_* read is `ovnes-obs`'s `OVNES_OBS`, which chooses what is \
         recorded, never what is computed (README \"Ambient knobs\"); a second read is a knob.",
        |t| count(1..=1, grep(t, SRC, &["env::var(\"OVNES_"])),
    ),
    (
        "Structure cache: solves borrow the structure `Problem` caches; a second non-test \
         `structural_matrix()` caller puts an O(nonzeros) rebuild on a per-solve path.",
        |t| count(1..=1, grep(t, CODE, &["structural_matrix()"])),
    ),
    (
        "One engine path: `Basis` and `WarmChain` restart through `solve_state`, the one \
         non-test `Engine::new(`; a second is a solve path growing beside the chain.",
        |t| count(1..=1, grep(t, LP, &["Engine::new("])),
    ),
    (
        "One step arithmetic: `lockstep` and `first_season` call the one `fn step` (and \
         `fn blend`); a `1.0 - alpha/beta/gamma` elsewhere drifts from the oracle.",
        |t| {
            let arithmetic = |l: &str| l.starts_with("fn step(") || l.starts_with("fn blend(");
            let term = |l: &str| TERMS.iter().any(|x| l.contains(x));
            let kept = inside(t, HW, &arithmetic, &term);
            let mut bad = count(1..=1, grep_by(t, HW, |l| l.starts_with("fn step(")));
            bad.extend(count(3.., kept.clone()));
            bad.extend(
                grep(t, HW, &TERMS)
                    .into_iter()
                    .filter(|h| !kept.contains(h)),
            );
            for caller in ["fn lockstep(", "fn first_season("] {
                if inside(t, HW, &|l| l.starts_with(caller), &|l| l.contains(" step(")).is_empty() {
                    bad.push(format!("{HW}: `{caller}` calls no `step`"));
                }
            }
            bad
        },
    ),
    (
        "Public surface: every `ovnes*` crate's lib.rs (not `crates/compat`) denies \
         `unreachable_pub`, so an item is `pub` only where another crate, a test, an example \
         or the benchmark can name it, and crate-only items stay `pub(crate)`.",
        |t| {
            let libs = t.iter().filter(|(path, _)| within(path, LIBS));
            let bare = libs.filter(|(_, text)| !text.lines().any(|l| l == DENY_UNREACHABLE_PUB));
            bare.map(|(path, _)| format!("{path}: no `{DENY_UNREACHABLE_PUB}`"))
                .collect()
        },
    ),
    (
        "Flat factors: a B&B node copies its parent's factors in a few memcpys only while \
         neither `SparseLu` nor `FtState` (lu.rs, \"Storage\") holds a `Vec<Vec<_>>`.",
        |t| {
            let head = |l: &str, name| l.strip_prefix("pub ").unwrap_or(l).starts_with(name);
            let factors = |l: &str| head(l, "struct SparseLu ") || head(l, "struct FtState ");
            let mut bad = count(2..=2, inside(t, LU, &factors, &|l| head(l, "struct ")));
            bad.extend(inside(t, LU, &factors, &|l| l.contains("Vec<Vec<")));
            bad
        },
    ),
    (
        "One KAC vet loop: one strict slave per solve (kac.rs, \"Decision-identity contract\"); \
         a second `SlaveContext::new_strict(` is the old restart loop back.",
        |t| count(1..=1, grep(t, KAC, &["SlaveContext::new_strict("])),
    ),
    (
        "One admission readout: one non-test MILP decode (`Admission::decode`) and reservation \
         readout (`Allocation::from_legs`) in crates/core, and no map in kac.rs.",
        |t| {
            let after = |l: &str, a, b: &str| l.split_once(a).is_some_and(|(_, r)| r.contains(b));
            let decode = |l: &str| after(l, "value(", ") > 0.5");
            let readout = |l: &str| {
                let rows = l.split_once("reservations[");
                rows.is_some_and(|(_, r)| after(r, "][", "bs] ="))
            };
            let mut bad = count(1..=1, grep_by(t, CORE, decode));
            bad.extend(count(1..=1, grep_by(t, CORE, readout)));
            bad.extend(grep(t, KAC, &["HashMap"]));
            bad
        },
    ),
    (
        "The carry is KAC's alone: it is the KAC slave's warm chain (crates/scenario/DESIGN.md); \
         the exact solvers and the MILP engine never seed or save it.",
        |t| grep(t, EXACT, &["seed_from_carry", "save_carry"]),
    ),
    (
        "One KAC path: every KAC epoch carries; the ignored `incremental` fields and setter \
         stay for the frozen benchmark, named by their four declaring lines only.",
        |t| {
            let colon = |head: &str| matches!(head.trim_end().chars().last(), None | Some(':'));
            let declared = |l: &str| SWITCH.iter().any(|a| l.strip_suffix(a).is_some_and(colon));
            let comment = |l: &str| l.trim_start().starts_with("//");
            let ok = |l: &str| comment(l) || l.contains("incremental-") || declared(l);
            grep_by(t, "crates/*/src tests examples *.rs", |l| {
                word(l, "incremental") && !ok(l)
            })
        },
    ),
    (
        "Paper evaluation in one place: `ovnes_scenario::experiment`; crates/core has no \
         experiment or testbed module and prints nothing, and no bin re-declares a cell.",
        |t| {
            let module = |c: &str| c.starts_with("experiment") || c.starts_with("testbed");
            let named = |p: &&String| p.starts_with("crates/core/src/") && p.split('/').any(module);
            let mut bad: Vec<_> = t.iter().map(|(p, _)| p).filter(named).cloned().collect();
            let modules = |l: &str| word(l, "mod experiment") || word(l, "mod testbed");
            bad.extend(grep_by(t, "crates/core/src", modules));
            bad.extend(grep(t, "crates/core/src", &["println!"]));
            let cell = [
                "max_epochs =",
                "min_epochs =",
                "warmup_epochs =",
                "Operator::Italian { 20 }",
            ];
            bad.extend(grep(t, "crates/bench/src/bin", &cell));
            bad
        },
    ),
    (
        "One horizon loop: every experiment runs through `Orchestrator::run`, the one non-test \
         `.step()` caller in crates/*/src; a second is a hand-written epoch loop.",
        |t| count(1..=1, grep(t, CODE, &[".step()"])),
    ),
    (
        "One clock per phase: an epoch phase is timed by its phase span (`ovnes_obs::trace::phase`), \
         so orchestrator.rs reads no `Instant` of its own.",
        |t| grep(t, ORCH, &["Instant"]),
    ),
    (
        "The epoch reads as its phases: the body of `Orchestrator::step` is at most 60 lines, \
         calls of the phase functions that each open their own span.",
        |t| {
            let mut open = false;
            let body = grep_by(t, ORCH, |l| {
                let kept = open;
                open = (open || l.starts_with("    pub fn step(")) && l != "    }";
                kept && open
            });
            count(1..=60, body)
        },
    ),
    (
        "One B&B loop: `Milp::solve`'s loop makes every search decision on the calling thread, \
         so crates/milp/src (non-test) holds no `Mutex`, `Condvar`, `Atomic` or `thread::`.",
        |t| grep(t, MILP, &["Mutex", "Condvar", "Atomic", "thread::"]),
    ),
];

const SOLVER: &str = "crates/core/src/solver";
const SRC_TESTS: &str = "crates/*/src tests";
const RS: &str = "crates/*/src tests examples *.rs";

/// Names deleted on purpose: (name, the PR that deleted it, where it stays gone).
const DELETED: &[(&str, u32, &str)] = &[
    ("'attempt", 34, SOLVER),
    ("verify_chain", 34, SOLVER),
    ("extra_rounds", 34, SOLVER),
    ("last_solve_certified", 34, SOLVER),
    ("certify_unique_optimum", 34, SRC),
    ("fn remap", 35, SRC_TESTS),
    ("ColKey", 35, SRC_TESTS),
    ("RowKey", 35, SRC_TESTS),
    ("LpCarry", 35, SRC_TESTS),
    ("EpochSolver", 37, RS),
    ("IncrementalReport", 37, RS),
    ("solver::epoch", 37, RS),
    ("incremental_cold_epochs", 37, RS),
    ("--incremental", 37, RS),
    ("default_threads", 44, SRC_TESTS),
    ("default_refactor_interval", 44, SRC_TESTS),
    ("fault_injection_active", 44, SRC_TESTS),
    ("OVNES_MILP_THREADS", 44, SRC_TESTS),
    ("OVNES_LP_REFACTOR_INTERVAL", 44, SRC_TESTS),
    ("OVNES_LP_FAULT_SEED", 44, SRC_TESTS),
    ("incumbent_bits", 47, SRC_TESTS),
    ("WorkItem", 47, SRC_TESTS),
    ("SearchState", 47, SRC_TESTS),
    ("next_round", 52, SRC_TESTS),
    ("adaptive_round_width", 52, SRC_TESTS),
    ("FALLBACK_ROUND_WIDTH", 52, SRC_TESTS),
    ("MAX_ADAPTIVE_ROUND_WIDTH", 52, SRC_TESTS),
    ("run_at_1_2_4", 52, SRC_TESTS),
    ("is_optimal", 53, SRC_TESTS),
    ("mean_at", 53, SRC_TESTS),
    ("cdf_at", 53, SRC_TESTS),
    ("root_total_ns", 53, SRC_TESTS),
    ("histogram_record", 53, SRC_TESTS),
    ("global_counter_add", 53, SRC_TESTS),
    ("solve_slave", 53, SRC_TESTS),
    ("TrafficGenerator::deterministic", 53, SRC_TESTS),
    ("fn shortest(", 53, SRC_TESTS),
    ("HistSummary", 53, SRC_TESTS),
    ("solve_warm_in", 54, RS),
    ("Workspace::new", 54, RS),
    (".basis()", 54, RS),
];

#[test]
fn design_guards_hold() {
    let t = tree();
    let mut broken = String::new();
    let deleted = DELETED.iter().map(|(name, pr, scope)| {
        let stated = format!("`{name}` was deleted in PR {pr} and stays deleted.");
        (stated, grep(&t, scope, &[name]))
    });
    let guards = GUARDS
        .iter()
        .map(|(invariant, check)| (invariant.to_string(), check(&t)));
    for (what, bad) in guards.chain(deleted).filter(|(_, bad)| !bad.is_empty()) {
        broken += &format!("{what}\n  {}\n", bad.join("\n  "));
    }
    assert!(broken.is_empty(), "design guards broke:\n{broken}");
}
