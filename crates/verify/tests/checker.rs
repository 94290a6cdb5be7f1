//! End-to-end tests of the bounded model checker: the unmutated
//! matrix must exhaust clean (zero false positives), the sleep-set
//! reduction must demonstrably prune without changing any verdict,
//! and every seeded protocol defect must be refuted on every
//! configuration where it can physically manifest — and *only*
//! there.

use hipress_verify::{
    check_config, check_elastic, elastic_matrix, matrix, ElasticConfig, ElasticMutation, Failure,
    Mutation, Outcome, Violation,
};
use std::fmt::Display;

#[test]
fn unmutated_matrix_is_clean() {
    for s in matrix() {
        let out = check_config(&s.cfg, None, true);
        assert!(
            out.clean(),
            "{}: unmutated protocol violated {:?}",
            s.name,
            out.violation
        );
        assert!(out.stats.states > 1, "{}: did not explore", s.name);
        assert!(
            out.stats.terminals >= 1,
            "{}: no execution reached a terminal",
            s.name
        );
    }
}

/// The reduction is sound (every reachable state is still visited —
/// state and terminal counts match with it on and off, and so does
/// the verdict) on all 22 scenarios of both models. It is effective
/// on every 3-node wire scenario, where actions on disjoint channel
/// pairs commute, and on every scenario with a crash: the wire crash
/// commutes with traffic not touching the victim's local state, and
/// elastic zombie deliveries commute with advances and halts.
/// Two-node wire scenarios share their single channel pair across all
/// actions, so nothing is independent and nothing may be pruned.
#[test]
fn reduction_prunes_without_changing_verdicts() {
    for s in matrix() {
        let with = check_config(&s.cfg, None, true);
        let without = check_config(&s.cfg, None, false);
        let reduces = s.cfg.nodes >= 3 || s.cfg.crash.is_some();
        assert_reduction_sound(s.name, &with, &without, reduces);
    }
    for s in elastic_matrix() {
        let with = check_elastic(&s.cfg, None, true);
        let without = check_elastic(&s.cfg, None, false);
        assert_reduction_sound(s.name, &with, &without, s.cfg.crash.is_some());
        // Seeded defects are refuted with the same verdict either way.
        for m in ElasticMutation::ALL {
            assert_eq!(
                verdict(&check_elastic(&s.cfg, Some(m), true)),
                verdict(&check_elastic(&s.cfg, Some(m), false)),
                "{} on {}: the reduction changed the verdict",
                m.name(),
                s.name
            );
        }
    }
    let widest = elastic_matrix().pop().expect("el-4n-crash-w2");
    let reduced = check_elastic(&widest.cfg, None, true).stats;
    assert!(
        reduced.transitions < 11_735,
        "{}: {} transitions, no fewer than the unreduced explorer's 11,735",
        widest.name,
        reduced.transitions
    );
}

fn assert_reduction_sound<V: Display>(
    name: &str,
    with: &Outcome<V>,
    without: &Outcome<V>,
    reduces: bool,
) {
    let (w, wo) = (with.stats, without.stats);
    assert_eq!(
        w.states, wo.states,
        "{name}: reduction changed the set of reachable states"
    );
    assert_eq!(
        w.terminals, wo.terminals,
        "{name}: reduction changed the terminal count"
    );
    assert!(with.clean() && without.clean(), "{name}: verdict flipped");
    assert!(
        w.transitions <= wo.transitions,
        "{name}: reduction explored more transitions ({} > {})",
        w.transitions,
        wo.transitions
    );
    if reduces {
        assert!(
            w.pruned > 0 && w.transitions < wo.transitions,
            "{name}: reduction had no effect"
        );
    } else {
        assert_eq!(w.pruned, 0, "{name}: pruned where nothing commutes");
    }
}

/// A scenario's verdict as `hipress verify` prints it.
fn verdict<V: Display>(out: &Outcome<V>) -> String {
    out.violation
        .as_ref()
        .map_or_else(|| "exhausted clean".into(), |(v, _)| v.to_string())
}

/// Statistics count every transition taken, the refuting one
/// included: a counterexample of `k` steps means at least `k`
/// transitions, in both models.
#[test]
fn every_refuted_run_counts_its_counterexample_steps() {
    fn check<V>(what: String, out: Outcome<V>) {
        if let Some((_, trace)) = &out.violation {
            let steps = trace.len() - 1;
            assert!(
                out.stats.transitions >= steps,
                "{what}: {} transitions counted beside a {steps}-step counterexample",
                out.stats.transitions
            );
        }
    }
    for s in matrix() {
        for m in Mutation::ALL {
            check(
                format!("{} on {}", m.name(), s.name),
                check_config(&s.cfg, Some(m), true),
            );
        }
    }
    for s in elastic_matrix() {
        for m in ElasticMutation::ALL {
            for por in [true, false] {
                check(
                    format!("{} on {} (por {por})", m.name(), s.name),
                    check_elastic(&s.cfg, Some(m), por),
                );
            }
        }
    }
}

/// The violation each defect class must surface as.
fn expected(m: Mutation, v: &Failure<Violation>) -> bool {
    let Failure::Property(v) = v else {
        return false;
    };
    matches!(
        (m, v),
        (Mutation::SkipDedup, Violation::DuplicateApply { .. })
            | (Mutation::DedupBeforeVerify, Violation::CorruptMissed { .. })
            | (Mutation::ApplyBeforeVerify, Violation::CorruptMissed { .. })
            | (
                Mutation::RetryWithoutBound,
                Violation::UnboundedRetry { .. }
            )
            | (Mutation::DropHeartbeat, Violation::Deadlock { .. })
            | (Mutation::ForgetRescale, Violation::MissingRescale { .. })
    )
}

/// The full defect sweep: 6 mutations × 16 scenarios. On every
/// eligible cell the checker must produce a counterexample of the
/// defect's signature violation; on every ineligible cell the
/// (present but latent) defect must stay silent — a report there
/// would be a false positive.
#[test]
fn every_defect_is_refuted_exactly_where_it_can_manifest() {
    let mut eligible_cells = 0usize;
    for m in Mutation::ALL {
        for s in matrix() {
            let out = check_config(&s.cfg, Some(m), true);
            if m.eligible(&s.cfg) {
                eligible_cells += 1;
                let Some((v, trace)) = &out.violation else {
                    panic!("{} on {}: defect not detected", m.name(), s.name);
                };
                assert!(
                    expected(m, v),
                    "{} on {}: wrong violation kind {v}",
                    m.name(),
                    s.name
                );
                assert!(
                    !trace.is_empty() && trace.last().unwrap().starts_with("=>"),
                    "{} on {}: counterexample lacks a trace",
                    m.name(),
                    s.name
                );
            } else {
                assert!(
                    out.clean(),
                    "{} on {}: false positive {:?}",
                    m.name(),
                    s.name,
                    out.violation
                );
            }
        }
    }
    // The detection floor: every defect class manifests on multiple
    // configurations. Grows only deliberately, never shrinks.
    assert_eq!(
        eligible_cells, 23,
        "eligible mutation×scenario cells drifted"
    );
}

/// Same configuration, same exploration: the checker is
/// deterministic, so CI failures reproduce locally.
#[test]
fn exploration_is_deterministic() {
    for s in matrix().into_iter().take(4) {
        let a = check_config(&s.cfg, None, true);
        let b = check_config(&s.cfg, None, true);
        assert_eq!(a.stats, b.stats, "{}: stats differ across runs", s.name);
    }
    let s = &matrix()[2]; // 2n-drop, SkipDedup-eligible
    let a = check_config(&s.cfg, Some(Mutation::SkipDedup), true);
    let b = check_config(&s.cfg, Some(Mutation::SkipDedup), true);
    let (va, ta) = a.violation.expect("detects");
    let (vb, tb) = b.violation.expect("detects");
    assert_eq!(format!("{va}"), format!("{vb}"));
    assert_eq!(ta, tb, "counterexample traces differ across runs");
}

/// CLI names round-trip, so `hipress verify --mutant <name>` can
/// name every defect class.
#[test]
fn mutation_names_round_trip() {
    for m in Mutation::ALL {
        assert_eq!(Mutation::from_name(m.name()), Some(m));
    }
    assert_eq!(Mutation::from_name("no-such-defect"), None);
}

/// One wire cell of the `hipress verify` table: `(states,
/// transitions, pruned, terminals)` and its verdict.
fn wire_cell(cfg: &hipress_verify::Config, m: Option<Mutation>) -> ([usize; 4], String) {
    let out = check_config(cfg, m, true);
    let s = out.stats;
    (
        [s.states, s.transitions, s.pruned, s.terminals],
        verdict(&out),
    )
}

/// One elastic cell: `(states, terminals)` and its verdict. The
/// transition column is left out on purpose: it moves with the
/// sleep-set reduction.
fn elastic_cell(cfg: &ElasticConfig, m: Option<ElasticMutation>) -> ([usize; 2], String) {
    let out = check_elastic(cfg, m, true);
    ([out.stats.states, out.stats.terminals], verdict(&out))
}

/// The wire matrix's exploration, row by row.
const WIRE_TABLE: [(&str, [usize; 4]); 16] = [
    ("2n-clean-w1", [16, 24, 0, 1]),
    ("2n-clean-w2", [169, 468, 0, 1]),
    ("2n-drop", [145, 300, 0, 3]),
    ("2n-dup-w2", [1199, 4484, 0, 2]),
    ("2n-flip", [55, 94, 0, 2]),
    ("2n-dup-flip", [493, 1408, 0, 3]),
    ("2n-drop-flip", [239, 536, 0, 3]),
    ("2n-drop-dup-w2", [14313, 65384, 0, 3]),
    ("3n-drop", [38183, 171899, 275255, 2]),
    ("3n-gather-w2", [169, 412, 257, 1]),
    ("3n-gather-drop-w2", [1199, 3370, 2452, 2]),
    ("2n-crash-wait", [133, 188, 12, 18]),
    ("2n-crash-partial", [119, 173, 12, 11]),
    ("3n-gather-crash-partial", [52, 63, 39, 4]),
    ("3n-gather-crash-wait", [198, 308, 154, 16]),
    ("3n-gather-crash-w2", [884, 1885, 1505, 13]),
];

/// The elastic matrix's `(states, terminals)`, row by row.
const ELASTIC_TABLE: [(&str, [usize; 2]); 6] = [
    ("el-2n-clean", [15, 1]),
    ("el-3n-crash-early", [144, 8]),
    ("el-3n-crash-mid-w2", [375, 16]),
    ("el-3n-crash-last", [190, 12]),
    ("el-3n-crash-rejoin", [411, 24]),
    ("el-4n-crash-w2", [3705, 32]),
];

/// Every refuted (mutant, scenario) cell and its verdict, over the
/// mutant's own matrix; every cell not listed must stay clean.
const REFUTED: [(&str, &[(&str, &str)]); 10] = [
    (
        "skip-dedup",
        &[
            ("2n-drop", "node 0 applied seq 0 from 1 twice"),
            ("2n-dup-w2", "node 0 applied seq 1 from 1 twice"),
            ("2n-dup-flip", "node 0 applied seq 0 from 1 twice"),
            ("2n-drop-flip", "node 0 applied seq 0 from 1 twice"),
            ("2n-drop-dup-w2", "node 0 applied seq 1 from 1 twice"),
            ("3n-drop", "node 1 applied seq 0 from 2 twice"),
            ("3n-gather-drop-w2", "node 0 applied seq 1 from 2 twice"),
        ],
    ),
    (
        "dedup-before-verify",
        &[
            (
                "2n-dup-flip",
                "node 0 accepted corrupted seq 0 from 1 without detecting it",
            ),
            (
                "2n-drop-flip",
                "node 0 accepted corrupted seq 0 from 1 without detecting it",
            ),
        ],
    ),
    (
        "apply-before-verify",
        &[
            (
                "2n-flip",
                "node 0 accepted corrupted seq 0 from 1 without detecting it",
            ),
            (
                "2n-dup-flip",
                "node 0 accepted corrupted seq 0 from 1 without detecting it",
            ),
            (
                "2n-drop-flip",
                "node 0 accepted corrupted seq 0 from 1 without detecting it",
            ),
        ],
    ),
    (
        "retry-without-bound",
        &[
            (
                "2n-crash-wait",
                "node 0 transmitted to 1 3 times, past the retry budget",
            ),
            (
                "2n-crash-partial",
                "node 0 transmitted to 1 3 times, past the retry budget",
            ),
            (
                "3n-gather-crash-wait",
                "node 1 transmitted to 0 3 times, past the retry budget",
            ),
        ],
    ),
    (
        "drop-heartbeat",
        &[
            (
                "2n-crash-wait",
                "deadlock: node 0 is stuck, not done and not failed",
            ),
            (
                "2n-crash-partial",
                "deadlock: node 0 is stuck, not done and not failed",
            ),
            (
                "3n-gather-crash-partial",
                "deadlock: node 0 is stuck, not done and not failed",
            ),
            (
                "3n-gather-crash-wait",
                "deadlock: node 0 is stuck, not done and not failed",
            ),
            (
                "3n-gather-crash-w2",
                "deadlock: node 0 is stuck, not done and not failed",
            ),
        ],
    ),
    (
        "forget-rescale",
        &[
            (
                "2n-crash-partial",
                "node 0 finished with degrade holes but an unrescaled merge",
            ),
            (
                "3n-gather-crash-partial",
                "node 0 finished with degrade holes but an unrescaled merge",
            ),
            (
                "3n-gather-crash-w2",
                "node 0 finished with degrade holes but an unrescaled merge",
            ),
        ],
    ),
    (
        "skip-drain",
        &[
            (
                "el-3n-crash-early",
                "iteration 0 committed but node 2 never executed it",
            ),
            (
                "el-3n-crash-mid-w2",
                "iteration 2 committed but node 1 never executed it",
            ),
            (
                "el-3n-crash-last",
                "iteration 2 committed but node 2 never executed it",
            ),
            (
                "el-3n-crash-rejoin",
                "iteration 1 committed but node 2 never executed it",
            ),
            (
                "el-4n-crash-w2",
                "iteration 2 committed but node 2 never executed it",
            ),
        ],
    ),
    (
        "accept-stale-epoch",
        &[
            (
                "el-3n-crash-early",
                "node 2 applied a frame from dead epoch 0 at epoch 1",
            ),
            (
                "el-3n-crash-mid-w2",
                "node 1 applied a frame from dead epoch 0 at epoch 1",
            ),
            (
                "el-3n-crash-last",
                "node 2 applied a frame from dead epoch 0 at epoch 1",
            ),
            (
                "el-3n-crash-rejoin",
                "node 2 applied a frame from dead epoch 0 at epoch 1",
            ),
            (
                "el-4n-crash-w2",
                "node 2 applied a frame from dead epoch 0 at epoch 1",
            ),
        ],
    ),
    (
        "reuse-dead-owner",
        &[
            (
                "el-3n-crash-early",
                "deadlock at epoch 1: no transition enabled",
            ),
            (
                "el-3n-crash-mid-w2",
                "deadlock at epoch 1: no transition enabled",
            ),
            (
                "el-3n-crash-last",
                "deadlock at epoch 1: no transition enabled",
            ),
            (
                "el-3n-crash-rejoin",
                "deadlock at epoch 1: no transition enabled",
            ),
            (
                "el-4n-crash-w2",
                "deadlock at epoch 1: no transition enabled",
            ),
        ],
    ),
    (
        "admit-future-join",
        &[(
            "el-3n-crash-rejoin",
            "join claiming future epoch 2 admitted at epoch 1",
        )],
    ),
];

/// The exploration table `hipress verify` prints is pinned: a change
/// to either model or to the explorer that moves a state count, a
/// terminal count or (for the wire matrix) the reduction's work
/// shows here, row by row.
#[test]
fn exploration_matches_the_pinned_table() {
    let wire = matrix();
    assert_eq!(wire.len(), WIRE_TABLE.len());
    let mut sums = [0usize; 3];
    for (s, (name, golden)) in wire.iter().zip(WIRE_TABLE) {
        assert_eq!(s.name, name);
        let (row, verdict) = wire_cell(&s.cfg, None);
        assert_eq!(
            row, golden,
            "{name}: (states, transitions, pruned, terminals)"
        );
        assert_eq!(verdict, "exhausted clean", "{name}");
        for (sum, v) in sums.iter_mut().zip(row) {
            *sum += v;
        }
    }
    assert_eq!(sums, [57_566, 250_996, 279_686]);
    let elastic = elastic_matrix();
    assert_eq!(elastic.len(), ELASTIC_TABLE.len());
    for (s, (name, golden)) in elastic.iter().zip(ELASTIC_TABLE) {
        assert_eq!(s.name, name);
        let (row, verdict) = elastic_cell(&s.cfg, None);
        assert_eq!(row, golden, "{name}: (states, terminals)");
        assert_eq!(verdict, "exhausted clean", "{name}");
    }
}

/// Every (mutant, scenario) verdict is pinned, refuted cells by
/// their exact violation text and all others as clean.
#[test]
fn every_mutant_verdict_matches_the_pinned_table() {
    for (mutant, refuted) in REFUTED {
        let verdict_of = |scenario: &str| {
            refuted
                .iter()
                .find(|(s, _)| *s == scenario)
                .map_or("exhausted clean", |(_, v)| *v)
        };
        let mut cells = 0;
        if let Some(m) = Mutation::from_name(mutant) {
            for s in matrix() {
                let (_, verdict) = wire_cell(&s.cfg, Some(m));
                assert_eq!(verdict, verdict_of(s.name), "{mutant} on {}", s.name);
                cells += 1;
            }
        } else {
            let m = ElasticMutation::from_name(mutant).expect("a known mutant");
            for s in elastic_matrix() {
                let (_, verdict) = elastic_cell(&s.cfg, Some(m));
                assert_eq!(verdict, verdict_of(s.name), "{mutant} on {}", s.name);
                cells += 1;
            }
        }
        assert!(
            cells >= refuted.len(),
            "{mutant}: pinned cells outside its matrix"
        );
    }
}
