//! Seeded property test of the task manager (`hipress_core::sched`):
//! one machine per node over the shipped strategies' graphs, 2–3
//! nodes, window 1–3, 1–4 iterations, with the next step — a ready
//! task runs, or an in-flight completion lands — drawn at random.
//!
//! After every step: no `(iter, task)` has run twice, no node holds
//! more iterations than its window, each node's retired count is the
//! prefix of iterations whose every task there ran, and a state with
//! nothing ready and nothing in flight has every iteration retired.

use hipress_compress::Algorithm;
use hipress_core::graph::{TaskGraph, TaskId};
use hipress_core::sched::{DepIndex, Machine};
use hipress_core::{
    ClusterConfig, CompressionSpec, GradPlan, IterationSpec, Strategy, SyncGradient,
};
use hipress_util::rng::{Rng64, Xoshiro256};
use std::collections::HashSet;

/// Two gradients of `parts` partitions each, compressed or not.
fn graph(strategy: Strategy, nodes: usize, parts: usize, compressed: bool) -> TaskGraph {
    let compression =
        compressed.then(|| CompressionSpec::of(Algorithm::OneBit.build().unwrap().as_ref()));
    let iter = IterationSpec {
        gradients: [96u64, 40]
            .iter()
            .enumerate()
            .map(|(i, &elems)| SyncGradient {
                name: format!("g{i}"),
                bytes: elems * 4,
                ready_offset_ns: i as u64 * 1_000,
                plan: GradPlan {
                    compress: true,
                    partitions: parts,
                },
            })
            .collect(),
        compression,
    };
    strategy.build(&ClusterConfig::ec2(nodes), &iter).unwrap()
}

/// The item a completion of `task` in `iter` carries: the stash must
/// hand back exactly this one.
fn tag(iter: u32, task: TaskId) -> u64 {
    u64::from(iter) << 32 | u64::from(task.0)
}

/// One node: its machine, its ready tasks, what ran and how many of its
/// tasks ran per iteration.
struct Node {
    machine: Machine<u64>,
    admitted: u32,
    ready: Vec<(u32, TaskId)>,
    ran: HashSet<(u32, TaskId)>,
    finished: Vec<usize>,
}

impl Node {
    /// Admits while the window has room, replaying stashed arrivals.
    fn admit(&mut self, ix: &DepIndex, me: usize) {
        while let Some((iter, stashed)) = self.machine.admit(ix) {
            let roots = ix.tasks_of(me).filter(|&t| ix.indeg(t) == 0);
            self.ready.extend(roots.map(|t| (iter, t)));
            self.admitted = iter + 1;
            for (task, item) in stashed {
                assert_eq!(item, tag(iter, task), "stash swapped an item");
                let ready = &mut self.ready;
                self.machine
                    .release(ix, iter, task, |t| ready.push((iter, t)));
            }
        }
    }
}

/// Runs `iterations` of `graph` on its nodes at `window`, every step
/// drawn from `rng`, checking the properties after each.
fn explore(graph: &TaskGraph, nodes: usize, iterations: u32, window: u32, rng: &mut Xoshiro256) {
    let ix = DepIndex::of(graph);
    let mut cluster: Vec<Node> = (0..nodes)
        .map(|me| Node {
            machine: Machine::new(&ix, me, iterations, window),
            admitted: 0,
            ready: Vec::new(),
            ran: HashSet::new(),
            finished: vec![0; iterations as usize],
        })
        .collect();
    for (me, node) in cluster.iter_mut().enumerate() {
        node.admit(&ix, me);
    }
    // (to, iter, task): completions on their way.
    let mut in_flight: Vec<(usize, u32, TaskId)> = Vec::new();
    loop {
        for (me, node) in cluster.iter().enumerate() {
            let retired = node.machine.retired();
            assert!(
                node.admitted <= iterations && node.admitted - retired <= window,
                "node {me} admitted {} with {retired} retired at window {window}",
                node.admitted
            );
            let count = ix.tasks_of(me).count();
            let prefix = node.finished.iter().take_while(|&&n| n == count).count();
            assert_eq!(
                retired as usize, prefix,
                "node {me}: retired is not a prefix"
            );
        }
        let ready: usize = cluster.iter().map(|n| n.ready.len()).sum();
        let choices = ready + in_flight.len();
        if choices == 0 {
            for (me, node) in cluster.iter().enumerate() {
                assert_eq!(
                    node.machine.retired(),
                    iterations,
                    "every node idle with node {me} unretired"
                );
                assert_eq!(
                    node.ran.len(),
                    ix.tasks_of(me).count() * iterations as usize
                );
            }
            return;
        }
        let mut pick = rng.next_below(choices as u64) as usize;
        if pick < ready {
            let me = cluster
                .iter()
                .position(|n| {
                    let here = pick < n.ready.len();
                    if !here {
                        pick -= n.ready.len();
                    }
                    here
                })
                .expect("a node holds the pick");
            let node = &mut cluster[me];
            let (iter, task) = node.ready.swap_remove(pick);
            assert_eq!(ix.owner(task), me, "{task:?} promoted on the wrong node");
            assert!(
                node.ran.insert((iter, task)),
                "{task:?} of {iter} ran twice"
            );
            node.finished[iter as usize] += 1;
            let ready = &mut node.ready;
            node.machine
                .release(&ix, iter, task, |t| ready.push((iter, t)));
            let last = node.machine.done(iter);
            assert_eq!(
                last,
                node.finished[iter as usize] == ix.tasks_of(me).count()
            );
            in_flight.extend(ix.notify(task).iter().map(|&to| (to, iter, task)));
            if last {
                node.admit(&ix, me);
            }
        } else {
            let (to, iter, task) = in_flight.swap_remove(pick - ready);
            let node = &mut cluster[to];
            if let Some(item) = node.machine.arrive(iter, task, tag(iter, task)) {
                assert_eq!(item, tag(iter, task));
                let ready = &mut node.ready;
                node.machine
                    .release(&ix, iter, task, |t| ready.push((iter, t)));
            }
        }
    }
}

#[test]
fn machines_run_every_task_once_within_the_window_and_retire_in_order() {
    let mut rng = Xoshiro256::new(0x5ced_2021);
    for strategy in Strategy::all() {
        for nodes in [2, 3] {
            for (parts, compressed) in [(1, false), (2, true)] {
                let g = graph(strategy, nodes, parts, compressed);
                for window in 1..=3 {
                    for iterations in 1..=4 {
                        for _ in 0..4 {
                            explore(&g, nodes, iterations, window, &mut rng);
                        }
                    }
                }
            }
        }
    }
}
