//! The task manager's rule (§3.1, Figure 2), once: a task is promoted
//! when its last pending edge clears, and a node holds at most
//! `window` iterations in flight. CaSync-RT's node loop and the
//! simulator ([`crate::exec`]) drive a [`Machine`] per node; which
//! promoted task runs when stays theirs.

use crate::graph::{TaskGraph, TaskId};
use std::collections::{BTreeMap, VecDeque};

/// A graph's static dependency index, indexed by [`TaskId`]: each
/// task's node, its dependency edges (a repeated dependency is two),
/// its dependents on any node (ascending, one per edge) and the other
/// nodes hosting them, which its completion is shipped to.
#[derive(Debug, Clone)]
pub struct DepIndex {
    owner: Vec<usize>,
    indeg: Vec<u32>,
    succ: Vec<Vec<TaskId>>,
    notify: Vec<Vec<usize>>,
}

impl DepIndex {
    /// Derives the index of `graph`, whose dependencies must all name
    /// its tasks ([`TaskGraph::topo_order`] checks).
    pub fn of(graph: &TaskGraph) -> Self {
        let n = graph.len();
        let mut ix = Self {
            owner: graph.tasks().iter().map(|t| t.node).collect(),
            indeg: graph.tasks().iter().map(|t| t.deps.len() as u32).collect(),
            succ: vec![Vec::new(); n],
            notify: vec![Vec::new(); n],
        };
        for (i, t) in graph.tasks().iter().enumerate() {
            for d in t.deps.iter().map(|d| d.0 as usize) {
                ix.succ[d].push(TaskId(i as u32));
                if ix.owner[d] != t.node && !ix.notify[d].contains(&t.node) {
                    ix.notify[d].push(t.node);
                }
            }
        }
        ix
    }

    /// The node that runs `t`.
    pub fn owner(&self, t: TaskId) -> usize {
        self.owner[t.0 as usize]
    }

    /// How many dependency edges `t` waits on.
    pub fn indeg(&self, t: TaskId) -> u32 {
        self.indeg[t.0 as usize]
    }

    /// The tasks that depend on `t`, on any node.
    pub fn dependents(&self, t: TaskId) -> &[TaskId] {
        &self.succ[t.0 as usize]
    }

    /// The other nodes hosting dependents of `t`.
    pub fn notify(&self, t: TaskId) -> &[usize] {
        &self.notify[t.0 as usize]
    }

    /// `node`'s tasks, ascending.
    pub fn tasks_of(&self, node: usize) -> impl Iterator<Item = TaskId> + '_ {
        let ids = (0..self.owner.len() as u32).map(TaskId);
        ids.filter(move |&t| self.owner(t) == node)
    }

    /// Kahn's order, the one every caller shares: the dependency-free
    /// tasks ascending, then each as its last edge clears, first in
    /// first out. Errs with the tasks a cycle leaves stuck.
    pub fn kahn(&self) -> Result<Vec<TaskId>, Vec<TaskId>> {
        let mut left = self.indeg.clone();
        let ids = (0..left.len() as u32).map(TaskId);
        let mut order: Vec<TaskId> = ids.clone().filter(|&t| self.indeg(t) == 0).collect();
        let mut next = 0;
        while let Some(&t) = order.get(next) {
            next += 1;
            for &s in self.dependents(t) {
                left[s.0 as usize] -= 1;
                if left[s.0 as usize] == 0 {
                    order.push(s);
                }
            }
        }
        match order.len() == left.len() {
            true => Ok(order),
            false => Err(ids.filter(|t| left[t.0 as usize] > 0).collect()),
        }
    }
}

/// One node's task manager over `(iteration, task)`: pending edge
/// counts, window admission, a stash of completions that arrive before
/// their iteration, and in-order retirement. No I/O, no clock; a
/// stashed item `P` (CaSync-RT's payload) is never looked into.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Machine<P> {
    node: usize,
    /// The node's tasks per iteration.
    tasks: u32,
    iterations: u32,
    window: u32,
    admitted: u32,
    /// The unretired iterations, oldest first: pending counts per task
    /// of the graph (this node's are read), and tasks left.
    live: VecDeque<(Vec<u32>, u32)>,
    stash: BTreeMap<u32, Vec<(TaskId, P)>>,
}

impl<P> Machine<P> {
    /// `node`'s machine for `iterations` at `window`; none admitted.
    pub fn new(ix: &DepIndex, node: usize, iterations: u32, window: u32) -> Self {
        Self {
            node,
            tasks: ix.tasks_of(node).count() as u32,
            iterations,
            window,
            admitted: 0,
            live: VecDeque::new(),
            stash: BTreeMap::new(),
        }
    }

    /// The retired prefix: every iteration below it finished all its
    /// tasks here.
    pub fn retired(&self) -> u32 {
        self.admitted - self.live.len() as u32
    }

    /// Admits the next iteration if the window has room, with the
    /// completions stashed for it (to take in, as [`Machine::arrive`]
    /// hands them back). Its first ready tasks are this node's with no
    /// dependency.
    pub fn admit(&mut self, ix: &DepIndex) -> Option<(u32, Vec<(TaskId, P)>)> {
        let iter = self.admitted;
        if iter >= self.iterations || iter >= self.retired() + self.window {
            return None;
        }
        self.admitted += 1;
        self.live.push_back((ix.indeg.clone(), self.tasks));
        Some((iter, self.stash.remove(&iter).unwrap_or_default()))
    }

    /// The completion of remote `task` of `iter` arrived with `item`:
    /// stashed until `iter` is admitted, dropped once it retired, else
    /// handed back for the caller to take in and [`Machine::release`].
    pub fn arrive(&mut self, iter: u32, task: TaskId, item: P) -> Option<P> {
        if iter < self.admitted {
            return (iter >= self.retired()).then_some(item);
        }
        self.stash.entry(iter).or_default().push((task, item));
        None
    }

    /// Clears the edges `t` of `iter` holds on this node's tasks,
    /// handing each it promotes to `ready`: a remote `t` when its
    /// completion is taken in, a local one when it finishes (then
    /// [`Machine::done`]).
    pub fn release(&mut self, ix: &DepIndex, iter: u32, t: TaskId, mut ready: impl FnMut(TaskId)) {
        for &d in ix.dependents(t) {
            if ix.owner(d) == self.node && self.clear(iter, d) {
                ready(d);
            }
        }
    }

    /// Clears one pending edge of this node's `task` of `iter`; true
    /// when it was the last, so `task` is promoted.
    pub fn clear(&mut self, iter: u32, task: TaskId) -> bool {
        let n = &mut self.slot(iter).0[task.0 as usize];
        *n -= 1;
        *n == 0
    }

    /// Counts a task of `iter` finished here; true when it was the
    /// iteration's last. Retires the finished prefix.
    pub fn done(&mut self, iter: u32) -> bool {
        let left = &mut self.slot(iter).1;
        *left -= 1;
        let last = *left == 0;
        while self.live.front().is_some_and(|s| s.1 == 0) {
            self.live.pop_front();
        }
        last
    }

    fn slot(&mut self, iter: u32) -> &mut (Vec<u32>, u32) {
        let i = iter - self.retired();
        &mut self.live[i as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{task, ChunkId, Primitive, TaskNode};

    /// Node 0: `a`, then `b` and `c` after `a`; node 1: `d` after `b`
    /// and `a`.
    fn fork() -> TaskGraph {
        let chunk = ChunkId { grad: 0, part: 0 };
        let mut g = TaskGraph::new();
        let after = |node, deps: &[u32]| TaskNode {
            deps: deps.iter().map(|&d| TaskId(d)).collect(),
            ..task(node, Primitive::Merge, chunk)
        };
        for (node, deps) in [(0, &[][..]), (0, &[0]), (0, &[0]), (1, &[1, 0])] {
            g.add(after(node, deps));
        }
        g
    }

    #[test]
    fn the_index_splits_local_and_remote_edges() {
        let ix = DepIndex::of(&fork());
        let t = TaskId;
        assert_eq!(ix.dependents(t(0)), &[t(1), t(2), t(3)]);
        assert_eq!((ix.notify(t(0)), ix.notify(t(2))), (&[1][..], &[][..]));
        assert_eq!(ix.tasks_of(1).collect::<Vec<_>>(), [t(3)]);
        assert_eq!(ix.kahn(), Ok(vec![t(0), t(1), t(2), t(3)]));
        let mut g = fork();
        g.task_mut(t(1)).deps.push(t(3));
        assert_eq!(DepIndex::of(&g).kahn(), Err(vec![t(1), t(3)]));
    }

    /// Completions for an iteration not yet admitted wait in the stash;
    /// the window holds admission until the oldest iteration retires.
    #[test]
    fn the_window_holds_admission_and_the_stash_holds_arrivals() {
        let ix = DepIndex::of(&fork());
        let mut m: Machine<&str> = Machine::new(&ix, 1, 3, 1);
        assert_eq!(m.arrive(1, TaskId(0), "early"), None);
        assert_eq!(m.admit(&ix), Some((0, vec![])));
        assert_eq!(m.admit(&ix), None, "window 1 holds iteration 1");
        let mut ready = Vec::new();
        for t in [0, 1] {
            assert_eq!(m.arrive(0, TaskId(t), "x"), Some("x"));
            m.release(&ix, 0, TaskId(t), |d| ready.push(d));
        }
        assert_eq!(ready, [TaskId(3)]);
        m.release(&ix, 0, TaskId(3), |_| unreachable!());
        assert!(m.done(0));
        assert_eq!((m.retired(), m.arrive(0, TaskId(0), "late")), (1, None));
        assert_eq!(m.admit(&ix), Some((1, vec![(TaskId(0), "early")])));
    }
}
