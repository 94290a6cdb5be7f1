//! The six fixed workloads and the inputs they are made from.
//!
//! Each workload exists to make one layer of a gradient's trip
//! (codec → wire → fabric → scheduler → pipelined iteration) dominate,
//! so that a change to that layer moves this workload and no other.
//! The `why` strings are the short form; `README.md` has the table
//! with the measured splits.

use hipress::prelude::*;
use hipress::tensor::synth::{generate, GradientShape};
use hipress::tensor::Tensor;

/// Which gradient set a workload synchronizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GradSet {
    /// Four gradients of 1 048 576, 262 144, 65 536 and 4 096 `f32`
    /// elements: 5.3 MiB per worker, dominated by bandwidth.
    Big4,
    /// 128 gradients of 2 048 elements: 1 MiB per worker, dominated
    /// by per-message and per-task overhead.
    Tiny128,
}

impl GradSet {
    /// Element count of every gradient in the set.
    pub fn sizes(self) -> Vec<usize> {
        match self {
            GradSet::Big4 => vec![1 << 20, 1 << 18, 1 << 16, 1 << 12],
            GradSet::Tiny128 => vec![2048; 128],
        }
    }
}

/// One benchmark workload: a full facade configuration plus the
/// reason it is in the set.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// One line on which layer this workload isolates.
    pub why: &'static str,
    pub algorithm: Algorithm,
    pub strategy: Strategy,
    /// `true` runs ranks as OS processes over loopback TCP, `false`
    /// as threads over channels.
    pub processes: bool,
    pub ranks: usize,
    pub set: GradSet,
    /// Iterations per `sync` call (`K`), sized so one call is about
    /// half a second on a 2-core host.
    pub iters: u32,
    /// Pipeline admission window (`W`).
    pub window: u32,
}

/// The catalogue. Names, order and configurations are the benchmark's
/// contract with every later PR; change them only in a PR that does
/// nothing else.
pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "dense_ps_thr",
        why: "no codec, channels: source/merge/update copies and per-chunk allocation dominate; codec and wire work must not show",
        algorithm: Algorithm::None,
        strategy: Strategy::CaSyncPs,
        processes: false,
        ranks: 2,
        set: GradSet::Big4,
        iters: 128,
        window: 4,
    },
    Workload {
        name: "onebit_ring_thr",
        why: "dense quantizer on a 3-rank ring: encode+decode bandwidth bound with decode-merge-re-encode hops; fabric work must not show",
        algorithm: Algorithm::OneBit,
        strategy: Strategy::CaSyncRing,
        processes: false,
        ranks: 3,
        set: GradSet::Big4,
        iters: 8,
        window: 4,
    },
    Workload {
        name: "dgc_ps_thr",
        why: "top-k sparsifier: selection-heavy encode, sparse-scatter decode/merge; a selection change shows here and not on onebit",
        algorithm: Algorithm::Dgc { rate: 0.001 },
        strategy: Strategy::CaSyncPs,
        processes: false,
        ranks: 2,
        set: GradSet::Big4,
        iters: 48,
        window: 4,
    },
    Workload {
        name: "dense_ps_tcp",
        why: "dense_ps_thr with only the transport changed to processes over loopback TCP: TLV, digest, frame copy and socket dominate",
        algorithm: Algorithm::None,
        strategy: Strategy::CaSyncPs,
        processes: true,
        ranks: 2,
        set: GradSet::Big4,
        iters: 24,
        window: 4,
    },
    Workload {
        name: "tiny_onebit_thr",
        why: "128 small gradients, serial window: thousands of tiny tasks per iteration expose dispatch, batching and per-call codec cost",
        algorithm: Algorithm::OneBit,
        strategy: Strategy::CaSyncPs,
        processes: false,
        ranks: 2,
        set: GradSet::Tiny128,
        iters: 48,
        window: 1,
    },
    Workload {
        name: "tiny_onebit_tcp",
        why: "512 frames of ~150 B per iteration over TCP: ack, header and syscall per frame dominate, the opposite of dense_ps_tcp",
        algorithm: Algorithm::OneBit,
        strategy: Strategy::CaSyncPs,
        processes: true,
        ranks: 2,
        set: GradSet::Tiny128,
        iters: 32,
        window: 4,
    },
];

/// Looks a workload up by its declared name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed of worker `worker`'s gradient `grad` under harness seed
/// `seed`: three odd multipliers keep every (seed, worker, grad)
/// triple on its own generator stream.
fn grad_seed(seed: u64, worker: usize, grad: usize) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (worker as u64 + 1).wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ (grad as u64 + 1).wrapping_mul(0x94D0_49BB_1331_11EB)
}

/// One Gaussian gradient set per worker, every worker the same
/// shapes, deterministically from `seed`.
pub fn gradients(sizes: &[usize], ranks: usize, seed: u64) -> Vec<Vec<Tensor>> {
    (0..ranks)
        .map(|w| {
            sizes
                .iter()
                .enumerate()
                .map(|(g, &n)| {
                    generate(
                        n,
                        GradientShape::Gaussian { std_dev: 1.0 },
                        grad_seed(seed, w, g),
                    )
                })
                .collect()
        })
        .collect()
}

impl Workload {
    /// Iterations per `sync` call: `K`, or an eighth of it (at least
    /// 2, so the pipelined path still runs) for a smoke pass.
    pub fn iters_for(&self, smoke: bool) -> u32 {
        if smoke {
            (self.iters / 8).max(2)
        } else {
            self.iters
        }
    }

    /// The real backend this workload measures.
    pub fn backend(&self) -> Backend {
        if self.processes {
            Backend::Processes(self.ranks)
        } else {
            Backend::Threads(self.ranks)
        }
    }

    /// The facade configured for this workload on `backend`, running
    /// `iters` iterations per call. `partitions = ranks` throughout.
    pub fn facade(&self, backend: Backend, iters: u32) -> HiPress {
        HiPress::new(self.strategy)
            .algorithm(self.algorithm)
            .partitions(self.ranks)
            .backend(backend)
            .iterations(iters)
            .pipeline_window(self.window.min(iters))
    }

    /// This workload's inputs under harness seed `seed`.
    pub fn gradients(&self, seed: u64) -> Vec<Vec<Tensor>> {
        gradients(&self.set.sizes(), self.ranks, seed)
    }

    /// Elements in the largest chunk any task of this workload
    /// touches: the largest gradient split `ranks` ways, rounded up.
    pub fn largest_chunk(&self) -> usize {
        let largest = self.set.sizes().into_iter().max().unwrap_or(0);
        largest.div_ceil(self.ranks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradients_depend_on_seed_worker_and_index_only() {
        let a = gradients(&[16, 16], 2, 7);
        let b = gradients(&[16, 16], 2, 7);
        for (x, y) in a.iter().flatten().zip(b.iter().flatten()) {
            assert_eq!(x.as_slice(), y.as_slice());
        }
        let c = gradients(&[16, 16], 2, 8);
        assert_ne!(a[0][0].as_slice(), c[0][0].as_slice());
        assert_ne!(a[0][0].as_slice(), a[1][0].as_slice());
        assert_ne!(a[0][0].as_slice(), a[0][1].as_slice());
    }

    #[test]
    fn chunk_sizes_are_the_documented_ones() {
        assert_eq!(find("dense_ps_thr").unwrap().largest_chunk(), 524_288);
        assert_eq!(find("onebit_ring_thr").unwrap().largest_chunk(), 349_526);
        assert_eq!(find("tiny_onebit_tcp").unwrap().largest_chunk(), 1_024);
        assert!(find("nope").is_none());
    }
}
