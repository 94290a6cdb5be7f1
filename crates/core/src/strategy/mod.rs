//! Synchronization strategies: compilers from an [`IterationSpec`] to
//! a [`TaskGraph`].
//!
//! Two CaSync strategies (the paper's contribution) and two baselines
//! (the systems it compares against) are implemented:
//!
//! * [`Strategy::CaSyncPs`] — PS with co-located aggregators,
//!   per-gradient selective compression and partitioning, fully
//!   pipelined task DAG (§3, §6.1),
//! * [`Strategy::CaSyncRing`] — Ring-allreduce recast as a pipelined
//!   task DAG with per-chunk compression,
//! * [`Strategy::BytePs`] — the BytePS baseline: 4 MiB tensor
//!   partitioning without compression; with compression, whole-tensor
//!   encode before transmission (compressed tensors cannot be
//!   partitioned for aggregation — the §2.5 incompatibility),
//! * [`Strategy::HorovodRing`] — the Horovod/Ring baseline: 64 MiB
//!   fusion buffers, serialized collectives; with compression, the
//!   coarse-grained coupled design whose steps are bulk-synchronous.

mod byteps;
mod casync_ps;
mod casync_ring;
mod horovod_ring;

use crate::cluster::ClusterConfig;
use crate::graph::TaskGraph;
use crate::plan::IterationSpec;
use hipress_util::{Error, Result};

pub(crate) mod util;

hipress_util::record! {
    /// The synchronization strategy used for an experiment.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub enum Strategy ["strategy"] {
        /// CaSync configured as a Parameter Server (co-located
        /// aggregators, as evaluated in §6).
        CaSyncPs = 1,
        /// CaSync configured as Ring-allreduce.
        CaSyncRing = 2,
        /// BytePS-style baseline PS.
        BytePs = 3,
        /// Horovod-style baseline Ring-allreduce.
        HorovodRing = 4,
    }
}

impl Strategy {
    /// All strategies.
    pub fn all() -> [Strategy; 4] {
        [
            Strategy::CaSyncPs,
            Strategy::CaSyncRing,
            Strategy::BytePs,
            Strategy::HorovodRing,
        ]
    }

    /// Display label as used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::CaSyncPs => "CaSync-PS",
            Strategy::CaSyncRing => "CaSync-Ring",
            Strategy::BytePs => "BytePS",
            Strategy::HorovodRing => "Ring",
        }
    }

    /// Whether this is one of the paper's (CaSync) strategies as
    /// opposed to a baseline.
    pub fn is_casync(&self) -> bool {
        matches!(self, Strategy::CaSyncPs | Strategy::CaSyncRing)
    }

    /// Compiles one iteration into a task graph.
    ///
    /// # Errors
    ///
    /// Returns a configuration error for degenerate clusters (e.g., a
    /// ring of one node) or an invalid spec.
    pub fn build(&self, cluster: &ClusterConfig, iter: &IterationSpec) -> Result<TaskGraph> {
        cluster.validate()?;
        let n = cluster.nodes;
        if n < 2 {
            return Err(Error::config(
                "gradient synchronization needs at least two nodes",
            ));
        }
        for g in &iter.gradients {
            if g.bytes == 0 || g.bytes % 4 != 0 {
                return Err(Error::config(format!(
                    "gradient '{}' has invalid size {}",
                    g.name, g.bytes
                )));
            }
            if g.plan.partitions == 0 {
                return Err(Error::config(format!(
                    "gradient '{}' has zero partitions",
                    g.name
                )));
            }
        }
        let graph = match self {
            Strategy::CaSyncPs => casync_ps::build(n, iter),
            Strategy::CaSyncRing => casync_ring::build(n, iter),
            Strategy::BytePs => byteps::build(n, iter),
            Strategy::HorovodRing => horovod_ring::build(n, iter),
        };
        // Debug builds run the installed `hipress-lint` plan verifier
        // on every graph a strategy emits (release builds skip it;
        // `hipress lint` covers the matrix offline).
        #[cfg(debug_assertions)]
        crate::graph::run_debug_verifier(&graph, n)?;
        Ok(graph)
    }
}

impl std::str::FromStr for Strategy {
    type Err = Error;

    /// Parses a command-line spelling: `casync-ps`, `casync-ring`,
    /// `byteps` or `ring`.
    fn from_str(s: &str) -> Result<Strategy> {
        match s {
            "casync-ps" => Ok(Strategy::CaSyncPs),
            "casync-ring" => Ok(Strategy::CaSyncRing),
            "byteps" => Ok(Strategy::BytePs),
            "ring" => Ok(Strategy::HorovodRing),
            other => Err(Error::config(format!("unknown strategy '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{CompressionSpec, GradPlan, SyncGradient};
    use crate::ClusterConfig;
    use hipress_compress::Algorithm;

    pub(crate) fn spec_with(
        sizes: &[u64],
        compression: Option<Algorithm>,
        partitions: usize,
    ) -> IterationSpec {
        IterationSpec {
            gradients: sizes
                .iter()
                .enumerate()
                .map(|(i, &bytes)| SyncGradient {
                    name: format!("g{i}"),
                    bytes,
                    ready_offset_ns: (sizes.len() - i) as u64 * 1000,
                    plan: GradPlan {
                        compress: true,
                        partitions,
                    },
                })
                .collect(),
            compression: compression
                .map(|a| CompressionSpec::of(a.build().expect("algorithm").as_ref())),
        }
    }

    #[test]
    fn strategies_parse_from_their_cli_spellings() {
        for (spelling, want) in [
            ("casync-ps", Strategy::CaSyncPs),
            ("casync-ring", Strategy::CaSyncRing),
            ("byteps", Strategy::BytePs),
            ("ring", Strategy::HorovodRing),
        ] {
            assert_eq!(spelling.parse::<Strategy>().unwrap(), want);
        }
        for bad in ["", "ps", "CaSync-PS", "horovod"] {
            assert!(bad.parse::<Strategy>().is_err(), "{bad}");
        }
    }

    #[test]
    fn all_strategies_build_valid_graphs() {
        let cluster = ClusterConfig::ec2(4);
        for strat in Strategy::all() {
            for compression in [None, Some(Algorithm::OneBit)] {
                let iter = spec_with(&[4096, 1 << 20, 256], compression, 2);
                // Structural sanity here; full lint cleanliness is
                // asserted in the integration tests (tests/) and in
                // hipress-lint's own matrix tests — unit tests cannot
                // use hipress-lint (dev-dep cycle: the test-compiled
                // crate would not unify with the lib lint links).
                let g = strat.build(&cluster, &iter).unwrap();
                g.topo_order().unwrap();
                assert!(!g.is_empty(), "{strat:?}");
            }
        }
    }

    #[test]
    fn single_node_cluster_rejected() {
        let cluster = ClusterConfig::ec2(1);
        let iter = spec_with(&[4096], None, 1);
        assert!(Strategy::CaSyncRing.build(&cluster, &iter).is_err());
    }

    #[test]
    fn invalid_gradient_rejected() {
        let cluster = ClusterConfig::ec2(4);
        let mut iter = spec_with(&[4096], None, 1);
        iter.gradients[0].bytes = 6; // Not a multiple of 4.
        assert!(Strategy::CaSyncPs.build(&cluster, &iter).is_err());
        iter.gradients[0].bytes = 8;
        iter.gradients[0].plan.partitions = 0;
        assert!(Strategy::CaSyncPs.build(&cluster, &iter).is_err());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<_> =
            Strategy::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 4);
        assert!(Strategy::CaSyncPs.is_casync());
        assert!(!Strategy::BytePs.is_casync());
    }
}
