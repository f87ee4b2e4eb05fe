//! Resource identifiers used by reservation tables and the modulo
//! reservation table of the schedulers.

use std::fmt;

/// Identifier of a cluster (0-based).
///
/// In a non-clustered (unified) machine there is exactly one cluster with
/// id 0, which keeps the scheduler code uniform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ClusterId(pub u16);

impl ClusterId {
    /// Cluster 0, the only cluster of a unified machine.
    pub const ZERO: ClusterId = ClusterId(0);

    /// Numeric index of the cluster.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ClusterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl From<u16> for ClusterId {
    #[inline]
    fn from(v: u16) -> Self {
        ClusterId(v)
    }
}

impl From<usize> for ClusterId {
    #[inline]
    fn from(v: usize) -> Self {
        ClusterId(u16::try_from(v).expect("cluster index fits in u16"))
    }
}

/// A schedulable hardware resource class.
///
/// Resources are identified *per cluster* except for the inter-cluster buses,
/// which are shared by the whole core. Reservation tables list which of these
/// resources an operation occupies at each cycle relative to its issue cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ResourceKind {
    /// One of the general-purpose functional units of `cluster`.
    GpUnit {
        /// Owning cluster.
        cluster: ClusterId,
    },
    /// One of the memory ports (load/store units) of `cluster`.
    MemPort {
        /// Owning cluster.
        cluster: ClusterId,
    },
    /// The output port of `cluster` (sends a value onto a bus).
    OutPort {
        /// Owning cluster.
        cluster: ClusterId,
    },
    /// The input port of `cluster` (receives a value from a bus).
    InPort {
        /// Owning cluster.
        cluster: ClusterId,
    },
    /// One of the shared inter-cluster buses.
    Bus,
}

impl ResourceKind {
    /// Cluster owning the resource, if it is a per-cluster resource.
    #[must_use]
    pub fn cluster(self) -> Option<ClusterId> {
        match self {
            ResourceKind::GpUnit { cluster }
            | ResourceKind::MemPort { cluster }
            | ResourceKind::OutPort { cluster }
            | ResourceKind::InPort { cluster } => Some(cluster),
            ResourceKind::Bus => None,
        }
    }

    /// Whether the resource is shared between clusters.
    #[must_use]
    pub fn is_shared(self) -> bool {
        matches!(self, ResourceKind::Bus)
    }
}

/// Dense bijection between [`ResourceKind`] and `0..len()` for a machine
/// with a fixed cluster count.
///
/// The modulo reservation table of the schedulers is a flat
/// `[resource-index × II-slot]` array; this indexer is the addressing scheme
/// that makes every probe a direct array access instead of a hash lookup.
/// Per-cluster resources are laid out contiguously per cluster
/// (`GpUnit`, `MemPort`, `OutPort`, `InPort`) with the shared bus last:
///
/// ```text
/// index = 4·cluster + {0 gp, 1 mem, 2 out, 3 in}      index = 4·k  (bus)
/// ```
///
/// # Example
///
/// ```
/// use vliw::{ClusterId, ResourceIndexer, ResourceKind};
///
/// let ix = ResourceIndexer::new(2);
/// assert_eq!(ix.len(), 4 * 2 + 1);
///
/// let mem1 = ResourceKind::MemPort { cluster: ClusterId(1) };
/// let idx = ix.index_of(mem1);
/// assert_eq!(idx, 5);
/// assert_eq!(ix.kind_at(idx), mem1); // kind_at inverts index_of
/// assert_eq!(ix.index_of(ResourceKind::Bus), ix.len() - 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResourceIndexer {
    clusters: u16,
}

/// Per-cluster resource classes packed before the shared bus.
const PER_CLUSTER_KINDS: usize = 4;

impl ResourceIndexer {
    /// Indexer for a machine with `clusters` clusters.
    ///
    /// # Panics
    ///
    /// Panics if `clusters == 0` or exceeds `u16::MAX`.
    #[must_use]
    pub fn new(clusters: usize) -> Self {
        assert!(clusters > 0, "a machine has at least one cluster");
        Self {
            clusters: u16::try_from(clusters).expect("cluster count fits in u16"),
        }
    }

    /// Number of distinct resource kinds (`4·clusters + 1`).
    #[must_use]
    pub fn len(&self) -> usize {
        PER_CLUSTER_KINDS * usize::from(self.clusters) + 1
    }

    /// An indexer is never empty (there is always the shared bus).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of clusters the indexer was built for.
    #[must_use]
    pub fn clusters(&self) -> usize {
        usize::from(self.clusters)
    }

    /// Dense index of `kind`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `kind` names a cluster outside the
    /// machine; release builds would index out of bounds downstream, which
    /// the flat tables turn into a panic as well.
    #[must_use]
    pub fn index_of(&self, kind: ResourceKind) -> usize {
        let slot = |cluster: ClusterId, class: usize| {
            debug_assert!(
                cluster.index() < self.clusters(),
                "resource {kind} names cluster {cluster} of a {}-cluster machine",
                self.clusters
            );
            PER_CLUSTER_KINDS * cluster.index() + class
        };
        match kind {
            ResourceKind::GpUnit { cluster } => slot(cluster, 0),
            ResourceKind::MemPort { cluster } => slot(cluster, 1),
            ResourceKind::OutPort { cluster } => slot(cluster, 2),
            ResourceKind::InPort { cluster } => slot(cluster, 3),
            ResourceKind::Bus => PER_CLUSTER_KINDS * self.clusters(),
        }
    }

    /// Resource kind at dense index `idx` (inverse of
    /// [`ResourceIndexer::index_of`]).
    ///
    /// # Panics
    ///
    /// Panics if `idx >= len()`.
    #[must_use]
    pub fn kind_at(&self, idx: usize) -> ResourceKind {
        assert!(idx < self.len(), "resource index {idx} out of range");
        if idx == PER_CLUSTER_KINDS * self.clusters() {
            return ResourceKind::Bus;
        }
        let cluster = ClusterId::from(idx / PER_CLUSTER_KINDS);
        match idx % PER_CLUSTER_KINDS {
            0 => ResourceKind::GpUnit { cluster },
            1 => ResourceKind::MemPort { cluster },
            2 => ResourceKind::OutPort { cluster },
            _ => ResourceKind::InPort { cluster },
        }
    }

    /// Iterate over every resource kind in dense-index order.
    pub fn kinds(&self) -> impl Iterator<Item = ResourceKind> + '_ {
        (0..self.len()).map(|i| self.kind_at(i))
    }
}

impl fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResourceKind::GpUnit { cluster } => write!(f, "gp@{cluster}"),
            ResourceKind::MemPort { cluster } => write!(f, "mem@{cluster}"),
            ResourceKind::OutPort { cluster } => write!(f, "out@{cluster}"),
            ResourceKind::InPort { cluster } => write!(f, "in@{cluster}"),
            ResourceKind::Bus => write!(f, "bus"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_id_conversions() {
        assert_eq!(ClusterId::from(3usize).index(), 3);
        assert_eq!(ClusterId::from(7u16), ClusterId(7));
        assert_eq!(ClusterId::ZERO.index(), 0);
    }

    #[test]
    fn bus_is_the_only_shared_resource() {
        let c = ClusterId(1);
        assert!(ResourceKind::Bus.is_shared());
        assert!(ResourceKind::Bus.cluster().is_none());
        for r in [
            ResourceKind::GpUnit { cluster: c },
            ResourceKind::MemPort { cluster: c },
            ResourceKind::OutPort { cluster: c },
            ResourceKind::InPort { cluster: c },
        ] {
            assert!(!r.is_shared());
            assert_eq!(r.cluster(), Some(c));
        }
    }

    #[test]
    fn indexer_is_a_bijection() {
        for clusters in 1..=8usize {
            let ix = ResourceIndexer::new(clusters);
            assert_eq!(ix.len(), 4 * clusters + 1);
            assert!(!ix.is_empty());
            assert_eq!(ix.clusters(), clusters);
            let mut seen = vec![false; ix.len()];
            for kind in ix.kinds() {
                let i = ix.index_of(kind);
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
                assert_eq!(ix.kind_at(i), kind, "kind_at inverts index_of");
            }
            assert!(seen.iter().all(|&s| s), "every index is reachable");
        }
    }

    #[test]
    fn indexer_packs_clusters_contiguously() {
        let ix = ResourceIndexer::new(2);
        let c1 = ClusterId(1);
        assert_eq!(ix.index_of(ResourceKind::GpUnit { cluster: c1 }), 4);
        assert_eq!(ix.index_of(ResourceKind::MemPort { cluster: c1 }), 5);
        assert_eq!(ix.index_of(ResourceKind::OutPort { cluster: c1 }), 6);
        assert_eq!(ix.index_of(ResourceKind::InPort { cluster: c1 }), 7);
        assert_eq!(ix.index_of(ResourceKind::Bus), 8);
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn indexer_rejects_zero_clusters() {
        let _ = ResourceIndexer::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn kind_at_rejects_out_of_range() {
        let _ = ResourceIndexer::new(1).kind_at(5);
    }

    #[test]
    fn display_mentions_cluster() {
        let r = ResourceKind::GpUnit {
            cluster: ClusterId(2),
        };
        assert_eq!(r.to_string(), "gp@c2");
        assert_eq!(ResourceKind::Bus.to_string(), "bus");
    }
}
