//! Whole-machine configuration.

use crate::cluster::ClusterConfig;
use crate::error::ConfigError;
use crate::op::{LatencyModel, Opcode};
use crate::reservation::ReservationTable;
use crate::resource::{ClusterId, ResourceIndexer, ResourceKind};
use std::fmt;

/// Complete description of a (possibly clustered) VLIW core.
///
/// A machine is a set of [`ClusterConfig`]s, a number of shared inter-cluster
/// buses and a [`LatencyModel`]. The paper's configurations are written
/// `k-(GPxMy-REGz)`: `k` identical clusters connected by 2 buses, with
/// `k·x = 8` general-purpose units and `k·y = 4` memory ports in total.
///
/// # Example
///
/// ```
/// use vliw::MachineConfig;
///
/// let mc = MachineConfig::paper_config(2, 64)?;
/// assert_eq!(mc.name(), "2-(GP4M2-REG64)");
/// assert_eq!(mc.total_gp_units(), 8);
/// assert_eq!(mc.total_mem_ports(), 4);
/// # Ok::<(), vliw::ConfigError>(())
/// ```
///
/// # Thread safety
///
/// A built configuration is immutable plain data (`Send + Sync`, asserted
/// at compile time below): one `MachineConfig` is shared by reference
/// across every worker of a parallel workbench sweep, so nothing here may
/// ever grow interior mutability or a lazily-populated cache without
/// synchronisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineConfig {
    clusters: Vec<ClusterConfig>,
    buses: u32,
    latencies: LatencyModel,
}

const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MachineConfig>();
};

impl MachineConfig {
    /// Start building a custom machine.
    #[must_use]
    pub fn builder() -> MachineBuilder {
        MachineBuilder::default()
    }

    /// One of the paper's evaluation configurations `k-(GPxMy-REGz)` with
    /// `k ∈ {1, 2, 4, 8}`, `k·x = 8`, `k·y = 4`, 2 buses and `z` registers
    /// per cluster.
    ///
    /// For `k = 8` each cluster gets one GP unit and memory ports are spread
    /// over the first four clusters (the paper's scalability study instead
    /// replicates `GP2M1` elements; see [`MachineConfig::replicated`]).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidPaperConfig`] for unsupported cluster
    /// counts and [`ConfigError::NoRegisters`] if `registers_per_cluster` is 0.
    pub fn paper_config(clusters: u32, registers_per_cluster: u32) -> Result<Self, ConfigError> {
        if !matches!(clusters, 1 | 2 | 4) {
            return Err(ConfigError::InvalidPaperConfig { clusters });
        }
        let gp = 8 / clusters;
        let mem = 4 / clusters;
        MachineBuilder::default()
            .identical_clusters(clusters, ClusterConfig::new(gp, mem, registers_per_cluster))
            .buses(2)
            .build()
    }

    /// Same shape as [`MachineConfig::paper_config`] but with unbounded
    /// register files (Table 1 of the paper).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::InvalidPaperConfig`] for unsupported cluster counts.
    pub fn paper_config_unbounded(clusters: u32) -> Result<Self, ConfigError> {
        if !matches!(clusters, 1 | 2 | 4) {
            return Err(ConfigError::InvalidPaperConfig { clusters });
        }
        let gp = 8 / clusters;
        let mem = 4 / clusters;
        MachineBuilder::default()
            .identical_clusters(clusters, ClusterConfig::unbounded_registers(gp, mem))
            .buses(2)
            .build()
    }

    /// The paper's scalability study (Figure 6): replicate a `GP2M1-REG32`
    /// cluster element `k` times with the given number of buses
    /// (`u32::MAX` for an unbounded interconnect).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::NoClusters`] if `k == 0` or
    /// [`ConfigError::NoBuses`] if `k > 1` and `buses == 0`.
    pub fn replicated(k: u32, buses: u32) -> Result<Self, ConfigError> {
        MachineBuilder::default()
            .identical_clusters(k, ClusterConfig::new(2, 1, 32))
            .buses(buses)
            .build()
    }

    /// Number of clusters.
    #[must_use]
    pub fn clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Per-cluster configurations.
    #[must_use]
    pub fn cluster_configs(&self) -> &[ClusterConfig] {
        &self.clusters
    }

    /// Configuration of cluster `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn cluster(&self, id: ClusterId) -> &ClusterConfig {
        &self.clusters[id.index()]
    }

    /// Iterator over all cluster ids.
    pub fn cluster_ids(&self) -> impl Iterator<Item = ClusterId> + '_ {
        (0..self.clusters.len()).map(ClusterId::from)
    }

    /// Number of shared inter-cluster buses (`u32::MAX` = unbounded).
    #[must_use]
    pub fn buses(&self) -> u32 {
        self.buses
    }

    /// Operation latency model.
    #[must_use]
    pub fn latencies(&self) -> &LatencyModel {
        &self.latencies
    }

    /// Total general-purpose units across clusters.
    #[must_use]
    pub fn total_gp_units(&self) -> u32 {
        self.clusters.iter().map(|c| c.gp_units).sum()
    }

    /// Total memory ports across clusters.
    #[must_use]
    pub fn total_mem_ports(&self) -> u32 {
        self.clusters.iter().map(|c| c.mem_ports).sum()
    }

    /// Total registers across clusters (saturating; unbounded files yield
    /// `u32::MAX`).
    #[must_use]
    pub fn total_registers(&self) -> u32 {
        self.clusters
            .iter()
            .fold(0u32, |acc, c| acc.saturating_add(c.registers))
    }

    /// Registers available in a single cluster.
    #[must_use]
    pub fn registers_in(&self, cluster: ClusterId) -> u32 {
        self.cluster(cluster).registers
    }

    /// Number of instances of `kind` available per cycle.
    #[must_use]
    pub fn resource_count(&self, kind: ResourceKind) -> u32 {
        match kind {
            ResourceKind::GpUnit { cluster } => self.cluster(cluster).gp_units,
            ResourceKind::MemPort { cluster } => self.cluster(cluster).mem_ports,
            ResourceKind::OutPort { cluster } => self.cluster(cluster).out_ports,
            ResourceKind::InPort { cluster } => self.cluster(cluster).in_ports,
            ResourceKind::Bus => self.buses,
        }
    }

    /// Dense [`ResourceKind`] ↔ `usize` indexer for this machine — the
    /// addressing scheme of the schedulers' flat modulo reservation tables.
    #[must_use]
    pub fn resource_indexer(&self) -> ResourceIndexer {
        ResourceIndexer::new(self.clusters.len())
    }

    /// Capacity of every resource kind in dense-index order (the flat-table
    /// companion of [`MachineConfig::resource_count`]).
    #[must_use]
    pub fn capacity_vector(&self) -> Vec<u32> {
        let ix = self.resource_indexer();
        ix.kinds().map(|k| self.resource_count(k)).collect()
    }

    /// Reservation table of `op` when executed on `cluster`.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a move; use [`MachineConfig::move_reservation`].
    #[must_use]
    pub fn reservation(&self, op: Opcode, cluster: ClusterId) -> ReservationTable {
        ReservationTable::for_op(op, cluster, &self.latencies)
    }

    /// Reservation table of an inter-cluster move from `src` to `dst`.
    #[must_use]
    pub fn move_reservation(&self, src: ClusterId, dst: ClusterId) -> ReservationTable {
        ReservationTable::for_move(src, dst, &self.latencies)
    }

    /// Latency of `op` under the hit-latency assumption.
    #[must_use]
    pub fn latency(&self, op: Opcode) -> u32 {
        self.latencies.latency(op)
    }

    /// Canonical `k-(GPxMy-REGz)` name when all clusters are identical, or a
    /// `+`-joined list of cluster elements otherwise.
    #[must_use]
    pub fn name(&self) -> String {
        let first = self.clusters[0];
        if self.clusters.iter().all(|c| *c == first) {
            format!("{}-({})", self.clusters.len(), first)
        } else {
            let parts: Vec<String> = self.clusters.iter().map(ToString::to_string).collect();
            parts.join("+")
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

/// Builder for [`MachineConfig`].
///
/// ```
/// use vliw::{ClusterConfig, LatencyModel, MachineConfig};
///
/// let mc = MachineConfig::builder()
///     .cluster(ClusterConfig::new(4, 2, 64))
///     .cluster(ClusterConfig::new(4, 2, 64))
///     .buses(3)
///     .latencies(LatencyModel::with_move_latency(3))
///     .build()?;
/// assert_eq!(mc.clusters(), 2);
/// assert_eq!(mc.buses(), 3);
/// # Ok::<(), vliw::ConfigError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct MachineBuilder {
    clusters: Vec<ClusterConfig>,
    buses: Option<u32>,
    latencies: Option<LatencyModel>,
}

impl MachineBuilder {
    /// Add one cluster.
    #[must_use]
    pub fn cluster(mut self, cluster: ClusterConfig) -> Self {
        self.clusters.push(cluster);
        self
    }

    /// Add `k` identical clusters.
    #[must_use]
    pub fn identical_clusters(mut self, k: u32, cluster: ClusterConfig) -> Self {
        for _ in 0..k {
            self.clusters.push(cluster);
        }
        self
    }

    /// Set the number of inter-cluster buses (`u32::MAX` for unbounded).
    #[must_use]
    pub fn buses(mut self, buses: u32) -> Self {
        self.buses = Some(buses);
        self
    }

    /// Set the latency model (defaults to [`LatencyModel::default`]).
    #[must_use]
    pub fn latencies(mut self, lat: LatencyModel) -> Self {
        self.latencies = Some(lat);
        self
    }

    /// Set only the move latency `λm`, keeping other latencies at defaults
    /// or at a previously supplied latency model.
    #[must_use]
    pub fn move_latency(mut self, lm: u32) -> Self {
        let mut lat = self.latencies.unwrap_or_default();
        lat.move_latency = lm;
        self.latencies = Some(lat);
        self
    }

    /// Validate and build the machine.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the description is inconsistent (no
    /// clusters, a cluster without GP units or registers, or a multi-cluster
    /// machine without buses).
    pub fn build(self) -> Result<MachineConfig, ConfigError> {
        if self.clusters.is_empty() {
            return Err(ConfigError::NoClusters);
        }
        for (i, c) in self.clusters.iter().enumerate() {
            if c.gp_units == 0 {
                return Err(ConfigError::NoGpUnits { cluster: i });
            }
            if c.registers == 0 {
                return Err(ConfigError::NoRegisters { cluster: i });
            }
        }
        let buses = self.buses.unwrap_or(2);
        if self.clusters.len() > 1 && buses == 0 {
            return Err(ConfigError::NoBuses);
        }
        Ok(MachineConfig {
            clusters: self.clusters,
            buses,
            latencies: self.latencies.unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_partition_the_resources() {
        for k in [1u32, 2, 4] {
            let mc = MachineConfig::paper_config(k, 64).unwrap();
            assert_eq!(mc.clusters() as u32, k);
            assert_eq!(mc.total_gp_units(), 8);
            assert_eq!(mc.total_mem_ports(), 4);
            assert_eq!(mc.total_registers(), 64 * k);
            assert_eq!(mc.buses(), 2);
        }
    }

    #[test]
    fn paper_config_rejects_odd_cluster_counts() {
        assert!(matches!(
            MachineConfig::paper_config(3, 32),
            Err(ConfigError::InvalidPaperConfig { clusters: 3 })
        ));
        assert!(MachineConfig::paper_config(8, 32).is_err());
    }

    #[test]
    fn unbounded_config_has_saturated_register_count() {
        let mc = MachineConfig::paper_config_unbounded(4).unwrap();
        assert_eq!(mc.total_registers(), u32::MAX);
        assert!(mc.cluster(ClusterId(0)).has_unbounded_registers());
    }

    #[test]
    fn replicated_configs_scale_clusters() {
        for k in 1..=8u32 {
            let buses = if k == 1 { 2 } else { k / 2 + 1 };
            let mc = MachineConfig::replicated(k, buses).unwrap();
            assert_eq!(mc.clusters() as u32, k);
            assert_eq!(mc.total_gp_units(), 2 * k);
            assert_eq!(mc.total_mem_ports(), k);
        }
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            MachineConfig::builder().build(),
            Err(ConfigError::NoClusters)
        ));
        assert!(matches!(
            MachineConfig::builder()
                .cluster(ClusterConfig::new(0, 1, 16))
                .build(),
            Err(ConfigError::NoGpUnits { cluster: 0 })
        ));
        assert!(matches!(
            MachineConfig::builder()
                .cluster(ClusterConfig::new(2, 1, 0))
                .build(),
            Err(ConfigError::NoRegisters { cluster: 0 })
        ));
        assert!(matches!(
            MachineConfig::builder()
                .identical_clusters(2, ClusterConfig::new(2, 1, 16))
                .buses(0)
                .build(),
            Err(ConfigError::NoBuses)
        ));
    }

    #[test]
    fn names_follow_the_paper() {
        let mc = MachineConfig::paper_config(4, 16).unwrap();
        assert_eq!(mc.name(), "4-(GP2M1-REG16)");
        assert_eq!(mc.to_string(), mc.name());
        let uni = MachineConfig::paper_config(1, 128).unwrap();
        assert_eq!(uni.name(), "1-(GP8M4-REG128)");
    }

    #[test]
    fn resource_counts_match_cluster_description() {
        let mc = MachineConfig::paper_config(2, 32).unwrap();
        let c0 = ClusterId(0);
        assert_eq!(mc.resource_count(ResourceKind::GpUnit { cluster: c0 }), 4);
        assert_eq!(mc.resource_count(ResourceKind::MemPort { cluster: c0 }), 2);
        assert_eq!(mc.resource_count(ResourceKind::OutPort { cluster: c0 }), 1);
        assert_eq!(mc.resource_count(ResourceKind::InPort { cluster: c0 }), 1);
        assert_eq!(mc.resource_count(ResourceKind::Bus), 2);
    }

    #[test]
    fn capacity_vector_matches_resource_count() {
        let mc = MachineConfig::paper_config(2, 32).unwrap();
        let ix = mc.resource_indexer();
        let caps = mc.capacity_vector();
        assert_eq!(caps.len(), ix.len());
        for kind in ix.kinds() {
            assert_eq!(caps[ix.index_of(kind)], mc.resource_count(kind));
        }
        // 2 clusters: gp=4, mem=2, out=1, in=1 each, then 2 buses.
        assert_eq!(caps, vec![4, 2, 1, 1, 4, 2, 1, 1, 2]);
    }

    #[test]
    fn move_latency_builder_shortcut() {
        let mc = MachineConfig::builder()
            .identical_clusters(2, ClusterConfig::new(4, 2, 64))
            .move_latency(3)
            .build()
            .unwrap();
        assert_eq!(mc.latencies().move_latency, 3);
        assert_eq!(mc.latency(Opcode::Move), 3);
        // Other latencies keep their defaults.
        assert_eq!(mc.latency(Opcode::FpDiv), 17);
    }

    #[test]
    fn mixed_cluster_name_lists_elements() {
        let mc = MachineConfig::builder()
            .cluster(ClusterConfig::new(4, 2, 64))
            .cluster(ClusterConfig::new(2, 1, 32))
            .buses(2)
            .build()
            .unwrap();
        assert_eq!(mc.name(), "GP4M2-REG64+GP2M1-REG32");
    }
}
