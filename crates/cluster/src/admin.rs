//! The management interface MeT and the baselines drive (Fig. 2's
//! "NoSQL interface").
//!
//! MeT's monitor reads [`ClusterSnapshot`]s (system metrics via
//! Ganglia-equivalent, NoSQL metrics via JMX-equivalent) and its actuator
//! invokes the mutation methods: partition moves, server restarts with a new
//! configuration, major compactions, and node addition/removal. Both the
//! simulated cluster and an IaaS wrapper implement [`ElasticCluster`], so
//! the control plane is oblivious to which it manages — mirroring the
//! paper's design where MeT interfaces either HBase directly or through
//! OpenStack.

use crate::types::{PartitionCounters, PartitionId, ServerId};
use hstore::StoreConfig;
use simcore::SimTime;
use std::fmt;

/// Operational state of a server as seen by the control plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerHealth {
    /// Serving requests.
    Online,
    /// Restarting with a new configuration; serving nothing.
    Restarting,
    /// Being provisioned (VM booting).
    Provisioning,
    /// Decommissioned.
    Stopped,
}

/// Per-server metrics: the system metrics MeT gathers through Ganglia plus
/// the per-node NoSQL metrics from JMX (§4.1, §5).
#[derive(Debug, Clone)]
pub struct ServerMetrics {
    /// Server identity.
    pub server: ServerId,
    /// Operational state.
    pub health: ServerHealth,
    /// CPU utilization in `[0, 1]`.
    pub cpu_util: f64,
    /// I/O wait in `[0, 1]` (disk utilization).
    pub io_wait: f64,
    /// Memory utilization in `[0, 1]`.
    pub mem_util: f64,
    /// Requests per second served last interval.
    pub requests_per_sec: f64,
    /// 99th-percentile response time last interval, ms — the tail-latency
    /// signal the SLO gate in the decision maker watches. Zero when the
    /// server saw no demand (or the cluster layer does not model latency).
    pub p99_latency_ms: f64,
    /// Data-locality index in `[0, 1]` (§4.1).
    pub locality: f64,
    /// Partitions currently assigned.
    pub partitions: Vec<PartitionId>,
    /// The storage configuration the server is running.
    pub config: StoreConfig,
}

/// Per-partition metrics (per-region JMX counters).
#[derive(Debug, Clone)]
pub struct PartitionMetrics {
    /// Partition identity.
    pub partition: PartitionId,
    /// Owning table.
    pub table: String,
    /// Cumulative request counters since creation.
    pub counters: PartitionCounters,
    /// Current data size in bytes.
    pub size_bytes: u64,
    /// The server currently assigned (if any).
    pub assigned_to: Option<ServerId>,
    /// Fraction of the partition's bytes locally readable on its current
    /// server (1.0 when unassigned or empty).
    pub locality: f64,
    /// WAL bytes stranded by a crash of the partition's last host, still
    /// awaiting replay. Non-zero only between a crash and the partition's
    /// re-homing; the control plane reads it to report recovery work.
    pub wal_backlog_bytes: u64,
}

/// A point-in-time view of the whole cluster.
#[derive(Debug, Clone)]
pub struct ClusterSnapshot {
    /// Snapshot time.
    pub at: SimTime,
    /// Every known server.
    pub servers: Vec<ServerMetrics>,
    /// Every known partition.
    pub partitions: Vec<PartitionMetrics>,
}

impl ClusterSnapshot {
    /// Metrics for one server, if present.
    pub fn server(&self, id: ServerId) -> Option<&ServerMetrics> {
        self.servers.iter().find(|s| s.server == id)
    }

    /// Ids of servers currently online.
    pub fn online_servers(&self) -> Vec<ServerId> {
        self.servers.iter().filter(|s| s.health == ServerHealth::Online).map(|s| s.server).collect()
    }

    /// Total requests per second across online servers.
    pub fn total_rps(&self) -> f64 {
        self.servers.iter().map(|s| s.requests_per_sec).sum()
    }
}

/// Errors from management operations.
#[derive(Debug, Clone, PartialEq)]
pub enum AdminError {
    /// The referenced server does not exist.
    UnknownServer(ServerId),
    /// The referenced partition does not exist.
    UnknownPartition(PartitionId),
    /// The server is not in a state that allows the operation.
    ServerUnavailable(ServerId),
    /// Removing this server would leave no online server to host its data.
    LastServer,
    /// An invalid configuration was supplied.
    BadConfig(String),
    /// Provisioning failed (e.g. IaaS quota exhausted).
    ProvisioningFailed(String),
    /// A management call failed transiently (lost RPC, master hiccup);
    /// retrying it is expected to succeed.
    TransientFailure(String),
}

impl fmt::Display for AdminError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdminError::UnknownServer(s) => write!(f, "unknown server {s}"),
            AdminError::UnknownPartition(p) => write!(f, "unknown partition {p}"),
            AdminError::ServerUnavailable(s) => write!(f, "server {s} unavailable"),
            AdminError::LastServer => write!(f, "cannot remove the last online server"),
            AdminError::BadConfig(msg) => write!(f, "bad config: {msg}"),
            AdminError::ProvisioningFailed(msg) => write!(f, "provisioning failed: {msg}"),
            AdminError::TransientFailure(msg) => write!(f, "transient failure: {msg}"),
        }
    }
}

impl std::error::Error for AdminError {}

/// The full management surface a control plane needs.
pub trait ElasticCluster {
    /// Current simulated time.
    fn now(&self) -> SimTime;

    /// A full metrics snapshot.
    fn snapshot(&self) -> ClusterSnapshot;

    /// Moves a partition to another online server. The partition is briefly
    /// unavailable (region close/open); its files do not move, so locality
    /// on the destination typically drops until a major compaction.
    fn move_partition(&mut self, partition: PartitionId, to: ServerId) -> Result<(), AdminError>;

    /// Restarts a server with a new storage configuration. HBase has no
    /// online reconfiguration (§5), so the server serves nothing until the
    /// restart completes and its cache restarts cold.
    fn restart_server(&mut self, server: ServerId, config: StoreConfig) -> Result<(), AdminError>;

    /// Schedules a major compaction of one partition on its current server
    /// (≈ 1 min/GB of background IO), after which its data is fully local.
    fn major_compact(&mut self, partition: PartitionId) -> Result<(), AdminError>;

    /// Requests a new server with the given configuration. The server
    /// becomes `Provisioning` and turns `Online` after the provider's boot
    /// delay (zero when managing the database directly, §4.3).
    fn provision_server(&mut self, config: StoreConfig) -> Result<ServerId, AdminError>;

    /// Decommissions a server. Its partitions must have been moved off
    /// first; the DFS re-replicates its blocks.
    fn decommission_server(&mut self, server: ServerId) -> Result<(), AdminError>;
}
