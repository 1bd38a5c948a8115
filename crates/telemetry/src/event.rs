//! The typed event taxonomy for the decision audit trail.
//!
//! Each variant captures not just *what* happened but *why*: the observed
//! values and the thresholds they were compared against. The JSON encoding
//! is hand-rolled (one flat object per event, discriminated by `"type"`)
//! and round-trips exactly through [`Event::to_json_line`] /
//! [`Event::from_json`].

use serde_json::{json, Value};

/// Importance of an event; gates what the sinks keep at each verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Decision/action events — the audit trail proper.
    Info,
    /// High-volume evidence events (per-sample, per-flush).
    Debug,
}

/// One observation or decision in the control loop.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// The monitor ingested one server's smoothed load sample (§4.1).
    MonitorSample {
        /// Server the sample describes.
        server: u64,
        /// Smoothed CPU utilisation in `[0, 1]`.
        cpu: f64,
        /// Smoothed io-wait fraction in `[0, 1]`.
        io_wait: f64,
        /// Smoothed memory utilisation in `[0, 1]`.
        mem: f64,
        /// HDFS locality index in `[0, 1]`.
        locality: f64,
    },
    /// Stage A of the decision maker: cluster health vs thresholds (§4.2).
    HealthAssessed {
        /// Servers currently online.
        online: u64,
        /// Servers above the CPU/io-wait high thresholds.
        overloaded: Vec<u64>,
        /// Servers below the low thresholds.
        underloaded: Vec<u64>,
        /// CPU threshold that marks a server overloaded.
        cpu_high: f64,
        /// io-wait threshold that marks a server overloaded.
        io_high: f64,
        /// CPU threshold that marks a server underloaded.
        cpu_low: f64,
        /// io-wait threshold that marks a server underloaded.
        io_low: f64,
    },
    /// Algorithm 1's sizing verdict: how many nodes to add or remove.
    NodeDelta {
        /// Nodes currently in the cluster.
        current: u64,
        /// Signed change decided (quadratic growth, linear shrink).
        delta: i64,
        /// Overloaded-node count that drove the decision.
        overloaded: u64,
        /// Underloaded-node count that drove the decision.
        underloaded: u64,
    },
    /// One partition's workload classification verdict (§4.2, stage B).
    PartitionClassified {
        /// Partition being classified.
        partition: u64,
        /// Verdict: `read` / `write` / `read-write` / `scan`.
        profile: String,
        /// Fraction of operations that were reads.
        read_frac: f64,
        /// Fraction of operations that were writes.
        write_frac: f64,
        /// Fraction of operations that were scans.
        scan_frac: f64,
        /// Dominance threshold the fractions were compared against.
        threshold: f64,
    },
    /// Algorithm 3's output: the distribution plan about to be applied.
    PlanComputed {
        /// Partition moves in the plan.
        moves: u64,
        /// Servers whose configuration profile changes (restart required).
        restarts: u64,
        /// Servers scheduled for decommission.
        decommissions: u64,
        /// Node groups as (profile, node-count) pairs.
        groups: Vec<(String, u64)>,
    },
    /// A baseline controller's rule fired (threshold crossing).
    RuleFired {
        /// Controller name (`tiramola`, `autoscaler`, ...).
        controller: String,
        /// Rule identifier.
        rule: String,
        /// Observed metric value.
        observed: f64,
        /// Threshold the observation crossed.
        threshold: f64,
        /// Action the rule requested.
        action: String,
    },
    /// The actuator started one step of the current plan (§5).
    ActionStarted {
        /// Step kind: `provision`, `drain`, `restart`, `move_in`,
        /// `compact`, `decommission`, `add_node`, `remove_node`, ...
        action: String,
        /// Server the step targets.
        server: u64,
        /// Partition involved, when the step is partition-scoped.
        partition: Option<u64>,
        /// Human-readable cause (profile chosen, move source, ...).
        detail: String,
    },
    /// The actuator finished one step of the current plan.
    ActionCompleted {
        /// Step kind (same vocabulary as [`TelemetryEvent::ActionStarted`]).
        action: String,
        /// Server the step targeted.
        server: u64,
        /// Partition involved, when the step was partition-scoped.
        partition: Option<u64>,
        /// Simulated duration of the step in milliseconds.
        duration_ms: u64,
    },
    /// A reconfiguration (full actuator plan) began executing.
    ReconfigStarted {
        /// Why the decision maker reconfigured.
        reason: String,
    },
    /// The running reconfiguration finished; the monitor resets.
    ReconfigCompleted {
        /// Simulated duration from plan start to completion, ms.
        duration_ms: u64,
    },
    /// The IaaS delivered a new node.
    NodeProvisioned {
        /// Server id assigned to the new node.
        server: u64,
        /// Configuration profile it was started with.
        profile: String,
    },
    /// A node was removed from the cluster.
    NodeDecommissioned {
        /// Server id removed.
        server: u64,
    },
    /// Block-cache counters for one server (from the storage layer).
    CacheReport {
        /// Server the cache belongs to.
        server: u64,
        /// Cumulative cache hits.
        hits: u64,
        /// Cumulative cache misses.
        misses: u64,
        /// Cumulative evictions.
        evictions: u64,
    },
    /// A memstore flushed to an immutable file.
    MemstoreFlush {
        /// Server performing the flush.
        server: u64,
        /// Region flushed.
        region: u64,
        /// Bytes written.
        bytes: u64,
    },
    /// A region split into two daughters.
    RegionSplit {
        /// Server hosting the region.
        server: u64,
        /// Region that split.
        region: u64,
        /// Id of the new (upper) daughter.
        new_region: u64,
    },
    /// A compaction finished (storage or DFS level).
    CompactionDone {
        /// Server the compaction ran on.
        server: u64,
        /// Bytes rewritten.
        bytes: u64,
    },
    /// Locality index sample for one data node (from the DFS layer).
    LocalitySample {
        /// Data node sampled.
        server: u64,
        /// Byte-weighted locality index in `[0, 1]`.
        value: f64,
    },
    /// A scripted fault fired at its injection point (chaos runs only).
    FaultInjected {
        /// Fault kind: `provision_fail`, `slow_boot`, `server_crash`,
        /// `move_fail`, `restart_fail`, `compact_fail`, `datanode_loss`,
        /// `metrics_drop`.
        kind: String,
        /// Server/datanode the fault hit, when entity-scoped.
        target: Option<u64>,
        /// Human-readable description of the effect.
        detail: String,
    },
    /// A failed control-plane step was scheduled for retry with backoff.
    RetryScheduled {
        /// Step kind (same vocabulary as [`TelemetryEvent::ActionStarted`]).
        action: String,
        /// Server the step targets, when known.
        server: Option<u64>,
        /// Partition involved, when the step is partition-scoped.
        partition: Option<u64>,
        /// Failure count so far (1 = first retry pending).
        attempt: u64,
        /// Backoff wait before the next attempt, milliseconds.
        backoff_ms: u64,
        /// The error that triggered the retry.
        error: String,
    },
    /// A control-plane step exhausted its retry budget (or its target
    /// vanished) and was abandoned with a typed error.
    StepFailed {
        /// Step kind (same vocabulary as [`TelemetryEvent::ActionStarted`]).
        action: String,
        /// Server the step targeted, when known.
        server: Option<u64>,
        /// Partition involved, when the step was partition-scoped.
        partition: Option<u64>,
        /// Attempts made before giving up.
        attempts: u64,
        /// The final error.
        error: String,
    },
    /// The actuator re-diffed its intended plan against the cluster after
    /// the step queue drained and re-issued or redistributed work.
    PlanReconciled {
        /// Reconciliation round within the current plan (1-based).
        round: u64,
        /// Steps re-enqueued by the diff.
        reissued: u64,
        /// Partitions redistributed away from dead or abandoned slots.
        redistributed: u64,
        /// Slots given up on (server lost or never provisioned).
        abandoned: u64,
    },
    /// The decision maker entered or left degraded mode on stale metrics.
    DegradedMode {
        /// True on entry, false on recovery.
        entered: bool,
        /// Age of the newest good monitoring data, milliseconds.
        age_ms: u64,
        /// What degradation implies (held classification, vetoed scale-in).
        detail: String,
    },
    /// A batch of WAL records became durable on one server (group commit).
    WalAppend {
        /// Server whose log was appended to.
        server: u64,
        /// Records in the synced batch.
        records: u64,
        /// Bytes made durable.
        bytes: u64,
    },
    /// A re-homed partition began WAL replay on its new server.
    RecoveryStarted {
        /// Server performing the replay.
        server: u64,
        /// Partition (region) being recovered.
        region: u64,
        /// WAL backlog to replay, bytes.
        wal_bytes: u64,
    },
    /// WAL replay finished and the partition is serving again.
    RecoveryCompleted {
        /// Server that performed the replay.
        server: u64,
        /// Partition (region) recovered.
        region: u64,
        /// WAL bytes replayed.
        wal_bytes: u64,
        /// Simulated replay duration, milliseconds.
        duration_ms: u64,
    },
    /// A checksum mismatch was detected on a stored block or WAL record.
    CorruptionDetected {
        /// Server that detected the damage.
        server: u64,
        /// File id of the damaged store file or WAL pseudo-file.
        file: u64,
        /// Byte offset of the first bad block/record.
        offset: u64,
        /// Human-readable description of what was damaged.
        detail: String,
    },
}

/// Discriminant of a [`TelemetryEvent`], for filters and assertions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum EventKind {
    MonitorSample,
    HealthAssessed,
    NodeDelta,
    PartitionClassified,
    PlanComputed,
    RuleFired,
    ActionStarted,
    ActionCompleted,
    ReconfigStarted,
    ReconfigCompleted,
    NodeProvisioned,
    NodeDecommissioned,
    CacheReport,
    MemstoreFlush,
    RegionSplit,
    CompactionDone,
    LocalitySample,
    FaultInjected,
    RetryScheduled,
    StepFailed,
    PlanReconciled,
    DegradedMode,
    WalAppend,
    RecoveryStarted,
    RecoveryCompleted,
    CorruptionDetected,
}

impl EventKind {
    /// Stable name used as the JSON `"type"` discriminator.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::MonitorSample => "monitor_sample",
            EventKind::HealthAssessed => "health_assessed",
            EventKind::NodeDelta => "node_delta",
            EventKind::PartitionClassified => "partition_classified",
            EventKind::PlanComputed => "plan_computed",
            EventKind::RuleFired => "rule_fired",
            EventKind::ActionStarted => "action_started",
            EventKind::ActionCompleted => "action_completed",
            EventKind::ReconfigStarted => "reconfig_started",
            EventKind::ReconfigCompleted => "reconfig_completed",
            EventKind::NodeProvisioned => "node_provisioned",
            EventKind::NodeDecommissioned => "node_decommissioned",
            EventKind::CacheReport => "cache_report",
            EventKind::MemstoreFlush => "memstore_flush",
            EventKind::RegionSplit => "region_split",
            EventKind::CompactionDone => "compaction_done",
            EventKind::LocalitySample => "locality_sample",
            EventKind::FaultInjected => "fault_injected",
            EventKind::RetryScheduled => "retry_scheduled",
            EventKind::StepFailed => "step_failed",
            EventKind::PlanReconciled => "plan_reconciled",
            EventKind::DegradedMode => "degraded_mode",
            EventKind::WalAppend => "wal_append",
            EventKind::RecoveryStarted => "recovery_started",
            EventKind::RecoveryCompleted => "recovery_completed",
            EventKind::CorruptionDetected => "corruption_detected",
        }
    }
}

impl TelemetryEvent {
    /// This event's discriminant.
    pub fn kind(&self) -> EventKind {
        match self {
            TelemetryEvent::MonitorSample { .. } => EventKind::MonitorSample,
            TelemetryEvent::HealthAssessed { .. } => EventKind::HealthAssessed,
            TelemetryEvent::NodeDelta { .. } => EventKind::NodeDelta,
            TelemetryEvent::PartitionClassified { .. } => EventKind::PartitionClassified,
            TelemetryEvent::PlanComputed { .. } => EventKind::PlanComputed,
            TelemetryEvent::RuleFired { .. } => EventKind::RuleFired,
            TelemetryEvent::ActionStarted { .. } => EventKind::ActionStarted,
            TelemetryEvent::ActionCompleted { .. } => EventKind::ActionCompleted,
            TelemetryEvent::ReconfigStarted { .. } => EventKind::ReconfigStarted,
            TelemetryEvent::ReconfigCompleted { .. } => EventKind::ReconfigCompleted,
            TelemetryEvent::NodeProvisioned { .. } => EventKind::NodeProvisioned,
            TelemetryEvent::NodeDecommissioned { .. } => EventKind::NodeDecommissioned,
            TelemetryEvent::CacheReport { .. } => EventKind::CacheReport,
            TelemetryEvent::MemstoreFlush { .. } => EventKind::MemstoreFlush,
            TelemetryEvent::RegionSplit { .. } => EventKind::RegionSplit,
            TelemetryEvent::CompactionDone { .. } => EventKind::CompactionDone,
            TelemetryEvent::LocalitySample { .. } => EventKind::LocalitySample,
            TelemetryEvent::FaultInjected { .. } => EventKind::FaultInjected,
            TelemetryEvent::RetryScheduled { .. } => EventKind::RetryScheduled,
            TelemetryEvent::StepFailed { .. } => EventKind::StepFailed,
            TelemetryEvent::PlanReconciled { .. } => EventKind::PlanReconciled,
            TelemetryEvent::DegradedMode { .. } => EventKind::DegradedMode,
            TelemetryEvent::WalAppend { .. } => EventKind::WalAppend,
            TelemetryEvent::RecoveryStarted { .. } => EventKind::RecoveryStarted,
            TelemetryEvent::RecoveryCompleted { .. } => EventKind::RecoveryCompleted,
            TelemetryEvent::CorruptionDetected { .. } => EventKind::CorruptionDetected,
        }
    }

    /// How important the event is (gated by the pipeline's verbosity).
    pub fn level(&self) -> Level {
        match self.kind() {
            EventKind::MonitorSample
            | EventKind::CacheReport
            | EventKind::MemstoreFlush
            | EventKind::CompactionDone
            | EventKind::LocalitySample
            | EventKind::WalAppend => Level::Debug,
            _ => Level::Info,
        }
    }
}

/// A timestamped, sequenced event as stored by the sinks.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Simulated time of the event, milliseconds since run start.
    pub time_ms: u64,
    /// Emission order within the run (monotone, gap-free per pipeline).
    pub seq: u64,
    /// The event payload.
    pub data: TelemetryEvent,
}

fn opt_u64(v: &Option<u64>) -> Value {
    match v {
        Some(n) => json!(*n),
        None => Value::Null,
    }
}

impl Event {
    /// Encodes the event as a flat JSON object.
    pub fn to_json(&self) -> Value {
        let mut obj = match &self.data {
            TelemetryEvent::MonitorSample { server, cpu, io_wait, mem, locality } => json!({
                "server": *server, "cpu": *cpu, "io_wait": *io_wait,
                "mem": *mem, "locality": *locality,
            }),
            TelemetryEvent::HealthAssessed {
                online,
                overloaded,
                underloaded,
                cpu_high,
                io_high,
                cpu_low,
                io_low,
            } => json!({
                "online": *online, "overloaded": overloaded, "underloaded": underloaded,
                "cpu_high": *cpu_high, "io_high": *io_high,
                "cpu_low": *cpu_low, "io_low": *io_low,
            }),
            TelemetryEvent::NodeDelta { current, delta, overloaded, underloaded } => json!({
                "current": *current, "delta": *delta,
                "overloaded": *overloaded, "underloaded": *underloaded,
            }),
            TelemetryEvent::PartitionClassified {
                partition,
                profile,
                read_frac,
                write_frac,
                scan_frac,
                threshold,
            } => json!({
                "partition": *partition, "profile": profile, "read_frac": *read_frac,
                "write_frac": *write_frac, "scan_frac": *scan_frac, "threshold": *threshold,
            }),
            TelemetryEvent::PlanComputed { moves, restarts, decommissions, groups } => json!({
                "moves": *moves, "restarts": *restarts, "decommissions": *decommissions,
                "groups": groups,
            }),
            TelemetryEvent::RuleFired { controller, rule, observed, threshold, action } => json!({
                "controller": controller, "rule": rule, "observed": *observed,
                "threshold": *threshold, "action": action,
            }),
            TelemetryEvent::ActionStarted { action, server, partition, detail } => json!({
                "action": action, "server": *server,
                "partition": opt_u64(partition), "detail": detail,
            }),
            TelemetryEvent::ActionCompleted { action, server, partition, duration_ms } => json!({
                "action": action, "server": *server,
                "partition": opt_u64(partition), "duration_ms": *duration_ms,
            }),
            TelemetryEvent::ReconfigStarted { reason } => json!({ "reason": reason }),
            TelemetryEvent::ReconfigCompleted { duration_ms } => {
                json!({ "duration_ms": *duration_ms })
            }
            TelemetryEvent::NodeProvisioned { server, profile } => {
                json!({ "server": *server, "profile": profile })
            }
            TelemetryEvent::NodeDecommissioned { server } => json!({ "server": *server }),
            TelemetryEvent::CacheReport { server, hits, misses, evictions } => json!({
                "server": *server, "hits": *hits, "misses": *misses, "evictions": *evictions,
            }),
            TelemetryEvent::MemstoreFlush { server, region, bytes } => {
                json!({ "server": *server, "region": *region, "bytes": *bytes })
            }
            TelemetryEvent::RegionSplit { server, region, new_region } => {
                json!({ "server": *server, "region": *region, "new_region": *new_region })
            }
            TelemetryEvent::CompactionDone { server, bytes } => {
                json!({ "server": *server, "bytes": *bytes })
            }
            TelemetryEvent::LocalitySample { server, value } => {
                json!({ "server": *server, "value": *value })
            }
            TelemetryEvent::FaultInjected { kind, target, detail } => {
                json!({ "kind": kind, "target": opt_u64(target), "detail": detail })
            }
            TelemetryEvent::RetryScheduled {
                action,
                server,
                partition,
                attempt,
                backoff_ms,
                error,
            } => {
                json!({
                    "action": action, "server": opt_u64(server), "partition": opt_u64(partition),
                    "attempt": *attempt, "backoff_ms": *backoff_ms, "error": error,
                })
            }
            TelemetryEvent::StepFailed { action, server, partition, attempts, error } => json!({
                "action": action, "server": opt_u64(server), "partition": opt_u64(partition),
                "attempts": *attempts, "error": error,
            }),
            TelemetryEvent::PlanReconciled { round, reissued, redistributed, abandoned } => json!({
                "round": *round, "reissued": *reissued,
                "redistributed": *redistributed, "abandoned": *abandoned,
            }),
            TelemetryEvent::DegradedMode { entered, age_ms, detail } => {
                json!({ "entered": *entered, "age_ms": *age_ms, "detail": detail })
            }
            TelemetryEvent::WalAppend { server, records, bytes } => {
                json!({ "server": *server, "records": *records, "bytes": *bytes })
            }
            TelemetryEvent::RecoveryStarted { server, region, wal_bytes } => {
                json!({ "server": *server, "region": *region, "wal_bytes": *wal_bytes })
            }
            TelemetryEvent::RecoveryCompleted { server, region, wal_bytes, duration_ms } => json!({
                "server": *server, "region": *region,
                "wal_bytes": *wal_bytes, "duration_ms": *duration_ms,
            }),
            TelemetryEvent::CorruptionDetected { server, file, offset, detail } => json!({
                "server": *server, "file": *file, "offset": *offset, "detail": detail,
            }),
        };
        if let Value::Object(map) = &mut obj {
            map.insert("t_ms".to_string(), json!(self.time_ms));
            map.insert("seq".to_string(), json!(self.seq));
            map.insert("type".to_string(), json!(self.data.kind().as_str()));
        }
        obj
    }

    /// Encodes the event as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        serde_json::to_string(&self.to_json()).expect("event encoding is infallible")
    }

    /// Decodes an event from its JSON object form. Returns `None` when the
    /// object is not a well-formed event.
    pub fn from_json(v: &Value) -> Option<Event> {
        let time_ms = v["t_ms"].as_u64()?;
        let seq = v["seq"].as_u64()?;
        let ty = v["type"].as_str()?;
        let f = |key: &str| v[key].as_f64();
        let u = |key: &str| v[key].as_u64();
        let s = |key: &str| v[key].as_str().map(str::to_string);
        let opt = |key: &str| {
            if v[key].is_null() {
                Some(None)
            } else {
                v[key].as_u64().map(Some)
            }
        };
        let vec_u64 = |key: &str| -> Option<Vec<u64>> {
            v[key].as_array()?.iter().map(Value::as_u64).collect()
        };
        let data = match ty {
            "monitor_sample" => TelemetryEvent::MonitorSample {
                server: u("server")?,
                cpu: f("cpu")?,
                io_wait: f("io_wait")?,
                mem: f("mem")?,
                locality: f("locality")?,
            },
            "health_assessed" => TelemetryEvent::HealthAssessed {
                online: u("online")?,
                overloaded: vec_u64("overloaded")?,
                underloaded: vec_u64("underloaded")?,
                cpu_high: f("cpu_high")?,
                io_high: f("io_high")?,
                cpu_low: f("cpu_low")?,
                io_low: f("io_low")?,
            },
            "node_delta" => TelemetryEvent::NodeDelta {
                current: u("current")?,
                delta: f("delta")? as i64,
                overloaded: u("overloaded")?,
                underloaded: u("underloaded")?,
            },
            "partition_classified" => TelemetryEvent::PartitionClassified {
                partition: u("partition")?,
                profile: s("profile")?,
                read_frac: f("read_frac")?,
                write_frac: f("write_frac")?,
                scan_frac: f("scan_frac")?,
                threshold: f("threshold")?,
            },
            "plan_computed" => TelemetryEvent::PlanComputed {
                moves: u("moves")?,
                restarts: u("restarts")?,
                decommissions: u("decommissions")?,
                groups: v["groups"]
                    .as_array()?
                    .iter()
                    .map(|g| Some((g[0].as_str()?.to_string(), g[1].as_u64()?)))
                    .collect::<Option<Vec<_>>>()?,
            },
            "rule_fired" => TelemetryEvent::RuleFired {
                controller: s("controller")?,
                rule: s("rule")?,
                observed: f("observed")?,
                threshold: f("threshold")?,
                action: s("action")?,
            },
            "action_started" => TelemetryEvent::ActionStarted {
                action: s("action")?,
                server: u("server")?,
                partition: opt("partition")?,
                detail: s("detail")?,
            },
            "action_completed" => TelemetryEvent::ActionCompleted {
                action: s("action")?,
                server: u("server")?,
                partition: opt("partition")?,
                duration_ms: u("duration_ms")?,
            },
            "reconfig_started" => TelemetryEvent::ReconfigStarted { reason: s("reason")? },
            "reconfig_completed" => {
                TelemetryEvent::ReconfigCompleted { duration_ms: u("duration_ms")? }
            }
            "node_provisioned" => {
                TelemetryEvent::NodeProvisioned { server: u("server")?, profile: s("profile")? }
            }
            "node_decommissioned" => TelemetryEvent::NodeDecommissioned { server: u("server")? },
            "cache_report" => TelemetryEvent::CacheReport {
                server: u("server")?,
                hits: u("hits")?,
                misses: u("misses")?,
                evictions: u("evictions")?,
            },
            "memstore_flush" => TelemetryEvent::MemstoreFlush {
                server: u("server")?,
                region: u("region")?,
                bytes: u("bytes")?,
            },
            "region_split" => TelemetryEvent::RegionSplit {
                server: u("server")?,
                region: u("region")?,
                new_region: u("new_region")?,
            },
            "compaction_done" => {
                TelemetryEvent::CompactionDone { server: u("server")?, bytes: u("bytes")? }
            }
            "locality_sample" => {
                TelemetryEvent::LocalitySample { server: u("server")?, value: f("value")? }
            }
            "fault_injected" => TelemetryEvent::FaultInjected {
                kind: s("kind")?,
                target: opt("target")?,
                detail: s("detail")?,
            },
            "retry_scheduled" => TelemetryEvent::RetryScheduled {
                action: s("action")?,
                server: opt("server")?,
                partition: opt("partition")?,
                attempt: u("attempt")?,
                backoff_ms: u("backoff_ms")?,
                error: s("error")?,
            },
            "step_failed" => TelemetryEvent::StepFailed {
                action: s("action")?,
                server: opt("server")?,
                partition: opt("partition")?,
                attempts: u("attempts")?,
                error: s("error")?,
            },
            "plan_reconciled" => TelemetryEvent::PlanReconciled {
                round: u("round")?,
                reissued: u("reissued")?,
                redistributed: u("redistributed")?,
                abandoned: u("abandoned")?,
            },
            "degraded_mode" => TelemetryEvent::DegradedMode {
                entered: v["entered"].as_bool()?,
                age_ms: u("age_ms")?,
                detail: s("detail")?,
            },
            "wal_append" => TelemetryEvent::WalAppend {
                server: u("server")?,
                records: u("records")?,
                bytes: u("bytes")?,
            },
            "recovery_started" => TelemetryEvent::RecoveryStarted {
                server: u("server")?,
                region: u("region")?,
                wal_bytes: u("wal_bytes")?,
            },
            "recovery_completed" => TelemetryEvent::RecoveryCompleted {
                server: u("server")?,
                region: u("region")?,
                wal_bytes: u("wal_bytes")?,
                duration_ms: u("duration_ms")?,
            },
            "corruption_detected" => TelemetryEvent::CorruptionDetected {
                server: u("server")?,
                file: u("file")?,
                offset: u("offset")?,
                detail: s("detail")?,
            },
            _ => return None,
        };
        Some(Event { time_ms, seq, data })
    }

    /// Decodes one JSONL line.
    pub fn from_json_line(line: &str) -> Option<Event> {
        Event::from_json(&serde_json::from_str(line).ok()?)
    }
}

/// Parses a whole JSONL trace, skipping blank lines. Returns `None` if any
/// non-blank line fails to decode.
pub fn parse_trace(text: &str) -> Option<Vec<Event>> {
    text.lines().filter(|l| !l.trim().is_empty()).map(Event::from_json_line).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TelemetryEvent> {
        vec![
            TelemetryEvent::MonitorSample {
                server: 3,
                cpu: 0.91,
                io_wait: 0.12,
                mem: 0.4,
                locality: 0.85,
            },
            TelemetryEvent::HealthAssessed {
                online: 4,
                overloaded: vec![1, 3],
                underloaded: vec![],
                cpu_high: 0.85,
                io_high: 0.3,
                cpu_low: 0.25,
                io_low: 0.05,
            },
            TelemetryEvent::NodeDelta { current: 4, delta: 2, overloaded: 2, underloaded: 0 },
            TelemetryEvent::PartitionClassified {
                partition: 7,
                profile: "read".to_string(),
                read_frac: 0.8,
                write_frac: 0.15,
                scan_frac: 0.05,
                threshold: 0.6,
            },
            TelemetryEvent::PlanComputed {
                moves: 5,
                restarts: 2,
                decommissions: 0,
                groups: vec![("read".to_string(), 3), ("write".to_string(), 1)],
            },
            TelemetryEvent::RuleFired {
                controller: "autoscaler".to_string(),
                rule: "cpu-high".to_string(),
                observed: 0.92,
                threshold: 0.85,
                action: "scale_out".to_string(),
            },
            TelemetryEvent::ActionStarted {
                action: "move_in".to_string(),
                server: 2,
                partition: Some(7),
                detail: "to read group".to_string(),
            },
            TelemetryEvent::ActionCompleted {
                action: "provision".to_string(),
                server: 9,
                partition: None,
                duration_ms: 45_000,
            },
            TelemetryEvent::ReconfigStarted { reason: "2 overloaded".to_string() },
            TelemetryEvent::ReconfigCompleted { duration_ms: 120_000 },
            TelemetryEvent::NodeProvisioned { server: 9, profile: "read".to_string() },
            TelemetryEvent::NodeDecommissioned { server: 1 },
            TelemetryEvent::CacheReport { server: 1, hits: 900, misses: 100, evictions: 20 },
            TelemetryEvent::MemstoreFlush { server: 1, region: 4, bytes: 65_536 },
            TelemetryEvent::RegionSplit { server: 1, region: 4, new_region: 11 },
            TelemetryEvent::CompactionDone { server: 2, bytes: 1 << 20 },
            TelemetryEvent::LocalitySample { server: 2, value: 0.75 },
            TelemetryEvent::FaultInjected {
                kind: "server_crash".to_string(),
                target: Some(3),
                detail: "server 3 crashed; 4 partitions orphaned".to_string(),
            },
            TelemetryEvent::RetryScheduled {
                action: "provision".to_string(),
                server: None,
                partition: None,
                attempt: 1,
                backoff_ms: 2_000,
                error: "injected provision failure".to_string(),
            },
            TelemetryEvent::StepFailed {
                action: "move_in".to_string(),
                server: Some(4),
                partition: Some(7),
                attempts: 4,
                error: "server 4 unavailable".to_string(),
            },
            TelemetryEvent::PlanReconciled {
                round: 1,
                reissued: 2,
                redistributed: 4,
                abandoned: 1,
            },
            TelemetryEvent::DegradedMode {
                entered: true,
                age_ms: 95_000,
                detail: "metrics stale; scale-in vetoed".to_string(),
            },
            TelemetryEvent::WalAppend { server: 2, records: 16, bytes: 2_048 },
            TelemetryEvent::RecoveryStarted { server: 5, region: 7, wal_bytes: 48 << 20 },
            TelemetryEvent::RecoveryCompleted {
                server: 5,
                region: 7,
                wal_bytes: 48 << 20,
                duration_ms: 960,
            },
            TelemetryEvent::CorruptionDetected {
                server: 3,
                file: 42,
                offset: 4_096,
                detail: "block checksum mismatch in file 42".to_string(),
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_jsonl() {
        let events: Vec<Event> = samples()
            .into_iter()
            .enumerate()
            .map(|(i, data)| Event { time_ms: 1000 * i as u64, seq: i as u64, data })
            .collect();
        let text: String =
            events.iter().map(|e| e.to_json_line() + "\n").collect::<Vec<_>>().join("");
        let parsed = parse_trace(&text).expect("trace parses");
        assert_eq!(parsed, events);
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(Event::from_json_line("{}").is_none());
        assert!(Event::from_json_line("not json").is_none());
        assert!(Event::from_json_line("{\"t_ms\": 1, \"seq\": 0, \"type\": \"no_such_event\"}")
            .is_none());
    }

    #[test]
    fn levels_split_audit_from_debug() {
        for e in samples() {
            let expected = matches!(
                e.kind(),
                EventKind::MonitorSample
                    | EventKind::CacheReport
                    | EventKind::MemstoreFlush
                    | EventKind::CompactionDone
                    | EventKind::LocalitySample
                    | EventKind::WalAppend
            );
            assert_eq!(e.level() == Level::Debug, expected, "{:?}", e.kind());
        }
    }
}
