//! The bulk-synchronization constants of §3.2, defined once for every
//! layer that batches small work: the simulator's coordinator
//! (`hipress_core::exec`), the runtime node loop's batch compression,
//! and the TCP mesh's per-peer send queue (`hipress_fabric::tcp`).

/// A link's batch of queued sends is flushed once it holds this many
/// bytes.
pub const LINK_BATCH_BYTES: u64 = 4 * 1024 * 1024;

/// A link's batch of queued sends is flushed once its oldest send has
/// waited this long.
pub const LINK_BATCH_TIMEOUT_NS: u64 = 100_000;

/// Work at or below this size batches: a codec task joins one launch
/// with its neighbours, a data frame joins its link's send queue.
/// Anything larger goes alone.
pub const BATCH_MAX_TASK_BYTES: u64 = 256 * 1024;
