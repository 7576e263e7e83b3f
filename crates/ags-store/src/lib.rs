//! Durable storage for the Gaussian map — epoch-delta checkpoints.
//!
//! A SLAM stream's map evolves as a sequence of *epochs* (one published map
//! step per mapped frame, see `ags_splat::SharedCloud`). This crate persists
//! that sequence incrementally:
//!
//! - [`MapStore`] is the key/value backend abstraction, with an in-memory
//!   backend ([`MemoryStore`]) and a file-backed one ([`FileStore`]).
//! - Every record is wrapped in checksummed, versioned framing
//!   ([`framing`]): a torn or corrupted write is *detected* on read and the
//!   reader falls back to the previous good checkpoint generation instead of
//!   silently loading garbage.
//! - [`EpochStore`] lays out one epoch log per stream: a full **base**
//!   snapshot plus per-epoch [`CloudDelta`]s (changed / added / pruned
//!   splats diffed against the last persisted epoch), a **manifest** written
//!   last as the atomicity point of each checkpoint generation, and GC of
//!   superseded generations.
//! - Nothing is written between commits: [`EpochStore::commit`] persists
//!   its window's epochs, the aux payload and the manifest synchronously on
//!   the caller's thread, so what is on the store is a function of the
//!   stream and its checkpoint policy.
//! - [`FaultPlan`] / [`FaultStore`] inject write failures, corruption and
//!   read errors for crash testing; transient errors are retried through a
//!   deterministic [`RetryPolicy`] on the write path.
//! - [`RemoteStore`] speaks a length-framed TCP blob protocol to a
//!   [`StoreServer`] (or the `ags-store-server` binary) backed by any other
//!   [`MapStore`] — with per-attempt timeouts, reconnect-and-retry on
//!   transient transport failures, and [`NetFaultProxy`] injecting
//!   deterministic network faults (latency, disconnects, torn or duplicated
//!   responses) for tests.
//! - [`EpochStore::open`] adopts the newest generation from its manifest
//!   alone and [`EpochStore::restore_latest`] streams the chain in one
//!   pass, so a restore fetches each chain record exactly once.

#![warn(missing_docs)]

mod backend;
mod delta;
mod epoch;
mod error;
mod fault;
pub mod framing;
mod net_fault;
mod remote;
mod retry;
mod wire;

pub use backend::{FileStore, MapStore, MemoryStore};
pub use delta::{decode_cloud_payload, encode_cloud_payload, CloudDelta};
pub use epoch::{CheckpointConfig, CommitReport, EpochStore, RestoredCheckpoint, StoreStats};
pub use error::StoreError;
pub use fault::{FaultCounters, FaultPlan, FaultStore};
pub use net_fault::{NetFaultPlan, NetFaultProxy};
pub use remote::{RemoteCounters, RemoteStore, StoreServer};
pub use retry::{RetryPolicy, RetryTelemetry};
pub use wire::{ByteReader, ByteWriter};
