#![warn(missing_docs)]

//! Device-authentication service over the configurable RO PUF.
//!
//! The server side of the enrollment lifecycle: devices enroll once
//! through the typestate API in `ropuf_core::lifecycle` (producing
//! helper data + a Key Code), and this crate stores those artefacts
//! and answers `auth`/`derive_key` requests against fresh response
//! read-outs — the verifier role of the Gao, Lai & Qu (DAC 2014)
//! deployment story.
//!
//! * [`proto`] — the length-prefixed binary wire protocol
//!   (`enroll`/`auth`/`derive_key`/`revoke`), with erasure-aware
//!   response encoding,
//! * [`store`] — the sharded, fsync'd, append-only enrollment store
//!   (versioned `RPUFSTOR` shard files; helper data and Key Codes
//!   only — raw delays never touch this layer),
//! * [`service`] — the gate pipeline: replay nonces, deterministic
//!   failure lockout, quarantine-aware degradation, health gauges,
//! * [`net`] — a hand-rolled accept-queue/worker-pool TCP loop (no
//!   async runtime, no new dependencies),
//! * [`admin`] — the read-only HTTP scrape surface (`/metrics`,
//!   `/healthz`, `/slo`) on an accept thread of its own,
//! * [`ops`] — the rolling-window operations plane and the two
//!   service-level objectives computed from its windows,
//! * [`access`] — request ids, gate stage timing, and the sampled
//!   JSONL access log,
//! * [`drill`] — the device provisioner and the deterministic
//!   end-to-end drills, scripted sessions whose transcript is
//!   byte-identical across runs and thread counts.

pub mod access;
pub mod admin;
pub mod drill;
pub mod net;
pub mod ops;
pub mod proto;
pub mod service;
pub mod store;

#[cfg(test)]
pub(crate) mod testutil;

pub use access::{AccessLog, RequestId};
pub use drill::{
    provision, run_drill, run_reenroll_drill, DrillReport, DrillSpec, Provisioned,
    ReenrollDrillReport, ReenrollDrillSpec, ReenrollStage,
};
pub use net::{serve, serve_with_admin, Client, ServerHandle};
pub use ops::OpsPlane;
pub use proto::{RejectReason, Reply, Request, WireBits};
pub use service::{PufService, ServiceConfig, ServiceOptions, ServiceStats};
pub use store::{FsyncPolicy, Store, StoreError};
