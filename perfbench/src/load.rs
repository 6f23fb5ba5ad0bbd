//! The benchmark's fixed inputs. The offered rates were fixed once from
//! the closed-loop capacity `auth_tcp` prints on every run (about 300k
//! auth/s with two connections on a 2-vCPU virtual machine; about 30k
//! churn ops/s closed loop) and are never recomputed, so a faster change
//! cannot shift its own load.

/// Set-up is repeated this many times per run and the median reported.
pub const SETUP_REPS: usize = 3;

/// Boards per closed provisioning batch, the `repro fleet` scale; the
/// tail of a batch is a few percent of it.
pub const BATCH: usize = 1024;

/// Devices pre-filled into the serve store: 100k device states do not
/// fit in CPU cache.
pub const DEVICES: u64 = 100_000;

/// Store shard files, as a deployment would configure.
pub const SHARDS: usize = 8;

/// Distinct silicon boards behind the store devices, grown at set-up.
pub const POOL: usize = 256;

/// `auth_tcp` low rate, requests/s: 10% of closed-loop capacity, so
/// latency sits near its floor.
pub const LOW_RPS: f64 = 30_000.0;

/// `auth_tcp` high rate, requests/s: 50% of closed-loop capacity, where
/// queueing starts to show.
pub const HIGH_RPS: f64 = 150_000.0;

/// Rate of the churn mix in `auth_tcp`'s traced run, requests/s: 20% of
/// closed-loop churn capacity, so 3600 fdatasync'd writes/s.
pub const CHURN_RPS: f64 = 6_000.0;

/// Requests in flight per connection in `auth_tcp`'s closed-loop
/// capacity phase (one per connection is bound by round trips).
pub const IN_FLIGHT: usize = 4;

/// `auth_max_rps` rungs, requests/s, 7-10% apart, bracketing the
/// open-loop knee seen between 220k and 340k req/s; three probes of
/// the binary search find the rung.
pub const LADDER: [f64; 8] = [
    200_000.0, 220_000.0, 240_000.0, 260_000.0, 280_000.0, 300_000.0, 320_000.0, 340_000.0,
];

/// A ladder rung passes when its auth p90 is at most this many
/// microseconds: 6x the 15 us floor, far below the milliseconds past
/// saturation.
pub const P90_LIMIT_US: f64 = 100.0;

/// One line naming every fixed input.
pub fn describe() -> String {
    format!(
        "load: setup reps {SETUP_REPS}, batch {BATCH} boards, store {DEVICES} devices in \
         {SHARDS} shards over {POOL} boards, auth_tcp {LOW_RPS}/{HIGH_RPS} req/s, \
         traced churn mix {CHURN_RPS} req/s, capacity {IN_FLIGHT} in flight per connection, \
         ladder {LADDER:?} req/s at p90 <= {P90_LIMIT_US} us"
    )
}
