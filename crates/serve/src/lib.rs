//! `tsc-serve` — a hermetic multi-threaded thermal-solve service.
//!
//! The workspace's solvers are libraries; this crate puts them behind a
//! long-running process so placement sweeps, co-design studies, and CI
//! harnesses can share one warm solver state instead of paying assembly
//! and multigrid-hierarchy construction per invocation.  Everything is
//! `std`-only: the HTTP/1.1 layer is hand-rolled and strictly bounded
//! ([`http`]), JSON bodies use the `tsc_bench::json` dialect, and the
//! threading primitives are `Mutex`/`Condvar`/atomics.
//!
//! # Endpoints
//!
//! | Endpoint            | Semantics                                           |
//! |---------------------|-----------------------------------------------------|
//! | `POST /v1/solve`    | One stack solve at a fixed configuration            |
//! | `POST /v1/flow`     | A full co-design flow run (Sec. III flows)          |
//! | `POST /v1/pillars`  | A pillar placement run (Sec. IIIA)                  |
//! | `POST /v1/transient`| A stateful streamed transient session ([`session`]) |
//! | `POST /v1/jobs`     | Submit a long-running optimization job (`jobs.rs`)  |
//! | `GET /v1/jobs/{id}` | Job status (`/events` streams NDJSON progress,      |
//! |                     | `POST …/cancel` stops, `GET …/checkpoint` resumes)  |
//! | `GET /v1/designs`   | The built-in design registry                        |
//! | `GET /metrics`      | Prometheus text exposition                          |
//! | `GET /healthz`      | Liveness probe                                      |
//! | `POST /v1/shutdown` | Request a graceful drain (the CLI honours it)       |
//!
//! # Architecture
//!
//! Heavy requests flow: connection thread → [coalescing map, keyed by
//! the canonical request] → bounded job queue (429 + `Retry-After` when
//! full) → worker thread → the operator's pooled entry (built stack and
//! `SolveContext`, one LRU [`pool::ServicePools::operators`] entry keyed
//! by the operator's canonical string) → response fanned out to every
//! coalesced waiter as the same bytes.  Deadlines are waiter-side only
//! (504): an accepted job always executes, keeping the pool warm.
//! Shutdown closes the queue and drains it — accepted work is never
//! dropped.

#![forbid(unsafe_code)]

pub mod api;
pub mod http;
pub(crate) mod jobs;
pub mod locks;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod ring;
pub mod router;
pub mod server;
pub mod session;
pub mod shard;

pub use api::ApiJob;
pub use http::{Limits, Request, Response};
pub use locks::{lock_or_recover, RankedMutex};
pub use metrics::{validate_exposition, Metrics};
pub use pool::{LruPool, ServicePools};
pub use queue::Priority;
pub use ring::HashRing;
pub use router::{Affinity, Router, RouterConfig};
pub use server::{Server, ServerConfig};
pub use shard::{ShardProcess, ShardSpec};
