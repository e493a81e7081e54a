//! # stencil-serve
//!
//! A caching mapping service in front of the `stencilmap` engine.  Clients
//! send newline-delimited JSON mapping requests (over TCP or stdin/stdout)
//! and receive the process-to-node mapping plus its `Jsum`/`Jmax` cost.
//!
//! * **Canonicalizing cache** — requests are normalised with
//!   [`stencil_mapping::canonical`] (dimension permutation + stencil offset
//!   order) before hitting a sharded LRU keyed by
//!   `(dims, stencil, alloc, algorithm)`, so equivalent requests share one
//!   entry regardless of orientation.
//! * **Allocation-free misses** — cache misses run through the existing
//!   parallel mapping engine (rank-local mappers via the workspace pool, the
//!   VieM-style pipeline via the multilevel partitioner).
//! * **Admission control** — every computed mapping is scored once with the
//!   streaming evaluator; requests can carry a `max_jsum` budget and either
//!   get rejected or transparently fall back to a specialised algorithm that
//!   fits the budget.
//! * **Cheap hit path** — responses can skip the node table entirely
//!   (`want_mapping: false`), carry it as one base64 delta-varint string
//!   (`"encoding":"compact"`, ~3 bytes/entry less wire and far less
//!   serialisation than the verbose JSON array), or answer point lookups
//!   (`"query":"new_rank_of"`) straight from the cached mapping.
//! * **Write-behind persistence** — with `--persist FILE` the canonical
//!   cache entries survive restarts: inserts and touches append to a log
//!   from a background thread, the log is replayed and compacted on start,
//!   so warm-up after a restart is free.
//! * **Determinism** — responses are byte-identical for every thread count
//!   (asserted in CI by replaying a request batch under
//!   `RAYON_NUM_THREADS ∈ {1, 4}` and comparing outputs).
//! * **Horizontal scale** — `--route` turns a process into a consistent-hash
//!   [`router`] over a pool of shared-nothing backends: canonically-equal
//!   requests colocate on one backend shard, so routed transcripts stay
//!   byte-identical to a single process, and `--handoff` ships a compacted
//!   persistence log to warm a new shard (see `docs/OPERATIONS.md`).
//!
//! ## Quick example
//!
//! ```
//! use stencil_serve::service::{MappingService, ServiceConfig};
//!
//! let service = MappingService::new(&ServiceConfig::default());
//! let reply = service.handle_line(
//!     r#"{"id":1,"dims":[12,8],"nodes":8,"algorithm":"hyperplane","want_mapping":false}"#,
//! );
//! assert!(reply.contains("\"status\":\"ok\""));
//! let warm = service.handle_line(
//!     r#"{"id":2,"dims":[8,12],"nodes":8,"algorithm":"hyperplane","want_mapping":false}"#,
//! );
//! // the permuted grid hits the same canonical cache entry
//! assert!(warm.contains("\"cached\":true"));
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod cache;
pub mod faultpoint;
pub mod json;
pub mod persist;
pub mod protocol;
pub mod router;
pub mod server;
pub mod service;
pub mod transcript;
pub mod wire;

pub use cache::{CacheStats, EvictionPolicy, ShardedLru};
pub use protocol::{
    Algorithm, Encoding, MapRequest, MapResponse, OverBudget, Payload, Query, ResponseBody,
};
pub use router::{Ring, Router, RouterStats};
pub use server::LineHandler;
pub use service::{CacheEntry, CacheKey, MappingService, ServiceConfig};
