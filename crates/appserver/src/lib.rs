//! # xqib-appserver
//!
//! The **server tier** of the Elsevier Reference 2.0 scenario (§6.1): an
//! XML document database (the MarkLogic stand-in), an XQuery application
//! server that renders pages server-side, a REST interface that serves
//! whole documents (the migration's caching-friendly API), and the
//! server-to-client **migration** transformation the paper describes:
//!
//! > "the prolog is directly inserted into the script tag, whereas the
//! > contents enclosed in the outermost element constructors (formerly
//! > computed by the server) are removed and put into insert expressions
//! > in the main function (they will be inserted by the client)."
//!
//! Plus a deterministic synthetic corpus generator (journals → volumes →
//! issues → articles with reference lists) standing in for Elsevier's
//! proprietary content, and the per-deployment metrics the Figure 2
//! experiment reports.

// The server tier must degrade, never die: every fallible path returns a
// typed error. Tests opt back in per-module.
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cluster;
pub mod corpus;
pub mod fleet;
pub mod governor;
pub mod metrics;
pub mod migrate;
pub mod render;
mod replica;
pub mod server;
pub mod simulate;
pub mod webservice;
pub mod xmldb;

pub use cluster::{
    Cluster, ClusterChaos, ClusterCompletion, ClusterConfig, ClusterOutcome, IntegrityStats,
    ReplicationStats, ReshardStats, RouteCache, Router, Submitted, TopologyChange, TopologyEpoch,
};
pub use corpus::{generate_corpus, CorpusSpec};
pub use fleet::{fleet_docs, ClientReport, FleetStats, Scenario};
pub use governor::{Class, GovernorConfig, RequestGovernor};
pub use metrics::{MetricsSnapshot, ServerMetrics};
pub use server::AppServer;
pub use simulate::{run_sim, ArrivalPattern, ClientSpec, RouteMix, SimConfig, SimReport};
pub use webservice::WebServiceHost;
pub use xmldb::{DurabilityConfig, XmlDb};
