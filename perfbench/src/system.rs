//! The system under test, built the way `pubsub serve` builds it.
//!
//! Every broker the benchmark measures comes from [`broker`], so a change
//! to how brokers are constructed touches this one function.

use pubsub_broker::{PublishMode, SharedBroker};
use pubsub_core::{default_shards, Backpressure, EngineKind};
use pubsub_durability::DurabilityConfig;
use pubsub_net::Server;
use std::path::Path;
use std::sync::Arc;

/// A broker with the server defaults: `dynamic` engine, default shard
/// count, `Backpressure::Block`, RCU publishes, and — when `durable_dir` is
/// given — the default durability configuration in that directory.
pub fn broker(durable_dir: Option<&Path>) -> Result<SharedBroker, String> {
    let kind = EngineKind::Dynamic;
    let shards = default_shards().max(1);
    match durable_dir {
        None => Ok(SharedBroker::with_publish_mode(
            kind,
            shards,
            Backpressure::Block,
            PublishMode::Rcu,
        )),
        Some(dir) => SharedBroker::open_durable_with(
            kind,
            shards,
            Backpressure::Block,
            dir,
            DurabilityConfig::default(),
        )
        .map(|(broker, _report)| broker)
        .map_err(|e| format!("opening the durable broker in {}: {e}", dir.display())),
    }
}

/// Serves `broker` on an ephemeral loopback port with the default
/// `ServerConfig`.
pub fn serve(broker: Arc<SharedBroker>) -> Result<Server, String> {
    Server::start(broker, "127.0.0.1:0").map_err(|e| format!("starting the server: {e}"))
}
