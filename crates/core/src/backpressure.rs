//! Overload policy and default parallelism for the concurrent layers built
//! on these engines: the broker's shared publish path and the network
//! server's delivery queues.

/// What a concurrent publish does when the resource it needs is busy.
///
/// Two places apply it:
///
/// * the network server's per-connection delivery queue (`ServerConfig`'s
///   `delivery` field in `pubsub-net`), when a subscriber's outbound queue is
///   full;
/// * `SharedBroker` in `PublishMode::Locked` (`pubsub-broker`), when a
///   publish finds a shard lock held. The default RCU publish mode never
///   contends, so there the policy has no effect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait until the queue has space or the lock is free (lossless,
    /// unbounded latency).
    #[default]
    Block,
    /// Skip the busy resource: the server drops the notification and leaves
    /// a sequence gap; the locked broker skips the contended shard and the
    /// publish result misses its matches (bounded latency, degraded result).
    Shed,
    /// Fail fast so the caller can back off: the server disconnects the
    /// slow subscriber (its session survives for resume); the locked broker's
    /// `try_publish_into` returns [`pubsub_types::ShardError::Overloaded`].
    /// Infallible publish paths degrade this policy to [`Shed`].
    ///
    /// [`Shed`]: Backpressure::Shed
    ErrorFast,
}

impl std::fmt::Display for Backpressure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backpressure::Block => "block",
            Backpressure::Shed => "shed",
            Backpressure::ErrorFast => "error-fast",
        })
    }
}

impl std::str::FromStr for Backpressure {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "block" => Backpressure::Block,
            "shed" => Backpressure::Shed,
            "error-fast" | "error_fast" | "errorfast" => Backpressure::ErrorFast,
            other => return Err(format!("unknown backpressure policy: {other}")),
        })
    }
}

/// Default shard count: one per available hardware thread.
pub fn default_shards() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backpressure_parses_and_displays() {
        for p in [
            Backpressure::Block,
            Backpressure::Shed,
            Backpressure::ErrorFast,
        ] {
            let parsed: Backpressure = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("nonsense".parse::<Backpressure>().is_err());
    }
}
