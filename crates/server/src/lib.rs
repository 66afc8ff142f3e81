//! `matlang_server` — a concurrent MATLANG query service with incremental
//! instance updates.
//!
//! The paper frames MATLANG as a *query language* over matrix instances;
//! everything below `matlang_engine` evaluates one expression in one
//! process.  This crate is the missing service layer: a long-lived,
//! in-memory server that holds **named instances**, lets clients
//! **prepare** queries once and execute them many times against a
//! **persistent memo cache**, and accepts **incremental updates** that
//! invalidate exactly the cached plan nodes depending on the touched
//! variable — so standing analytics queries over a mutating graph only
//! recompute the dirty subgraph of their plan DAG.
//!
//! Built entirely on `std` (the environment is offline): a hand-rolled
//! line-delimited text protocol over [`std::net::TcpListener`]
//! ([`protocol`]), an accept loop feeding a bounded connection queue with
//! backpressure ([`worker`]), and session worker threads each serving one
//! session at a time ([`session`]).  A request runs on the worker that
//! read it, kernels included: concurrency comes from the workers alone.
//!
//! Every instance stores its matrices adaptively (dense or CSR per
//! variable, by density; the wire's `dense` backend word is an alias).
//! Results over the wire are **bit-identical** to [`matlang_core::evaluate`]
//! over dense storage — values use shortest-round-trip `f64`
//! formatting, and the engine executing the plans is already pinned
//! bit-identical to the tree evaluator.  The `server_integration` suite
//! enforces this over the shared evaluator corpus.
//!
//! Instances over an **idempotent semiring** (`bool`, `minplus`) get exact
//! **delta-driven view maintenance**: an insert-only `UPDATE` is propagated
//! through the prepared plan DAG ([`matlang_engine::delta`]) instead of
//! invalidating it, so standing queries stay warm across updates.  Every
//! `UPDATE` reply says which path ran (`delta=applied patched=…` or
//! `delta=fallback reason=…`).
//!
//! ```
//! use matlang_server::{Client, DeltaWire, SemiringKind, Server, ServerConfig};
//!
//! let handle = Server::spawn(ServerConfig::default()).unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! assert!(client.hello().unwrap().has_capability("delta"));
//! client.create_instance_with("g", true, SemiringKind::Boolean).unwrap();
//! client.set_dim("g", "n", 3).unwrap();
//! client.load("g", "G", 3, 3, &[(0, 1, 1.0), (1, 2, 1.0)]).unwrap();
//! let qid = client.prepare("g", "(G * G)").unwrap();
//! let two_hop = client.exec("g", qid).unwrap();
//! assert_eq!(two_hop.entries, vec![(0, 2, 1.0)]);
//! // Add the edge 2→0 and re-run: the Boolean insert is delta-propagated,
//! // so the standing query answers from the patched cache.
//! let reply = client.update("g", "G", &[(2, 0, 1.0)]).unwrap();
//! assert!(matches!(reply.delta, DeltaWire::Applied { .. }));
//! assert_eq!(client.exec("g", qid).unwrap().entries.len(), 3);
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]

pub mod client;
pub mod config;
pub mod error;
pub mod persist;
pub mod protocol;
pub mod session;
pub mod store;
pub mod worker;

pub use client::{
    parse_metrics_map, Client, ClientError, DeltaWire, ErrorCode, InstanceEntry, ServerHello,
    SlowlogEntry, UpdateReply,
};
pub use config::{
    StoreConfig, StoreConfigBuilder, DEFAULT_REPLAN_DRIFT, DEFAULT_WAL_COMPACT, PLAN_CACHE_CAPACITY,
};
pub use error::ServerError;
pub use protocol::{
    ExecStatsWire, GenKind, Request, ResponseHeader, SemiringKind, SharedResult, WireResult,
    CAPABILITIES, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
pub use session::SessionStats;
pub use store::{
    DeltaDisposition, HealthReport, InstanceInfo, PrepareOutcome, ResourceAccount, ServerSemiring,
    Store, UpdateOutcome, WalStat, MAX_DIMENSION,
};
pub use worker::ConnQueue;

use std::collections::HashMap;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// A point-in-time view of one live session's accounting (see
/// [`SessionStats`]), readable without touching the session's socket.
#[derive(Clone, Debug)]
pub struct SessionSnapshot {
    /// Registry id of the session (monotonic per server).
    pub id: u64,
    /// Requests served, including ones answered with `ERR`.
    pub requests: u64,
    /// Bytes written back to the client.
    pub bytes_out: u64,
    /// Cumulative statement-execution wall time, microseconds.
    pub exec_time_us: u64,
}

/// Clones of the sockets of live sessions plus their accounting, so
/// shutdown can force-close them (a worker parked in a blocking `read`
/// on an idle client would otherwise never observe the stop signal and
/// the join would hang) and introspection can read per-session figures.
/// Registering and unregistering move the process-wide `connections_active`
/// gauge by one (under the registry lock, so an empty registry has already
/// taken its sessions off the gauge): it counts the sessions of every server
/// in the process.
#[derive(Default)]
struct SessionRegistry {
    next_id: AtomicU64,
    streams: Mutex<HashMap<u64, (TcpStream, Arc<session::SessionStats>)>>,
}

impl SessionRegistry {
    fn register(&self, stream: &TcpStream) -> Option<(u64, Arc<session::SessionStats>)> {
        let clone = stream.try_clone().ok()?;
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let stats = Arc::new(session::SessionStats::default());
        let mut streams = self.streams.lock().expect("registry poisoned");
        streams.insert(id, (clone, Arc::clone(&stats)));
        matlang_obs::gauge!("connections_active").add(1);
        Some((id, stats))
    }

    fn unregister(&self, id: u64) {
        let mut streams = self.streams.lock().expect("registry poisoned");
        streams.remove(&id);
        matlang_obs::gauge!("connections_active").add(-1);
    }

    fn shutdown_all(&self) {
        for (stream, _) in self.streams.lock().expect("registry poisoned").values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn snapshot(&self) -> Vec<SessionSnapshot> {
        let mut sessions: Vec<SessionSnapshot> = self
            .streams
            .lock()
            .expect("registry poisoned")
            .iter()
            .map(|(&id, (_, stats))| SessionSnapshot {
                id,
                requests: stats.requests.load(Ordering::Relaxed),
                bytes_out: stats.bytes_out.load(Ordering::Relaxed),
                exec_time_us: stats.exec_time_us.load(Ordering::Relaxed),
            })
            .collect();
        sessions.sort_by_key(|s| s.id);
        sessions
    }
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; the default requests an ephemeral localhost port.
    pub addr: String,
    /// Session worker threads; `0` means one per unit of
    /// [`std::thread::available_parallelism`].
    pub workers: usize,
    /// Capacity of the accepted-connection queue; a full queue blocks the
    /// accept loop (backpressure).
    pub queue_capacity: usize,
    /// Store configuration (plan-cache capacity, data directory, WAL
    /// compaction threshold, memory budget, re-plan drift ratio, slow-query
    /// threshold); the default honours `MATLANG_DATA_DIR`,
    /// `MATLANG_WAL_COMPACT`, `MATLANG_MEM_BUDGET`, `MATLANG_REPLAN_DRIFT`
    /// and `MATLANG_SLOW_MS`.
    pub store: StoreConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            queue_capacity: 64,
            store: StoreConfig::default(),
        }
    }
}

/// The server entry point; see [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop and the worker pool, and returns a
    /// handle owning them.  The server runs until
    /// [`ServerHandle::shutdown`] (or drop).
    pub fn spawn(config: ServerConfig) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = match config.workers {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        let store = Arc::new(Store::with_config(config.store.clone()));
        let queue = Arc::new(ConnQueue::new(config.queue_capacity));
        let stop = Arc::new(AtomicBool::new(false));
        let sessions = Arc::new(SessionRegistry::default());

        let mut worker_handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let store = Arc::clone(&store);
            let queue = Arc::clone(&queue);
            let sessions = Arc::clone(&sessions);
            let stop = Arc::clone(&stop);
            worker_handles.push(
                std::thread::Builder::new()
                    .name("matlang-server-worker".into())
                    .spawn(move || {
                        while let Some(connection) = queue.pop() {
                            // Registering makes the socket reachable by
                            // `shutdown_all`; a connection that cannot be
                            // registered (fd exhaustion) is dropped rather
                            // than served beyond shutdown's reach, and the
                            // stop flag is re-checked so a connection
                            // popped during shutdown is not served past
                            // the stop signal.
                            let Some((id, stats)) = sessions.register(&connection) else {
                                continue;
                            };
                            if !stop.load(Ordering::Acquire) {
                                // A session I/O failure or panic only ends
                                // that session, never the worker.
                                let _ =
                                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                        session::serve_connection(&store, connection, stats)
                                    }));
                            }
                            sessions.unregister(id);
                        }
                    })?,
            );
        }

        let accept_handle = {
            let queue = Arc::clone(&queue);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("matlang-server-accept".into())
                .spawn(move || {
                    for connection in listener.incoming() {
                        if stop.load(Ordering::Acquire) {
                            break;
                        }
                        match connection {
                            Ok(connection) => {
                                if !queue.push(connection) {
                                    break;
                                }
                            }
                            Err(_) => {
                                if stop.load(Ordering::Acquire) {
                                    break;
                                }
                            }
                        }
                    }
                })?
        };

        Ok(ServerHandle {
            addr,
            store,
            queue,
            stop,
            sessions,
            accept: Some(accept_handle),
            workers: worker_handles,
        })
    }
}

/// Owns a running server's threads; shuts the server down on
/// [`ServerHandle::shutdown`] or drop.
pub struct ServerHandle {
    addr: SocketAddr,
    store: Arc<Store>,
    queue: Arc<ConnQueue>,
    stop: Arc<AtomicBool>,
    sessions: Arc<SessionRegistry>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (with the concrete ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the shared store — handy for in-process embedding
    /// alongside network clients.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Accounting snapshots of the live sessions, in registration order.
    pub fn sessions(&self) -> Vec<SessionSnapshot> {
        self.sessions.snapshot()
    }

    /// Stops accepting, drops not-yet-served queued connections,
    /// force-closes live session sockets, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock a blocking `accept` by poking one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        self.queue.close();
        self.sessions.shutdown_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop_and_join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spawn_serve_shutdown() {
        let handle = Server::spawn(ServerConfig {
            workers: 2,
            queue_capacity: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        client.ping().unwrap();
        assert_eq!(client.list().unwrap(), Vec::<String>::new());
        client.create_instance("t", false).unwrap();
        assert_eq!(client.list().unwrap(), vec!["t".to_string()]);
        client.quit().unwrap();
        handle.shutdown();
    }

    #[test]
    fn unknown_commands_get_err_without_closing_the_session() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        assert!(client.exec("nope", 0).is_err());
        // The session is still alive afterwards.
        client.ping().unwrap();
        handle.shutdown();
    }
}
