//! What a server or a store counts is its own.  Two servers in one
//! process share the `connections_active` gauge, and each moves it by one
//! per session it opens or closes, so neither overwrites the other's count.
//! A store sheds against the bytes its own instances published — not
//! against the process-wide `instance_bytes` gauge, and not against a
//! snapshot it refused to restore.
//!
//! The gauges and the eviction counter are process-wide, so these tests
//! have a binary of their own: nothing else here opens sessions, loads
//! instances or sheds.

use matlang_server::{Client, Server, ServerConfig, ServerHandle, Store, StoreConfig};
use std::time::{Duration, Instant};

fn spawn() -> ServerHandle {
    Server::spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("server spawns on an ephemeral port")
}

/// Waits until `handle`'s worker has finished its last session.
fn wait_until_idle(handle: &ServerHandle) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !handle.sessions().is_empty() {
        assert!(Instant::now() < deadline, "the session never closed");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn two_servers_count_their_sessions_into_one_gauge() {
    let (a, b) = (spawn(), spawn());
    let start = a.store().health().connections;

    let mut client_a = Client::connect(a.addr()).unwrap();
    let mut client_b = Client::connect(b.addr()).unwrap();
    // A reply means the worker has registered the session.
    client_a.ping().unwrap();
    client_b.ping().unwrap();
    assert_eq!(a.store().health().connections, start + 2);

    // Closing A's session leaves B's counted.
    client_a.quit().unwrap();
    wait_until_idle(&a);
    let health = client_b.health().unwrap();
    let connections: i64 = health
        .split_whitespace()
        .find_map(|token| token.strip_prefix("connections="))
        .and_then(|value| value.parse().ok())
        .unwrap_or_else(|| panic!("no connections= in HEALTH `{health}`"));
    assert!(
        connections >= 1,
        "B's own session is live, yet HEALTH reads `{health}`"
    );

    client_b.quit().unwrap();
    wait_until_idle(&b);
    assert_eq!(b.store().health().connections, start);

    a.shutdown();
    b.shutdown();
}

#[test]
fn a_store_under_its_budget_sheds_nothing_for_another_stores_bytes() {
    const BUDGET: u64 = 64 << 10;
    // Store B: no budget, one dense 128 × 128 instance (128 KiB of data).
    let big = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(None)
            .build(),
    );
    big.create_instance("big", true).unwrap();
    big.set_dim("big", "n", 128).unwrap();
    let full: Vec<(usize, usize, f64)> = (0..128 * 128).map(|k| (k / 128, k % 128, 1.0)).collect();
    big.load_matrix("big", "G", 128, 128, full).unwrap();
    assert!(big.health().total_bytes > BUDGET);

    // Store A: a 64 KiB budget, one 4 × 4 instance, and two plans in a
    // plan cache of two — an over-budget EXEC would evict the colder one.
    let small = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(Some(BUDGET))
            .plan_cache_capacity(2)
            .build(),
    );
    small.create_instance("small", true).unwrap();
    small.set_dim("small", "n", 4).unwrap();
    let ring: Vec<(usize, usize, f64)> = (0..4).map(|i| (i, (i + 1) % 4, 1.0)).collect();
    small.load_matrix("small", "G", 4, 4, ring).unwrap();
    small.prepare("small", "(G * G)").unwrap();
    small.prepare("small", "(G + G)").unwrap();
    assert_eq!(small.plan_cache_len(), 2);

    let evictions = small.health().pressure_evictions;
    small.exec("small", &[0, 1]).unwrap();
    assert_eq!(
        small.health().pressure_evictions,
        evictions,
        "a store under its own budget evicted something"
    );
    assert_eq!(small.plan_cache_len(), 2);
    let again = small.exec("small", &[0, 1]).unwrap();
    assert!(again.iter().all(|result| result.stats.cache_misses == 0));
    let health = small.health();
    assert!(health.total_bytes < BUDGET);
    assert_eq!(health.status, "ok");
}

#[test]
fn a_refused_restore_adds_nothing_to_the_store_that_refused_it() {
    const BUDGET: u64 = 64 << 10;
    let dir = std::env::temp_dir().join(format!("matlang-accounting-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot = dir.join("big.snap");
    // A snapshot of a dense 128 × 128 instance (128 KiB of data), whose
    // source is dropped before the restore is attempted.
    let source = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(None)
            .build(),
    );
    source.create_instance("big", true).unwrap();
    source.set_dim("big", "n", 128).unwrap();
    let full: Vec<(usize, usize, f64)> = (0..128 * 128).map(|k| (k / 128, k % 128, 1.0)).collect();
    source.load_matrix("big", "G", 128, 128, full).unwrap();
    source.save("big", Some(&snapshot)).unwrap();
    source.drop_instance("big").unwrap();

    // A 64 KiB budget, one 4 × 4 instance and two plans in a plan cache
    // of two; restoring the snapshot under the taken name is refused.
    let store = Store::with_config(
        StoreConfig::builder()
            .no_data_dir()
            .mem_budget(Some(BUDGET))
            .plan_cache_capacity(2)
            .build(),
    );
    store.create_instance("small", true).unwrap();
    store.set_dim("small", "n", 4).unwrap();
    let ring: Vec<(usize, usize, f64)> = (0..4).map(|i| (i, (i + 1) % 4, 1.0)).collect();
    store.load_matrix("small", "G", 4, 4, ring).unwrap();
    store.prepare("small", "(G * G)").unwrap();
    store.prepare("small", "(G + G)").unwrap();
    assert!(store.restore("small", &snapshot).is_err());
    let _ = std::fs::remove_dir_all(&dir);

    let evictions = store.health().pressure_evictions;
    store.exec("small", &[0, 1]).unwrap();
    assert_eq!(
        store.health().pressure_evictions,
        evictions,
        "the refused snapshot was counted against the budget"
    );
    assert_eq!(store.plan_cache_len(), 2);
}
