//! A standing triangle query — planned as a fused masked product, which
//! caches no product for the delta rules to read — under a stream of edge
//! inserts: every `UPDATE` must take the delta path without dropping a
//! node, and every `EXEC` served from the patched cache must be
//! bit-identical to a cold `QUERY` on a twin instance that received the same
//! updates and holds no plan at all.

use matlang_server::{Client, DeltaWire, SemiringKind, Server, ServerConfig};

const N: usize = 16;
const MASKED: &str = "((G * G) ** G)";
const COMMUTED: &str = "(G ** (G * G))";
const TRIANGLES: &str = "(transpose(ones(G)) * (((G * G) ** G) * ones(G)))";

/// Streams chord inserts into a ring under the standing queries `texts`,
/// which the server plans together.
fn stream_inserts(
    texts: &[&'static str],
    kind: SemiringKind,
    adaptive: bool,
    weight: impl Fn(usize) -> f64,
) {
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let ring: Vec<(usize, usize, f64)> = (0..N).map(|k| (k, (k + 1) % N, weight(k))).collect();
    for name in ["live", "cold"] {
        client.create_instance_with(name, adaptive, kind).unwrap();
        client.set_dim(name, "n", N).unwrap();
        client.load(name, "G", N, N, &ring).unwrap();
    }
    let standing: Vec<(usize, &str)> = texts
        .iter()
        .map(|&text| (client.prepare("live", text).unwrap(), text))
        .collect();
    let mut fused = 0;
    for &(qid, _) in &standing {
        fused += client.exec("live", qid).unwrap().stats.fused_products;
    }
    assert_eq!(fused, 1, "the standing plan holds one masked product");

    // Chords two and three steps back close triangles over the ring and,
    // later, over each other; none overwrites a present edge.
    for step in 0..2 * N {
        let from = (5 * step + 2) % N;
        let edge = [(from, (from + N - 2 - step / N) % N, weight(N + step))];
        let reply = client.update("live", "G", &edge).unwrap();
        assert!(
            matches!(reply.delta, DeltaWire::Applied { patched } if patched > 0),
            "step {step}: expected delta=applied, got {:?}",
            reply.delta
        );
        assert_eq!(
            reply.invalidated, 0,
            "step {step}: a delta pass drops nothing"
        );
        client.update("cold", "G", &edge).unwrap();
        for &(qid, text) in &standing {
            let warm = client.exec("live", qid).unwrap();
            assert_eq!(warm.stats.cache_misses, 0, "step {step}: {text} not warm");
            let cold = client.query("cold", text).unwrap();
            assert_eq!(warm.entries, cold.entries, "step {step}: {text} diverged");
            assert_eq!((warm.rows, warm.cols), (cold.rows, cold.cols));
        }
    }
    let last = client.exec("live", standing[0].0).unwrap();
    assert!(!last.entries.is_empty(), "the chords closed triangles");
    handle.shutdown();
}

/// The masked matrix and the triangle total share one masked product; the
/// commuted form, planned with them, would share the product `G·G` and
/// leave both unfused, so it streams on its own.
const STANDING: [&[&str]; 2] = [&[MASKED, TRIANGLES], &[COMMUTED]];

#[test]
fn boolean_inserts_patch_a_standing_masked_product() {
    for texts in STANDING {
        for adaptive in [true, false] {
            stream_inserts(texts, SemiringKind::Boolean, adaptive, |_| 1.0);
        }
    }
}

#[test]
fn minplus_inserts_patch_a_standing_masked_product() {
    for texts in STANDING {
        for adaptive in [true, false] {
            stream_inserts(texts, SemiringKind::MinPlus, adaptive, |k| {
                (k * 7 % 5 + 1) as f64
            });
        }
    }
}
