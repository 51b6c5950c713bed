//! Serve-layer integration: the always-on daemon against its batch
//! oracle.
//!
//! Three pillars, mirroring the satellite checklist:
//!
//! 1. **Batch equivalence** — after every live tick, every protocol
//!    query answered by the daemon over TCP is byte-identical to a
//!    reply rendered from a *batch* epoch: a fresh full
//!    `read_dir_with` + `Epoch::build` over the same committed day
//!    prefix. The live path (incremental append + index reuse) and the
//!    batch path (cold load, cold index) must be indistinguishable on
//!    the wire, for at least three distinct epochs.
//! 2. **Protocol robustness** — property tests over arbitrary byte
//!    soup and a TCP session fed random fragmented garbage: the daemon
//!    never panics, never grows its buffer past the line bound, answers
//!    `ERR`, and keeps the connection serving valid queries afterwards.
//! 3. **Concurrency soak** — client threads hammer the daemon while a
//!    writer appends days and the poller publishes epochs: no deadlock,
//!    the epoch tag is monotonic per connection, and old epochs are
//!    actually freed once unpinned.

mod common;

use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

use bgq_logs::store::LoadOptions;
use bgq_serve::protocol::{error_reply, MAX_LINE};
use bgq_serve::{
    epoch_of, parse_query, respond, start, Client, Epoch, EpochStore, Ingestor, ServerOptions,
};
use bgq_sim::{LiveEmitter, SimConfig};
use proptest::prelude::*;

/// Every query shape the protocol supports, including a user id that
/// does not exist (the reply must still be well-defined and identical).
const QUERIES: &[&str] = &[
    "STATS",
    "MTTI",
    "MTTI INFO",
    "MTTI WARN",
    "MTTI FATAL",
    "RATE-BY-SCALE",
    "AFFECTED INFO",
    "AFFECTED WARN",
    "AFFECTED FATAL",
    "TOPK 5",
    "TOPK 1000",
    "USER 1",
    "USER 3",
    "USER 999999",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "bgq-serve-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn tolerant_load() -> LoadOptions {
    LoadOptions {
        max_reject_ratio: 0.0,
        degraded: true,
    }
}

/// Satellite 1: after each tick the daemon's TCP replies are
/// byte-identical to the batch oracle over the same day prefix, across
/// every epoch of the feed (well over the required three).
#[test]
fn live_daemon_matches_batch_replies_every_epoch() {
    let dir = temp_dir("equiv");
    let config = SimConfig::small(10)
        .with_seed(33)
        .with_users(25, 3)
        .with_retries(0.2);
    let mut emitter = LiveEmitter::new(&config, &dir).expect("live emitter");
    let store = Arc::new(EpochStore::new());
    let mut ingestor = Ingestor::new(&dir, Arc::clone(&store), tolerant_load());
    let handle = start(Arc::clone(&store), &ServerOptions::default()).expect("start server");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");

    let mut epochs = 0u64;
    while let Some((day, _)) = emitter.emit_next_day().expect("emit day") {
        assert_eq!(ingestor.poll().expect("poll"), 1, "one day per tick");
        epochs += 1;
        let current = store.current();
        assert_eq!(current.epoch, epochs, "epoch counts committed ticks");
        let oracle = common::batch_epoch(&dir, current.epoch, &tolerant_load());
        for q in QUERIES {
            let live = client.query(q).expect("live query");
            let batch = respond(&oracle, &parse_query(q).expect("query parses"));
            assert_eq!(
                live, batch,
                "daemon diverges from batch on {q:?} at day {day}"
            );
        }
    }
    assert!(
        epochs >= 3,
        "corpus must span at least three epochs, got {epochs}"
    );
    handle.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A poll with nothing new publishes nothing: the epoch tag only moves
/// when a day commits, so batch equivalence is checkable per epoch.
#[test]
fn idle_polls_publish_no_epochs() {
    let dir = temp_dir("idle");
    let config = SimConfig::small(4).with_seed(5);
    let mut emitter = LiveEmitter::new(&config, &dir).expect("live emitter");
    let store = Arc::new(EpochStore::new());
    let mut ingestor = Ingestor::new(&dir, Arc::clone(&store), tolerant_load());
    emitter.emit_next_day().expect("emit").expect("has a day");
    assert_eq!(ingestor.poll().expect("poll"), 1);
    let swaps = store.swaps();
    for _ in 0..5 {
        assert_eq!(ingestor.poll().expect("idle poll"), 0);
    }
    assert_eq!(store.swaps(), swaps, "idle polls must not swap epochs");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------------
// Satellite 2: protocol robustness
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary byte soup never panics the parser, and the `ERR`
    /// rendering always stays a single well-framed line.
    #[test]
    fn arbitrary_bytes_never_panic_the_parser(
        bytes in proptest::collection::vec(0u8..=255u8, 0..200),
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(reason) = parse_query(&text) {
            let reply = error_reply(&reason);
            prop_assert!(reply.starts_with("ERR "), "{reply:?}");
            prop_assert_eq!(reply.matches('\n').count(), 1, "{reply:?}");
            prop_assert!(reply.ends_with('\n'), "{reply:?}");
        }
    }

    /// Every valid query survives arbitrary surrounding whitespace.
    #[test]
    fn whitespace_padding_is_transparent(
        pick in 0usize..14,
        left in 0usize..4,
        right in 0usize..4,
    ) {
        let base = QUERIES[pick];
        let padded = format!("{}{base}{}", " ".repeat(left), "\t".repeat(right));
        prop_assert_eq!(parse_query(&padded), parse_query(base));
    }

    /// Replies are always perfectly framed: the `OK <epoch> <n>` header
    /// counts exactly the payload lines that follow, whatever the query.
    #[test]
    fn replies_frame_exactly(pick in 0usize..14) {
        let query = parse_query(QUERIES[pick]).expect("valid query");
        let reply = respond(&Epoch::empty(), &query);
        let header = reply.lines().next().expect("header");
        let n: usize = header.split_whitespace().nth(2).expect("count").parse().expect("number");
        prop_assert_eq!(reply.lines().count(), n + 1, "{}", reply);
        prop_assert!(reply.ends_with('\n'));
    }
}

/// A live TCP session fed random fragmented garbage — split mid-token,
/// mixed with oversized runs — answers `ERR` without dying, and still
/// answers real queries afterwards. Deterministic (seeded) randomness.
#[test]
fn tcp_survives_random_fragmented_garbage() {
    let store = Arc::new(EpochStore::new());
    let handle = start(Arc::clone(&store), &ServerOptions::default()).expect("start server");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect");
    let mut rng = bgq_chaos::SplitMix64::new(0xfeed);

    for round in 0..40 {
        // Build one garbage line (no interior newline, not a valid
        // command), then deliver it in random fragments.
        let len = 1 + rng.below(200);
        let mut line: Vec<u8> = (0..len)
            .map(|_| {
                let b = (rng.next_u64() % 256) as u8;
                if b == b'\n' {
                    b'#'
                } else {
                    b
                }
            })
            .collect();
        // A leading '#' guarantees the line can never parse as a query.
        line.insert(0, b'#');
        line.push(b'\n');
        let reply = client
            .send_fragmented(&line, |n| 1 + rng.below(n))
            .expect("garbage round-trips");
        assert!(reply.starts_with("ERR "), "round {round}: {reply:?}");

        // The connection still serves real queries between abuse.
        let ok = client.query("STATS").expect("STATS after garbage");
        assert!(ok.starts_with("OK "), "round {round}: {ok:?}");
    }

    // Oversized flood: way past MAX_LINE without a newline. One ERR,
    // bounded buffering, connection survives.
    let flood = vec![b'Z'; MAX_LINE * 4];
    let reply = client
        .send_fragmented(&flood, |n| 1 + rng.below(n.min(1024)))
        .expect("flood reply");
    assert!(reply.starts_with("ERR line too long"), "{reply:?}");
    let reply = client
        .send_fragmented(b"\nMTTI\n", |_| 1)
        .expect("recovery reply");
    assert!(reply.starts_with("OK "), "{reply:?}");
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Satellite 4: concurrency soak
// ---------------------------------------------------------------------------

/// Clients hammer the daemon from several threads while a writer
/// appends day partitions and the poller publishes epochs underneath
/// them. Checks: no deadlock (the test finishes), every reply is
/// well-formed, the epoch tag never decreases on any one connection,
/// and the pre-ingest epoch is freed once the store moves past it.
#[test]
fn soak_concurrent_queries_during_live_appends() {
    let dir = temp_dir("soak");
    let config = SimConfig::small(8).with_seed(77).with_users(30, 3);
    let mut emitter = LiveEmitter::new(&config, &dir).expect("live emitter");
    let total_days = emitter.total_days();
    let store = Arc::new(EpochStore::new());
    let epoch0 = store.current();
    let ingestor = Ingestor::new(&dir, Arc::clone(&store), tolerant_load());
    let stop = Arc::new(AtomicBool::new(false));
    let poller = bgq_serve::spawn_poller(ingestor, Duration::from_millis(5), Arc::clone(&stop));
    let handle = start(
        Arc::clone(&store),
        &ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
        },
    )
    .expect("start server");
    let addr = handle.addr().to_string();

    let writer = std::thread::spawn(move || {
        while emitter.emit_next_day().expect("emit day").is_some() {
            std::thread::sleep(Duration::from_millis(10));
        }
    });

    let clients: Vec<_> = (0..4)
        .map(|c| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("soak connect");
                let mut last_epoch = 0u64;
                // At least 250 queries, and on until the first epoch is
                // published (or a deadline passes): with connections
                // accepted at once, 250 queries can finish before the
                // poller publishes anything.
                let deadline = std::time::Instant::now() + Duration::from_secs(10);
                for i in 0usize.. {
                    if i >= 250 && (last_epoch > 0 || std::time::Instant::now() > deadline) {
                        break;
                    }
                    let q = QUERIES[(i + c) % QUERIES.len()];
                    let reply = client.query(q).expect("soak query");
                    assert!(
                        reply.starts_with("OK "),
                        "client {c} query {q:?}: {reply:?}"
                    );
                    let epoch = epoch_of(&reply).expect("epoch tag");
                    assert!(
                        epoch >= last_epoch,
                        "client {c}: epoch went backwards {last_epoch} -> {epoch}"
                    );
                    last_epoch = epoch;
                }
                last_epoch
            })
        })
        .collect();

    let finals: Vec<u64> = clients
        .into_iter()
        .map(|h| h.join().expect("client"))
        .collect();
    writer.join().expect("writer");
    // Let the poller catch the final committed day, then stop it.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while store.current().days.len() < total_days {
        assert!(
            std::time::Instant::now() < deadline,
            "poller never caught up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    poller.join().expect("poller");
    handle.shutdown();

    // A poll can batch several committed days into one epoch, so the
    // final epoch number is at most (not exactly) the day count.
    let last = store.current();
    assert_eq!(last.days.len(), total_days);
    assert!(
        (1..=total_days as u64).contains(&last.epoch),
        "epoch {} out of range for {total_days} days",
        last.epoch
    );
    assert!(
        finals.iter().any(|&e| e > 0),
        "soak clients never observed a published epoch: {finals:?}"
    );
    // The store released the pre-ingest epoch long ago; this handle is
    // the only thing keeping it alive. Old epochs are freed, not
    // accumulated.
    assert_eq!(Arc::strong_count(&epoch0), 1, "epoch 0 leaked");

    // With the allocation counters compiled in, prove the watermark is
    // bounded: the live bytes after the soak (one retained epoch) stay
    // within a small multiple of a single epoch's footprint rather than
    // growing with the number of swaps.
    #[cfg(feature = "obs-alloc")]
    {
        let live_with_epoch = bgq_obs::alloc::stats().live_bytes;
        let retained = store.current();
        let swaps = store.swaps();
        drop(retained);
        store.publish(Epoch::empty());
        let live_after = bgq_obs::alloc::stats().live_bytes;
        // Slack for unrelated tests allocating in this process; the
        // point is that live bytes do not scale with the swap count.
        assert!(
            live_after <= live_with_epoch + (1 << 20),
            "dropping {swaps} swapped epochs grew live bytes: {live_with_epoch} -> {live_after}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
