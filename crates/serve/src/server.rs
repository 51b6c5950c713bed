//! Zero-dependency line-protocol TCP server.
//!
//! One acceptor thread, blocked in `accept`, hands connections to a
//! fixed worker pool over an in-process channel (the bgq-par fixed-pool
//! pattern, applied to sockets); shutdown wakes it with a loopback
//! connect, so a new connection is handed over at once and an idle
//! server stops without a polling delay. Each worker owns one
//! connection at a time and runs a
//! read-loop with a bounded buffer: complete lines are answered from
//! the *current* epoch ([`EpochStore::current`] — an `Arc` clone under
//! a momentary read lock), malformed lines get `ERR` and the connection
//! survives, and oversized lines switch the connection into
//! skip-to-newline mode so buffer growth stays bounded by
//! [`MAX_LINE`] + one read chunk.

use std::io::{self, Read as _, Write as _};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::epoch::EpochStore;
use crate::protocol::{error_reply, parse_query, respond, MAX_LINE};

/// How a server is started.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads answering queries.
    pub workers: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".to_owned(),
            workers: 4,
        }
    }
}

/// A running server; dropping it signals shutdown, [`ServerHandle::shutdown`]
/// additionally joins the threads.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Signals shutdown and joins the acceptor and every worker.
    /// Established connections are closed at their next read timeout.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }

    /// Sets the stop flag and wakes the acceptor out of `accept` with a
    /// connect of its own, which it drops unserved.
    fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Relaxed);
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, WAKE_TIMEOUT);
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        // After `shutdown` the acceptor is joined and there is nothing
        // left to wake.
        if self.acceptor.is_some() {
            self.stop_accepting();
        }
    }
}

/// Poll interval for shutdown checks in blocked connection reads and
/// idle workers, and the acceptor's back-off after a failed `accept`.
const POLL: Duration = Duration::from_millis(50);

/// Bound on the shutdown wake-up connect.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Starts the acceptor and worker pool; returns immediately.
///
/// # Errors
///
/// Returns the bind error when the address is unavailable.
pub fn start(store: Arc<EpochStore>, opts: &ServerOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::<TcpStream>();
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..opts.workers.max(1))
        .map(|i| {
            let rx = Arc::clone(&rx);
            let store = Arc::clone(&store);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&rx, &store, &stop))
                .expect("spawn serve worker")
        })
        .collect();
    let acceptor = {
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("serve-acceptor".to_owned())
            .spawn(move || {
                loop {
                    let accepted = listener.accept();
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            bgq_obs::add("serve.connections", 1);
                            if tx.send(stream).is_err() {
                                break;
                            }
                        }
                        // Out of descriptors and the like: back off
                        // instead of spinning.
                        Err(_) => std::thread::sleep(POLL),
                    }
                }
                // Dropping `tx` here disconnects the workers' queue.
            })
            .expect("spawn serve acceptor")
    };
    Ok(ServerHandle {
        addr,
        stop,
        acceptor: Some(acceptor),
        workers,
    })
}

fn worker_loop(
    rx: &Arc<Mutex<Receiver<TcpStream>>>,
    store: &Arc<EpochStore>,
    stop: &Arc<AtomicBool>,
) {
    loop {
        let next = {
            let guard = rx.lock().expect("connection queue poisoned");
            guard.recv_timeout(POLL)
        };
        match next {
            Ok(stream) => serve_connection(stream, store, stop),
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

/// Runs one connection to completion: reads lines, answers each from
/// the current epoch, survives malformed input, and bounds buffering.
pub fn serve_connection(mut stream: TcpStream, store: &EpochStore, stop: &AtomicBool) {
    let _ = stream.set_read_timeout(Some(POLL));
    let _ = stream.set_nodelay(true);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    // After an oversized line's ERR, discard bytes until the newline.
    let mut skipping = false;
    'conn: loop {
        while let Some(pos) = buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = buf.drain(..=pos).collect();
            if skipping {
                skipping = false;
                continue;
            }
            let mut line = &line[..line.len() - 1];
            if line.last() == Some(&b'\r') {
                line = &line[..line.len() - 1];
            }
            let reply = answer(store, line);
            if stream.write_all(reply.as_bytes()).is_err() {
                break 'conn;
            }
        }
        if !skipping && buf.len() > MAX_LINE {
            bgq_obs::add("serve.protocol_errors", 1);
            if stream
                .write_all(error_reply("line too long").as_bytes())
                .is_err()
            {
                break;
            }
            skipping = true;
        }
        if skipping {
            // The buffer holds no newline (drained above); drop it.
            buf.clear();
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Parses and answers one line, recording serve metrics.
fn answer(store: &EpochStore, line: &[u8]) -> String {
    let start = Instant::now();
    let Ok(text) = std::str::from_utf8(line) else {
        bgq_obs::add("serve.protocol_errors", 1);
        return error_reply("query is not UTF-8");
    };
    match parse_query(text) {
        Ok(query) => {
            let epoch = store.current();
            let reply = respond(&epoch, &query);
            bgq_obs::add_labeled("serve.queries", query.kind(), 1);
            bgq_obs::hist_record_labeled(
                "serve.query_ns",
                query.kind(),
                start.elapsed().as_nanos() as u64,
            );
            reply
        }
        Err(reason) => {
            bgq_obs::add("serve.protocol_errors", 1);
            error_reply(&reason)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead as _;

    fn test_server() -> (ServerHandle, Arc<EpochStore>) {
        let store = Arc::new(EpochStore::new());
        let handle = start(Arc::clone(&store), &ServerOptions::default()).unwrap();
        (handle, store)
    }

    #[test]
    fn answers_over_tcp_and_survives_garbage() {
        let (handle, _store) = test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();

        stream.write_all(b"STATS\n").unwrap();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK 0 "), "{line}");
        let n: usize = line.split_whitespace().nth(2).unwrap().parse().unwrap();
        for _ in 0..n {
            line.clear();
            reader.read_line(&mut line).unwrap();
        }

        // Non-UTF-8 garbage answers ERR; the connection lives on.
        stream.write_all(b"\xff\xfe\xfd\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR "), "{line}");

        // Oversized line answers ERR without a newline ever arriving...
        stream.write_all(&vec![b'A'; MAX_LINE + 100]).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR line too long"), "{line}");
        // ...and once the newline lands, the next query still works.
        stream.write_all(b"\nMTTI\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK 0 1"), "{line}");
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("interrupted-jobs "), "{line}");

        handle.shutdown();
    }

    #[test]
    fn idle_shutdown_returns_and_frees_the_address() {
        let (handle, _store) = test_server();
        let addr = handle.addr();
        let started = Instant::now();
        handle.shutdown();
        assert!(
            started.elapsed() < WAKE_TIMEOUT,
            "shutdown took {:?}",
            started.elapsed()
        );
        let opts = ServerOptions {
            addr: addr.to_string(),
            ..ServerOptions::default()
        };
        let again = start(Arc::new(EpochStore::new()), &opts).expect("rebind the address");
        assert_eq!(again.addr(), addr);
        again.shutdown();
    }

    #[test]
    fn fragmented_writes_reassemble() {
        let (handle, _store) = test_server();
        let mut stream = TcpStream::connect(handle.addr()).unwrap();
        stream.set_nodelay(true).unwrap();
        let mut reader = io::BufReader::new(stream.try_clone().unwrap());
        for part in [&b"ST"[..], b"AT", b"S\r\n"] {
            stream.write_all(part).unwrap();
            stream.flush().unwrap();
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK 0 "), "{line}");
        handle.shutdown();
    }
}
