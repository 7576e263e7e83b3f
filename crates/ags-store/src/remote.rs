//! A networked [`MapStore`]: length-framed TCP blob protocol, client with
//! reconnect + retry, and an embeddable loopback server.
//!
//! ## Wire protocol
//!
//! Both directions use the same 17-byte header followed by two length-
//! prefixed bodies:
//!
//! ```text
//! magic(4) | seq u32 | tag u8 | len_a u32 | len_b u32 | body_a | body_b
//! ```
//!
//! Requests carry magic `AGRQ`, `tag` = operation (1 put, 2 get, 3 delete,
//! 4 keys), `body_a` = key/prefix, `body_b` = value (empty except for put).
//! Responses carry magic `AGRP`, `tag` = status (0 ok, 1 not-found, then
//! one code per [`StoreError`] variant), `body_a` = payload or error
//! message. The server echoes the request's `seq`; a mismatch means the
//! client is reading a stale (duplicated) response and must reconnect.
//!
//! All lengths are little-endian and capped, so a corrupted or hostile
//! header cannot trigger an unbounded allocation. The uniform header is
//! what lets [`crate::NetFaultProxy`] relay whole frames and inject faults
//! per operation.
//!
//! ## Failure semantics
//!
//! Every transport failure — connect/read/write error, timeout, short
//! read, bad magic, out-of-sequence response — drops the connection and
//! surfaces as a *transient* [`StoreError`] ([`StoreError::Timeout`] or
//! [`StoreError::Disconnected`]); the [`RetryPolicy`] then backs off,
//! reconnects and retries. Because every [`MapStore`] operation is
//! idempotent, at-least-once delivery is safe. Server-side errors come
//! back as their original [`StoreError`] variant: transient ones (I/O)
//! retry, permanent ones (corrupt, missing) surface immediately.

use crate::backend::MapStore;
use crate::error::StoreError;
use crate::retry::RetryPolicy;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub(crate) const REQUEST_MAGIC: [u8; 4] = *b"AGRQ";
pub(crate) const RESPONSE_MAGIC: [u8; 4] = *b"AGRP";
/// Header: magic(4) + seq(4) + tag(1) + len_a(4) + len_b(4).
pub(crate) const HEADER_LEN: usize = 17;

/// Keys are short `/`-separated ASCII paths; anything longer is garbage.
const MAX_KEY_BYTES: usize = 4096;
/// Blobs are framed checkpoint records; a full base snapshot of a huge map
/// stays far below this.
const MAX_BLOB_BYTES: usize = 1 << 30;
/// What a frame body's buffer reserves before any of its bytes arrive; past
/// this it grows with the bytes received, so a forged length costs its
/// sender bandwidth, not the receiver memory.
const BODY_RESERVE_BYTES: usize = 64 << 10;

const OP_PUT: u8 = 1;
const OP_GET: u8 = 2;
const OP_DELETE: u8 = 3;
const OP_KEYS: u8 = 4;

const STATUS_OK: u8 = 0;
const STATUS_NOT_FOUND: u8 = 1;
const STATUS_ERR_IO: u8 = 2;
const STATUS_ERR_CORRUPT: u8 = 3;
const STATUS_ERR_MISSING: u8 = 4;

/// One request or response frame.
pub(crate) struct Frame {
    pub seq: u32,
    pub tag: u8,
    pub a: Vec<u8>,
    pub b: Vec<u8>,
}

/// Canonical encoding of a frame (header + bodies).
pub(crate) fn encode_frame(magic: &[u8; 4], frame: &Frame) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + frame.a.len() + frame.b.len());
    buf.extend_from_slice(magic);
    buf.extend_from_slice(&frame.seq.to_le_bytes());
    buf.push(frame.tag);
    buf.extend_from_slice(&(frame.a.len() as u32).to_le_bytes());
    buf.extend_from_slice(&(frame.b.len() as u32).to_le_bytes());
    buf.extend_from_slice(&frame.a);
    buf.extend_from_slice(&frame.b);
    buf
}

pub(crate) fn write_frame(
    w: &mut impl Write,
    magic: &[u8; 4],
    frame: &Frame,
) -> std::io::Result<()> {
    w.write_all(&encode_frame(magic, frame))
}

/// Parses a header already read off the wire; returns `(seq, tag, len_a,
/// len_b)`. Field `a` of a request is a key and capped as one; a response
/// carries its payload there.
pub(crate) fn parse_header(
    header: &[u8; HEADER_LEN],
    magic: &[u8; 4],
) -> std::io::Result<(u32, u8, usize, usize)> {
    if &header[..4] != magic {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "bad frame magic"));
    }
    let seq = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    let tag = header[8];
    let len_a = u32::from_le_bytes(header[9..13].try_into().expect("4 bytes")) as usize;
    let len_b = u32::from_le_bytes(header[13..17].try_into().expect("4 bytes")) as usize;
    let cap_a = if magic == &REQUEST_MAGIC { MAX_KEY_BYTES } else { MAX_BLOB_BYTES };
    if len_a > cap_a || len_b > MAX_BLOB_BYTES {
        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, "frame length over cap"));
    }
    Ok((seq, tag, len_a, len_b))
}

pub(crate) fn read_frame(r: &mut impl Read, magic: &[u8; 4]) -> std::io::Result<Frame> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    read_frame_after_header(r, &header, magic)
}

/// Finishes reading a frame whose header bytes are already in hand (the
/// server polls for the first header byte so it can observe shutdown).
pub(crate) fn read_frame_after_header(
    r: &mut impl Read,
    header: &[u8; HEADER_LEN],
    magic: &[u8; 4],
) -> std::io::Result<Frame> {
    let (seq, tag, len_a, len_b) = parse_header(header, magic)?;
    let a = read_body(r, len_a)?;
    let b = read_body(r, len_b)?;
    Ok(Frame { seq, tag, a, b })
}

/// Reads exactly `len` body bytes into a buffer that grows as they arrive.
fn read_body(r: &mut impl Read, len: usize) -> std::io::Result<Vec<u8>> {
    let mut body = Vec::with_capacity(len.min(BODY_RESERVE_BYTES));
    r.take(len as u64).read_to_end(&mut body)?;
    if body.len() != len {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(body)
}

fn encode_key_list(keys: &[String]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(keys.len() as u32).to_le_bytes());
    for key in keys {
        buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
        buf.extend_from_slice(key.as_bytes());
    }
    buf
}

fn decode_key_list(payload: &[u8]) -> Result<Vec<String>, StoreError> {
    let torn = || StoreError::Disconnected("torn key-list payload".into());
    let mut at = 0usize;
    let mut take = |n: usize| -> Result<&[u8], StoreError> {
        let slice = payload.get(at..at + n).ok_or_else(torn)?;
        at += n;
        Ok(slice)
    };
    let count = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
    // Each key is at least its 4-byte length prefix, so a count the bytes
    // after it cannot back is rejected before the list is reserved.
    if count > (payload.len() - 4) / 4 {
        return Err(torn());
    }
    let mut keys = Vec::with_capacity(count);
    for _ in 0..count {
        let len = u32::from_le_bytes(take(4)?.try_into().expect("4 bytes")) as usize;
        let bytes = take(len)?;
        keys.push(
            String::from_utf8(bytes.to_vec())
                .map_err(|_| StoreError::Disconnected("non-UTF-8 key in key list".into()))?,
        );
    }
    if at != payload.len() {
        return Err(torn());
    }
    Ok(keys)
}

fn net_err(e: std::io::Error) -> StoreError {
    match e.kind() {
        std::io::ErrorKind::TimedOut | std::io::ErrorKind::WouldBlock => {
            StoreError::Timeout(e.to_string())
        }
        _ => StoreError::Disconnected(e.to_string()),
    }
}

/// Per-client transport counters, cloneable so tests and benches can keep a
/// handle while the store is boxed away into an [`EpochStore`](crate::EpochStore).
#[derive(Debug, Clone, Default)]
pub struct RemoteCounters {
    ops: Arc<AtomicU64>,
    retries: Arc<AtomicU64>,
    connects: Arc<AtomicU64>,
    timeouts: Arc<AtomicU64>,
}

impl RemoteCounters {
    /// Store operations issued (each may take several attempts).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Attempts beyond the first, across all operations.
    pub fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// TCP connections established (1 for a healthy session; each
    /// reconnect after a transport failure adds one).
    pub fn connects(&self) -> u64 {
        self.connects.load(Ordering::Relaxed)
    }

    /// Attempts that failed with a timeout (stalled peer).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }
}

struct ClientState {
    conn: Option<TcpStream>,
    seq: u32,
}

/// What a successful operation returned.
enum Reply {
    Blob(Vec<u8>),
    NotFound,
}

/// A [`MapStore`] over the blob protocol: one TCP connection, per-attempt
/// timeouts from the [`RetryPolicy`], transparent reconnect + retry on
/// transient failures.
///
/// The connection lives behind a mutex because [`MapStore::get`] takes
/// `&self`; contention is nil since an [`crate::EpochStore`] is
/// single-writer by construction.
pub struct RemoteStore {
    addr: SocketAddr,
    policy: RetryPolicy,
    state: Mutex<ClientState>,
    counters: RemoteCounters,
}

impl RemoteStore {
    /// Connects to a [`StoreServer`] (or `ags-store-server`) at `addr`.
    /// The initial dial goes through the retry policy too, so a server
    /// still starting up does not fail the attach.
    pub fn connect(addr: impl ToSocketAddrs, policy: RetryPolicy) -> Result<Self, StoreError> {
        let addr = addr
            .to_socket_addrs()
            .map_err(|e| StoreError::Disconnected(format!("bad store address: {e}")))?
            .next()
            .ok_or_else(|| StoreError::Disconnected("store address resolved to nothing".into()))?;
        let store = Self {
            addr,
            policy,
            state: Mutex::new(ClientState { conn: None, seq: 0 }),
            counters: RemoteCounters::default(),
        };
        {
            let mut state = store.state.lock().expect("remote store lock");
            let (dialed, telemetry) = store.policy.run_tracked(|_| store.dial());
            store.counters.retries.fetch_add(telemetry.retries, Ordering::Relaxed);
            state.conn = Some(dialed?);
        }
        Ok(store)
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A cloneable handle onto this client's transport counters.
    pub fn counters(&self) -> RemoteCounters {
        self.counters.clone()
    }

    fn dial(&self) -> Result<TcpStream, StoreError> {
        let conn = TcpStream::connect_timeout(&self.addr, self.policy.timeout)
            .map_err(|e| StoreError::Disconnected(format!("connect {}: {e}", self.addr)))?;
        let _ = conn.set_nodelay(true);
        let _ = conn.set_read_timeout(Some(self.policy.timeout));
        let _ = conn.set_write_timeout(Some(self.policy.timeout));
        self.counters.connects.fetch_add(1, Ordering::Relaxed);
        Ok(conn)
    }

    /// One request/response exchange. Transport failures drop the
    /// connection (the next attempt redials); server-reported errors keep
    /// it.
    fn attempt(
        &self,
        state: &mut ClientState,
        op: u8,
        key: &str,
        val: &[u8],
    ) -> Result<Reply, StoreError> {
        if state.conn.is_none() {
            state.conn = Some(self.dial()?);
        }
        let seq = state.seq;
        state.seq = state.seq.wrapping_add(1);
        let conn = state.conn.as_mut().expect("connection just ensured");
        let request = Frame { seq, tag: op, a: key.as_bytes().to_vec(), b: val.to_vec() };
        let exchange = (|| -> Result<Frame, StoreError> {
            write_frame(conn, &REQUEST_MAGIC, &request).map_err(net_err)?;
            let response = read_frame(conn, &RESPONSE_MAGIC).map_err(net_err)?;
            if response.seq != seq {
                return Err(StoreError::Disconnected(format!(
                    "response out of sequence: sent {seq}, got {}",
                    response.seq
                )));
            }
            Ok(response)
        })();
        let response = match exchange {
            Ok(response) => response,
            Err(err) => {
                state.conn = None;
                if matches!(err, StoreError::Timeout(_)) {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                }
                return Err(err);
            }
        };
        let message = || String::from_utf8_lossy(&response.a).into_owned();
        match response.tag {
            STATUS_OK => Ok(Reply::Blob(response.a)),
            STATUS_NOT_FOUND => Ok(Reply::NotFound),
            STATUS_ERR_IO => Err(StoreError::Io(message())),
            STATUS_ERR_CORRUPT => Err(StoreError::Corrupt(message())),
            STATUS_ERR_MISSING => Err(StoreError::Missing(message())),
            other => {
                // Unknown status: protocol desync, treat as transport loss.
                state.conn = None;
                Err(StoreError::Disconnected(format!("unknown response status {other}")))
            }
        }
    }

    fn call(&self, op: u8, key: &str, val: &[u8]) -> Result<Reply, StoreError> {
        self.counters.ops.fetch_add(1, Ordering::Relaxed);
        let mut state = self.state.lock().expect("remote store lock");
        let (result, telemetry) =
            self.policy.run_tracked(|_| self.attempt(&mut state, op, key, val));
        self.counters.retries.fetch_add(telemetry.retries, Ordering::Relaxed);
        result
    }
}

impl MapStore for RemoteStore {
    fn put(&mut self, key: &str, value: Vec<u8>) -> Result<(), StoreError> {
        self.call(OP_PUT, key, &value).map(|_| ())
    }

    fn get(&self, key: &str) -> Result<Option<Vec<u8>>, StoreError> {
        match self.call(OP_GET, key, &[])? {
            Reply::Blob(bytes) => Ok(Some(bytes)),
            Reply::NotFound => Ok(None),
        }
    }

    fn delete(&mut self, key: &str) -> Result<(), StoreError> {
        self.call(OP_DELETE, key, &[]).map(|_| ())
    }

    fn keys(&self, prefix: &str) -> Result<Vec<String>, StoreError> {
        match self.call(OP_KEYS, prefix, &[])? {
            Reply::Blob(payload) => decode_key_list(&payload),
            Reply::NotFound => Ok(Vec::new()),
        }
    }
}

/// How long a server-side connection handler blocks waiting for the next
/// request's first byte before re-checking the shutdown flag.
const SERVER_POLL: Duration = Duration::from_millis(20);
/// Once a request has started arriving, how long the server waits for the
/// rest of the frame.
const SERVER_FRAME_TIMEOUT: Duration = Duration::from_secs(10);
/// Connections served at once, one handler thread each. The accept loop
/// closes a connection beyond the cap without serving it; the client sees a
/// transport failure and its retry policy redials later.
const MAX_CONNECTIONS: usize = 32;
/// Pause after an accept error other than `WouldBlock` — an aborted
/// handshake (`ECONNABORTED`) or descriptor exhaustion (`EMFILE`) — before
/// accepting again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// An embeddable TCP server exposing any [`MapStore`] over the blob
/// protocol. Accepts on a background thread, one handler thread per
/// connection up to `MAX_CONNECTIONS`; the backing store is
/// mutex-serialized (matching the single-writer discipline of the epoch
/// log).
pub struct StoreServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl StoreServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `backing`.
    pub fn spawn(addr: impl ToSocketAddrs, backing: Box<dyn MapStore>) -> Result<Self, StoreError> {
        let listener = TcpListener::bind(addr).map_err(|e| StoreError::Io(format!("bind: {e}")))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| StoreError::Io(format!("nonblocking accept: {e}")))?;
        let addr = listener.local_addr().map_err(|e| StoreError::Io(format!("local addr: {e}")))?;
        let stop = Arc::new(AtomicBool::new(false));
        let backing = Arc::new(Mutex::new(backing));
        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut handlers: Vec<JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    handlers.retain(|h| !h.is_finished());
                    match listener.accept() {
                        // Over the cap: closed unserved.
                        Ok((conn, _peer)) if handlers.len() >= MAX_CONNECTIONS => drop(conn),
                        Ok((conn, _peer)) => {
                            let stop = Arc::clone(&stop);
                            let backing = Arc::clone(&backing);
                            handlers.push(std::thread::spawn(move || {
                                serve_conn(conn, &backing, &stop);
                            }));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(2));
                        }
                        // One failed handshake or a full descriptor table
                        // must not end the server: back off, keep accepting.
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
                for handler in handlers {
                    let _ = handler.join();
                }
            })
        };
        Ok(Self { addr, stop, accept: Some(accept) })
    }

    /// The bound address (resolves port 0 to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, waits for in-flight handlers to drain, and returns.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

impl Drop for StoreServer {
    fn drop(&mut self) {
        self.halt();
    }
}

fn serve_conn(mut conn: TcpStream, backing: &Mutex<Box<dyn MapStore>>, stop: &AtomicBool) {
    let _ = conn.set_nodelay(true);
    loop {
        // Poll for the first header byte with a short timeout so shutdown
        // is observed even on an idle connection; no bytes are consumed on
        // timeout, so the stream never desyncs.
        let _ = conn.set_read_timeout(Some(SERVER_POLL));
        let mut header = [0u8; HEADER_LEN];
        match conn.read(&mut header[..1]) {
            Ok(0) => return, // clean EOF
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        // The request has started: read the rest with a generous deadline.
        let _ = conn.set_read_timeout(Some(SERVER_FRAME_TIMEOUT));
        if conn.read_exact(&mut header[1..]).is_err() {
            return;
        }
        let request = match read_frame_after_header(&mut conn, &header, &REQUEST_MAGIC) {
            Ok(frame) => frame,
            Err(_) => return, // bad magic / over-cap / torn request
        };
        let response = handle_request(request, backing);
        if write_frame(&mut conn, &RESPONSE_MAGIC, &response).is_err() {
            return;
        }
    }
}

fn handle_request(request: Frame, backing: &Mutex<Box<dyn MapStore>>) -> Frame {
    let reply = |tag: u8, a: Vec<u8>| Frame { seq: request.seq, tag, a, b: Vec::new() };
    let error_reply = |err: StoreError| {
        let (tag, msg) = match &err {
            StoreError::Corrupt(m) => (STATUS_ERR_CORRUPT, m.clone()),
            StoreError::Missing(m) => (STATUS_ERR_MISSING, m.clone()),
            // Timeout/Disconnected never originate from a local backing
            // store; collapse anything else to the transient I/O status.
            other => (STATUS_ERR_IO, other.to_string()),
        };
        Frame { seq: request.seq, tag, a: msg.into_bytes(), b: Vec::new() }
    };
    let Ok(key) = std::str::from_utf8(&request.a) else {
        return error_reply(StoreError::Io("non-UTF-8 key".into()));
    };
    let mut store = backing.lock().expect("store server backing lock");
    match request.tag {
        OP_PUT => match store.put(key, request.b) {
            Ok(()) => reply(STATUS_OK, Vec::new()),
            Err(err) => error_reply(err),
        },
        OP_GET => match store.get(key) {
            Ok(Some(bytes)) => reply(STATUS_OK, bytes),
            Ok(None) => reply(STATUS_NOT_FOUND, Vec::new()),
            Err(err) => error_reply(err),
        },
        OP_DELETE => match store.delete(key) {
            Ok(()) => reply(STATUS_OK, Vec::new()),
            Err(err) => error_reply(err),
        },
        OP_KEYS => match store.keys(key) {
            Ok(keys) => reply(STATUS_OK, encode_key_list(&keys)),
            Err(err) => error_reply(err),
        },
        other => error_reply(StoreError::Io(format!("unknown operation {other}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryStore;
    use crate::wire::alloc_probe::largest_request;
    use crate::wire::ALLOC_PER_BYTE;

    fn fast_policy() -> RetryPolicy {
        RetryPolicy::new(4, Duration::from_millis(500), Duration::ZERO)
    }

    fn loopback(backing: MemoryStore) -> (StoreServer, RemoteStore) {
        let server = StoreServer::spawn("127.0.0.1:0", Box::new(backing)).unwrap();
        let client = RemoteStore::connect(server.local_addr(), fast_policy()).unwrap();
        (server, client)
    }

    /// The generic conformance exercise every backend passes (mirrors
    /// `backend::tests::exercise`).
    fn exercise(store: &mut dyn MapStore) {
        assert_eq!(store.get("a/b").unwrap(), None);
        store.put("a/b", vec![1, 2, 3]).unwrap();
        store.put("a/c", vec![4]).unwrap();
        store.put("d", vec![5]).unwrap();
        assert_eq!(store.get("a/b").unwrap(), Some(vec![1, 2, 3]));
        store.put("a/b", vec![9]).unwrap();
        assert_eq!(store.get("a/b").unwrap(), Some(vec![9]), "puts overwrite");
        assert_eq!(store.keys("a/").unwrap(), vec!["a/b".to_string(), "a/c".to_string()]);
        assert_eq!(store.keys("").unwrap().len(), 3);
        store.delete("a/b").unwrap();
        assert_eq!(store.get("a/b").unwrap(), None);
        store.delete("a/b").unwrap(); // deleting a missing key is a no-op
        assert_eq!(store.keys("a/").unwrap(), vec!["a/c".to_string()]);
    }

    #[test]
    fn remote_store_conforms_over_loopback() {
        let (server, mut client) = loopback(MemoryStore::new());
        exercise(&mut client);
        assert_eq!(client.counters().retries(), 0, "healthy transport never retries");
        assert_eq!(client.counters().connects(), 1);
        server.shutdown();
    }

    #[test]
    fn writes_land_in_the_backing_store() {
        let backing = MemoryStore::new();
        let (server, mut client) = loopback(backing.clone());
        client.put("s0/base/1", vec![7; 64]).unwrap();
        assert_eq!(backing.get("s0/base/1").unwrap(), Some(vec![7; 64]));
        server.shutdown();
    }

    #[test]
    fn empty_blob_and_large_blob_roundtrip() {
        let (server, mut client) = loopback(MemoryStore::new());
        client.put("empty", Vec::new()).unwrap();
        assert_eq!(client.get("empty").unwrap(), Some(Vec::new()));
        let big = vec![0xabu8; 3 << 20];
        client.put("big", big.clone()).unwrap();
        assert_eq!(client.get("big").unwrap(), Some(big));
        server.shutdown();
    }

    #[test]
    fn client_reconnects_after_server_restart_on_same_port() {
        let backing = MemoryStore::new();
        let server = StoreServer::spawn("127.0.0.1:0", Box::new(backing.clone())).unwrap();
        let addr = server.local_addr();
        let mut client = RemoteStore::connect(
            addr,
            RetryPolicy::new(30, Duration::from_millis(500), Duration::from_millis(10)),
        )
        .unwrap();
        client.put("k", vec![1]).unwrap();
        server.shutdown();
        // Restart on the same port; the dropped connection is transient, so
        // the client's retry loop redials until the new server answers.
        // (Rebinding can briefly hit EADDRINUSE from TIME_WAIT sockets.)
        let server = {
            let mut attempt = 0;
            loop {
                match StoreServer::spawn(addr, Box::new(backing.clone())) {
                    Ok(server) => break server,
                    Err(_) if attempt < 500 => {
                        attempt += 1;
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    Err(e) => panic!("could not rebind {addr}: {e}"),
                }
            }
        };
        assert_eq!(client.get("k").unwrap(), Some(vec![1]));
        assert!(client.counters().connects() >= 2, "must have reconnected");
        server.shutdown();
    }

    #[test]
    fn dead_server_exhausts_retries_with_transient_error() {
        // Bind-then-drop reserves an address nobody listens on.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let policy = RetryPolicy::new(2, Duration::from_millis(100), Duration::ZERO);
        let err = match RemoteStore::connect(addr, policy) {
            Ok(_) => panic!("connect to a dead address must fail"),
            Err(err) => err,
        };
        assert!(err.is_transient(), "dead server must classify transient, got {err:?}");
    }

    #[test]
    fn server_reported_errors_surface_without_dropping_the_connection() {
        // FileStore rejects path-escaping keys with a server-side error;
        // the error must ride back over the protocol while the connection
        // stays up.
        let dir = std::env::temp_dir().join(format!("ags_remote_err_{}", std::process::id()));
        let server =
            StoreServer::spawn("127.0.0.1:0", Box::new(crate::FileStore::new(&dir).unwrap()))
                .unwrap();
        let mut client = RemoteStore::connect(server.local_addr(), fast_policy()).unwrap();
        let err = client.put("../escape", vec![1]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "server error must surface, got {err:?}");
        // The connection survives server-side errors (no redial), and the
        // next operation succeeds on the same session.
        client.put("fine", vec![2]).unwrap();
        assert_eq!(client.counters().connects(), 1);
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn connections_beyond_the_cap_are_closed_and_the_cap_frees_on_close() {
        let server = StoreServer::spawn("127.0.0.1:0", Box::new(MemoryStore::new())).unwrap();
        let dial = |attempts| {
            let policy = RetryPolicy::new(attempts, Duration::from_millis(500), Duration::ZERO);
            RemoteStore::connect(server.local_addr(), policy).unwrap()
        };
        // One round trip each: every client holds a handler before the next.
        let mut clients: Vec<RemoteStore> = (0..MAX_CONNECTIONS).map(|_| dial(1)).collect();
        for (i, client) in clients.iter_mut().enumerate() {
            client.put(&format!("k{i}"), vec![i as u8]).unwrap();
        }
        let mut refused = dial(1);
        let err = refused.put("over", vec![0]).unwrap_err();
        assert!(err.is_transient(), "a connection over the cap is closed: {err:?}");
        for (i, client) in clients.iter().enumerate() {
            assert_eq!(client.get(&format!("k{i}")).unwrap(), Some(vec![i as u8]), "client {i}");
        }
        // Once the served clients hang up, their handlers end and a newcomer
        // is served (its retries cover the handlers' exit).
        drop(clients);
        let mut late = RemoteStore::connect(
            server.local_addr(),
            RetryPolicy::new(100, Duration::from_millis(500), Duration::from_millis(5)),
        )
        .unwrap();
        late.put("late", vec![1]).unwrap();
        assert_eq!(late.get("over").unwrap(), None, "the refused put never landed");
        server.shutdown();
    }

    #[test]
    fn key_list_codec_roundtrips_and_rejects_torn_payloads() {
        let keys = vec!["a".to_string(), "b/c".to_string(), String::new()];
        let encoded = encode_key_list(&keys);
        assert_eq!(decode_key_list(&encoded).unwrap(), keys);
        assert!(decode_key_list(&encoded[..encoded.len() - 1]).is_err());
        assert!(decode_key_list(&[1, 0, 0]).is_err());
    }

    /// A frame's wire bytes with its two length fields overwritten.
    fn forged(magic: &[u8; 4], frame: &Frame, len_a: u32, len_b: u32) -> Vec<u8> {
        let mut bytes = encode_frame(magic, frame);
        bytes[9..13].copy_from_slice(&len_a.to_le_bytes());
        bytes[13..17].copy_from_slice(&len_b.to_le_bytes());
        bytes
    }

    #[test]
    fn request_keys_are_capped_as_keys_and_response_payloads_as_blobs() {
        let frame = |a: Vec<u8>| Frame { seq: 7, tag: OP_PUT, a, b: vec![1, 2, 3] };
        let longest = encode_frame(&REQUEST_MAGIC, &frame(vec![b'k'; MAX_KEY_BYTES]));
        let read = read_frame(&mut &longest[..], &REQUEST_MAGIC).expect("a key at the cap");
        assert_eq!(
            (read.seq, read.tag, read.a.len(), read.b),
            (7, OP_PUT, MAX_KEY_BYTES, vec![1, 2, 3])
        );

        let over = encode_frame(&REQUEST_MAGIC, &frame(vec![b'k'; MAX_KEY_BYTES + 1]));
        let err = read_frame(&mut &over[..], &REQUEST_MAGIC).err().expect("oversize key");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);

        // The same length is an ordinary payload on a response.
        let response = encode_frame(&RESPONSE_MAGIC, &frame(vec![0xab; MAX_KEY_BYTES + 1]));
        let read = read_frame(&mut &response[..], &RESPONSE_MAGIC).expect("response payload");
        assert_eq!(read.a.len(), MAX_KEY_BYTES + 1);
        let huge = forged(&RESPONSE_MAGIC, &frame(Vec::new()), MAX_BLOB_BYTES as u32 + 1, 0);
        let err = read_frame(&mut &huge[..], &RESPONSE_MAGIC).err().expect("oversize blob");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn forged_length_with_a_short_body_fails_without_reserving_it() {
        // A gibibyte announced, ten bytes sent: the buffer starts at the
        // reserve and follows the bytes that arrive, so this neither
        // allocates the gibibyte nor waits for it.
        let frame = Frame { seq: 1, tag: OP_PUT, a: b"key".to_vec(), b: vec![9; 10] };
        let bytes = forged(&REQUEST_MAGIC, &frame, 3, MAX_BLOB_BYTES as u32);
        let err = read_frame(&mut &bytes[..], &REQUEST_MAGIC).err().expect("short body");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
        let body = read_body(&mut &[5u8; 100][..], 100).expect("exact body");
        assert!(body.len() == 100 && body.capacity() <= BODY_RESERVE_BYTES);
        assert!(read_body(&mut &[5u8; 99][..], 100).is_err());
    }

    #[test]
    fn truncated_or_mutated_frame_never_panics() {
        let frame = Frame { seq: 41, tag: OP_PUT, a: b"s0/delta/7".to_vec(), b: vec![3; 96] };
        let bytes = encode_frame(&REQUEST_MAGIC, &frame);
        // A body reserves up to `BODY_RESERVE_BYTES` before its bytes arrive.
        let fixed = BODY_RESERVE_BYTES;
        crate::wire::assert_prefixes_fail_and_mutations_never_panic(&bytes, 0xf4a3e, fixed, |b| {
            read_frame(&mut std::io::Cursor::new(b), &REQUEST_MAGIC).is_ok()
        });
    }

    #[test]
    fn truncated_or_mutated_key_list_never_panics() {
        let keys: Vec<String> =
            ["s0/base/4", "s0/delta/5", "s0/manifest/2"].map(String::from).to_vec();
        let bytes = encode_key_list(&keys);
        crate::wire::assert_prefixes_fail_and_mutations_never_panic(&bytes, 0x6e75, 256, |b| {
            decode_key_list(b).is_ok()
        });
        // A count equal to the payload's own length, as if each key took
        // one byte, is rejected within the same bound.
        let mut claims_own_length = bytes.clone();
        claims_own_length[..4].copy_from_slice(&(bytes.len() as u32).to_le_bytes());
        assert_eq!(bytes.len(), 48);
        let (decoded, largest) = largest_request(|| decode_key_list(&claims_own_length));
        assert!(decoded.is_err() && largest <= ALLOC_PER_BYTE * 48 + 256, "{largest} B from 48");
    }
}
