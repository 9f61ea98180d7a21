//! Pluggable transport: how framed wire bytes physically move between the
//! server and its clients.
//!
//! [`crate::comm::Network`] owns everything *semantic* about the exchange —
//! fault injection, byte accounting, the count-driven collect — and hands
//! the raw frames to a [`Transport`]. A backend writes one path per
//! direction ([`Transport::broadcast_to_clients`] down,
//! [`Transport::send_to_server_with`] up) and one receive at each end;
//! the single-frame sends are provided over those. Two backends:
//!
//! * [`ChannelTransport`] — a locked queue per client and one
//!   `std::sync::mpsc` uplink channel, the fast in-process default. A send
//!   happens-before the matching receive, so client receives never wait.
//! * [`SocketTransport`] — every frame crosses a real kernel socket (TCP or
//!   Unix) through the length-prefixed frame protocol below. It has a
//!   server end, built by [`SocketListener::accept_federation`], and a
//!   shard end hosting some of the clients, built by
//!   [`SocketTransport::connect_tcp`] / [`SocketTransport::connect_unix`];
//!   separate OS processes each hold one (`examples/socket_federation`).
//!   [`SocketTransport::tcp`] / [`SocketTransport::unix`] put both ends in
//!   one process, one shard hosting every client, which proves the socket
//!   path bit-identical to the channel path at the same seed. A method of
//!   an end a transport lacks reports [`WireError::Malformed`].
//!
//! # Frame protocol
//!
//! Every frame on a socket is addressed and length-prefixed:
//!
//! ```text
//! u32_le address | u32_le len | len bytes of payload
//! ```
//!
//! `len` is capped at [`MAX_FRAME_LEN`]; a header above the cap is
//! rejected before any allocation ([`WireError::FrameTooLarge`]), and a
//! header under it buys `READ_AHEAD` bytes of buffer and no more until
//! the payload it promises arrives. What the payload is depends on
//! the direction:
//!
//! * **Uplink** (shard → server): `address` is the sending client, which
//!   the shard must host, and the payload is one `WireMessage` encoding.
//!   The shard builds the frame — header and message — in one buffer kept
//!   beside its connection and writes it with one call
//!   ([`Transport::send_to_server_with`]); the buffer grows to the largest
//!   frame sent and lives as long as the connection. Lock order: buffer,
//!   then connection.
//! * **Downlink** (server → shard): `address` is always
//!   [`MULTICAST_SENTINEL`] and the payload is
//!   `u32_le count | count × u32_le client, strictly ascending | message`.
//!   A broadcast crosses each shard connection once, whatever the number
//!   of recipients behind it ([`Transport::broadcast_to_clients`]); the
//!   shard's reader hands every addressed inbox a reference-counted view
//!   of the one message. An empty or unsorted id list, an id the shard
//!   does not host, or a count that outruns the frame is a protocol
//!   violation: the reader stops trusting the stream, and nothing of the
//!   offending frame is delivered to anyone.
//! * **Hello** (first frame of a shard): `address` is [`HELLO_SENTINEL`]
//!   and the payload lists the protocol version, the fleet size and the
//!   client ids the shard hosts; the server refuses another version and
//!   overlapping or out-of-range claims.
//!
//! The message in a data frame is checked by `WireMessage::check`,
//! decoded by `WireMessage::decode`, or read in place — into a model by
//! `Network::client_recv_full_model_into`, into a fold by
//! `WireMessage::full_model_payloads` — each of which rejects trailing
//! bytes: frame boundaries and message boundaries must agree exactly.
//! Every payload a backend receives or sends sits in a [`Frame`], whose
//! buffer is recycled ([`crate::frame`]).
//!
//! # Fault injection
//!
//! Injected faults ([`crate::comm::FaultPlan`]) are applied by `Network`
//! *above* this seam: a dropped broadcast is never handed to the
//! transport, a corrupted uplink is mangled before it is framed. The
//! transport only adds *genuine* failure — a dead peer surfaces as
//! [`WireError::ChannelClosed`] on send and as silence (collected as a
//! drop) on receive, which is exactly how the fault plan's simulated
//! drops already present to the collector.
//!
//! # Determinism
//!
//! No backend consults a clock or ambient RNG. The socket backends park
//! one reader thread per connection on blocking reads; it routes each
//! frame straight into the channel of the mailbox it is addressed to, so a
//! bounded receive is a plain `recv_timeout` whose wait is the caller's
//! safety net, never a scheduling decision:
//! which frames arrive is decided by the fault plan and the peers, not by
//! timing.

// C1: a length, count or id narrowed by `as` wraps silently; use `try_from`.
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::frame::{buffer_for, Frame};
use bytes::Bytes;
use fca_tensor::serialize::{Reader, WireError};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on one frame's payload length: the largest legal
/// `WireMessage` (a `MAX_WIRE_NUMEL`-element f32 tensor) plus header
/// slack. A length prefix above this is corruption or hostility, not a
/// message.
pub const MAX_FRAME_LEN: usize = (1 << 30) + (1 << 16);

/// Client-id sentinel marking a hello frame (no real client uses it:
/// fleets are bounded far below `u32::MAX`).
pub const HELLO_SENTINEL: u32 = u32::MAX;

/// Address marking a downlink multicast frame (see the module docs).
pub const MULTICAST_SENTINEL: u32 = u32::MAX - 1;

/// Hello payload magic + protocol version. Version 2 made every downlink
/// frame a multicast frame; a version-1 peer would misread them as frames
/// for one client, so it is refused at the rendezvous.
const HELLO_MAGIC: [u8; 4] = *b"FCH1";
const HELLO_VERSION: u16 = 2;

/// `u32 address | u32 len`.
const FRAME_HEADER_LEN: usize = 8;

/// How far ahead of the bytes that have arrived a reader reserves for the
/// rest of a frame.
const READ_AHEAD: usize = 1 << 20;

/// Connection attempts a shard makes before giving up on the server.
const CONNECT_RETRIES: usize = 200;
const CONNECT_RETRY_PAUSE: Duration = Duration::from_millis(25);

/// How framed bytes move between the server and its clients. Implementors
/// are shared across the server thread and the rayon client workers, so
/// every method takes `&self`. Each writes one path per direction —
/// [`Transport::broadcast_to_clients`] down, [`Transport::send_to_server_with`]
/// up — and the single-frame sends are provided over them.
///
/// The two `recv_*` methods bound their wait by `wait` and report an
/// empty mailbox as `Ok(None)` — "nothing arrived" is an outcome, not an
/// error. `Err` is reserved for a genuinely broken link (dead peer,
/// protocol violation), mapped into the [`WireError`] taxonomy.
pub trait Transport: Send + Sync {
    /// Number of clients addressable on this transport.
    fn num_clients(&self) -> usize;

    /// Human-readable backend name (stamped into traces).
    fn backend(&self) -> &'static str;

    /// Queue the same downlink frame for every one of `clients` (distinct
    /// ids). Returns the bytes handed to the backend's writes, framing
    /// included. Every reachable recipient is served before the first
    /// error is reported.
    fn broadcast_to_clients(&self, clients: &[usize], frame: &Frame) -> Result<u64, WireError>;

    /// Take the next downlink frame addressed to `client`, waiting at
    /// most `wait`.
    fn recv_frame_at_client(
        &self,
        client: usize,
        wait: Duration,
    ) -> Result<Option<Frame>, WireError>;

    /// Queue one uplink frame from `client` that `fill` appends to the
    /// buffer it is handed (which may already hold the backend's framing:
    /// append, never truncate); `len` is the size `fill` will add, as a
    /// reservation hint. Returns the bytes handed to the backend's writes,
    /// framing included.
    fn send_to_server_with(
        &self,
        client: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<u64, WireError>;

    /// Take the next uplink frame from any client, waiting at most
    /// `wait`.
    fn recv_frame_at_server(&self, wait: Duration) -> Result<Option<(usize, Frame)>, WireError>;

    /// [`Transport::broadcast_to_clients`] of a copy of `frame` to one
    /// client.
    fn send_to_client(&self, client: usize, frame: Bytes) -> Result<(), WireError> {
        self.broadcast_to_clients(&[client], &Frame::from(&frame[..]))
            .map(drop)
    }

    /// [`Transport::recv_frame_at_client`], copied out into a `Bytes`.
    fn recv_at_client(&self, client: usize, wait: Duration) -> Result<Option<Bytes>, WireError> {
        let frame = self.recv_frame_at_client(client, wait)?;
        Ok(frame.map(|f| f.to_bytes()))
    }

    /// [`Transport::send_to_server_with`] of a frame already built.
    fn send_to_server(&self, client: usize, frame: Bytes) -> Result<(), WireError> {
        self.send_to_server_with(client, frame.len(), &mut |buf| {
            buf.extend_from_slice(&frame);
            Ok(())
        })
        .map(drop)
    }

    /// [`Transport::recv_frame_at_server`], copied out into a `Bytes`.
    fn recv_at_server(&self, wait: Duration) -> Result<Option<(usize, Bytes)>, WireError> {
        let got = self.recv_frame_at_server(wait)?;
        Ok(got.map(|(client, f)| (client, f.to_bytes())))
    }
}

/// Make every write of a broadcast, then report: the bytes written in
/// all, or the first error once every recipient has had its turn.
fn sum_writes(writes: impl Iterator<Item = Result<u64, WireError>>) -> Result<u64, WireError> {
    let mut wrote = 0u64;
    let mut first_err = None;
    for write in writes {
        match write {
            Ok(n) => wrote += n,
            Err(e) => first_err = first_err.or(Some(e)),
        }
    }
    first_err.map_or(Ok(wrote), Err)
}

// --------------------------------------------------------------------
// In-process backend: queues and one channel.
// --------------------------------------------------------------------

/// The fast in-process default: one mailbox per client plus a shared
/// uplink channel. Within a process a send happens-before the matching
/// receive, so the client-side receive never needs to wait — which is why a
/// mailbox is a plain locked queue (40 bytes while empty, where an `mpsc`
/// channel is 512: it decides a 10 000-client fleet's footprint) and only
/// the uplink, which the server does wait on, is a channel. A `Receiver`
/// is not `Sync`, so it sits behind a mutex; every mailbox has one consumer
/// at a time and no lock here is contended.
pub struct ChannelTransport {
    at_client: Vec<Mutex<VecDeque<Frame>>>,
    to_server: Sender<(usize, Frame)>,
    at_server: Mutex<Receiver<(usize, Frame)>>,
}

impl ChannelTransport {
    /// Mailboxes for `num_clients` clients.
    pub fn new(num_clients: usize) -> Self {
        let (to_server, at_server) = channel();
        ChannelTransport {
            at_client: (0..num_clients).map(|_| Mutex::default()).collect(),
            to_server,
            at_server: Mutex::new(at_server),
        }
    }
}

impl Transport for ChannelTransport {
    fn num_clients(&self) -> usize {
        self.at_client.len()
    }

    fn backend(&self) -> &'static str {
        "channel"
    }

    fn broadcast_to_clients(&self, clients: &[usize], frame: &Frame) -> Result<u64, WireError> {
        sum_writes(clients.iter().map(|&k| {
            let mailbox = self.at_client.get(k).ok_or(WireError::ChannelClosed)?;
            lock(mailbox).push_back(frame.clone());
            Ok(frame.len() as u64)
        }))
    }

    fn recv_frame_at_client(
        &self,
        client: usize,
        _wait: Duration,
    ) -> Result<Option<Frame>, WireError> {
        // In-process delivery is synchronous: an empty mailbox means "not
        // coming", never "not yet", so there is nothing to wait for.
        let mailbox = self.at_client.get(client).ok_or(WireError::ChannelClosed)?;
        Ok(lock(mailbox).pop_front())
    }

    fn send_to_server_with(
        &self,
        client: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<u64, WireError> {
        let frame = Frame::encode(len, fill)?;
        let wrote = frame.len() as u64;
        self.to_server
            .send((client, frame))
            .map_err(|_| WireError::ChannelClosed)?;
        Ok(wrote)
    }

    fn recv_frame_at_server(&self, wait: Duration) -> Result<Option<(usize, Frame)>, WireError> {
        Ok(lock(&self.at_server).recv_timeout(wait).ok())
    }
}

// --------------------------------------------------------------------
// The socket frame codec, over either stream flavour.
// --------------------------------------------------------------------

/// A duplex byte stream: TCP or a Unix domain socket.
enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    fn try_clone(&self) -> Result<Conn, WireError> {
        match self {
            Conn::Tcp(s) => s.try_clone().map(Conn::Tcp),
            #[cfg(unix)]
            Conn::Unix(s) => s.try_clone().map(Conn::Unix),
        }
        .map_err(|_| WireError::ChannelClosed)
    }

    /// Tear down both directions so parked reader threads observe EOF.
    fn shutdown(&self) {
        match self {
            Conn::Tcp(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                let _ = s.shutdown(Shutdown::Both);
            }
        }
    }

    /// [`read_frame`] on the stream itself, not through an adapter: the
    /// standard streams can fill unwritten buffer space, which a `Read`
    /// implementation written outside the standard library cannot.
    fn read_frame(&mut self) -> Result<Option<(u32, Frame)>, WireError> {
        match self {
            Conn::Tcp(s) => read_frame(s),
            #[cfg(unix)]
            Conn::Unix(s) => read_frame(s),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

/// Fill `buf` from the stream. `Ok(false)` is a clean EOF *before the
/// first byte*; EOF mid-buffer is [`WireError::Truncated`] (the peer died
/// inside a frame).
fn read_exact_or_eof(r: &mut impl Read, buf: &mut [u8]) -> Result<bool, WireError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return if filled == 0 {
                    Ok(false)
                } else {
                    Err(WireError::Truncated)
                }
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return Err(WireError::ChannelClosed),
        }
    }
    Ok(true)
}

/// The header of a frame addressed to `address` carrying `payload_len`
/// bytes, or [`WireError::FrameTooLarge`].
fn frame_header(address: u32, payload_len: usize) -> Result<[u8; FRAME_HEADER_LEN], WireError> {
    let len = u32::try_from(payload_len)
        .ok()
        .filter(|&n| n as usize <= MAX_FRAME_LEN)
        .ok_or(WireError::FrameTooLarge {
            len: payload_len as u64,
            cap: MAX_FRAME_LEN as u64,
        })?;
    let mut head = [0u8; FRAME_HEADER_LEN];
    head[..4].copy_from_slice(&address.to_le_bytes());
    head[4..].copy_from_slice(&len.to_le_bytes());
    Ok(head)
}

/// Write `head` then `body` and flush; returns the bytes written.
fn write_parts(w: &mut impl Write, head: &[u8], body: &[u8]) -> Result<u64, WireError> {
    w.write_all(head).map_err(|_| WireError::ChannelClosed)?;
    w.write_all(body).map_err(|_| WireError::ChannelClosed)?;
    w.flush().map_err(|_| WireError::ChannelClosed)?;
    Ok((head.len() + body.len()) as u64)
}

/// Write one addressed frame: `u32 address | u32 len | payload`.
fn write_frame(w: &mut impl Write, address: u32, payload: &[u8]) -> Result<u64, WireError> {
    write_parts(w, &frame_header(address, payload.len())?, payload)
}

/// What a multicast frame's id list must be, written or read: somebody,
/// nobody twice, in ascending order.
fn check_recipients<T: PartialOrd>(ids: &[T]) -> Result<(), WireError> {
    if ids.is_empty() || ids.windows(2).any(|w| w[0] >= w[1]) {
        return Err(WireError::Malformed(
            "multicast recipients must be distinct and ascending",
        ));
    }
    Ok(())
}

/// Write one multicast frame carrying `message` to `ids`
/// ([`check_recipients`]): the ids travel in front of the one copy of the
/// message.
fn write_multicast(w: &mut impl Write, ids: &[u32], message: &[u8]) -> Result<u64, WireError> {
    check_recipients(ids)?;
    let count = u32::try_from(ids.len()).map_err(|_| WireError::ShapeTooLarge)?;
    let payload_len = (4 + 4 * ids.len())
        .checked_add(message.len())
        .ok_or(WireError::ShapeTooLarge)?;
    let mut head = Vec::with_capacity(FRAME_HEADER_LEN + 4 + 4 * ids.len());
    head.extend_from_slice(&frame_header(MULTICAST_SENTINEL, payload_len)?);
    head.extend_from_slice(&count.to_le_bytes());
    for id in ids {
        head.extend_from_slice(&id.to_le_bytes());
    }
    write_parts(w, &head, message)
}

/// Split a multicast payload into its recipients and a view of its
/// message. Strict: the id list must lie inside the payload and pass
/// [`check_recipients`].
fn decode_multicast(payload: &Frame) -> Result<(Vec<usize>, Frame), WireError> {
    let mut r = Reader::new(payload);
    let ids = take_ids(&mut r)?;
    check_recipients(&ids)?;
    let message = payload.slice(4 + 4 * ids.len()..payload.len());
    Ok((ids, message))
}

/// `u32 count | count × u32 id`, as the multicast and hello payloads both
/// carry it.
fn take_ids(r: &mut Reader) -> Result<Vec<usize>, WireError> {
    (0..r.count(4)?).map(|_| Ok(r.u32()? as usize)).collect()
}

/// Append exactly `len` bytes of the stream to `payload`. The space is
/// reserved as the bytes arrive — [`READ_AHEAD`] beyond them, or as much
/// again as has arrived once that is more — so a length prefix alone
/// commits no memory; and it is filled as it is reserved, never zeroed
/// first.
fn read_payload(r: &mut impl Read, len: usize, payload: &mut Vec<u8>) -> Result<(), WireError> {
    let end = payload.len() + len;
    while payload.len() < end {
        if payload.len() == payload.capacity() {
            payload.reserve((end - payload.len()).min(READ_AHEAD));
        }
        let step = (end - payload.len()).min(payload.capacity() - payload.len());
        match r.by_ref().take(step as u64).read_to_end(payload) {
            Ok(0) => return Err(WireError::Truncated),
            Ok(_) => {}
            Err(_) => return Err(WireError::ChannelClosed),
        }
    }
    Ok(())
}

/// Read one addressed frame into a buffer from the frame pool
/// ([`crate::frame::buffer_for`]). `Ok(None)` is a clean EOF at a frame
/// boundary; the length prefix is validated against [`MAX_FRAME_LEN`]
/// before anything is reserved for the payload.
fn read_frame(r: &mut impl Read) -> Result<Option<(u32, Frame)>, WireError> {
    let mut head = [0u8; FRAME_HEADER_LEN];
    if !read_exact_or_eof(r, &mut head)? {
        return Ok(None);
    }
    let mut fields = Reader::new(&head);
    let (address, len) = (fields.u32()?, fields.u32()? as usize);
    if len > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge {
            len: len as u64,
            cap: MAX_FRAME_LEN as u64,
        });
    }
    let mut payload = buffer_for(len);
    read_payload(r, len, &mut payload)?;
    Ok(Some((address, Frame::from(payload))))
}

/// Hello payload: `magic | u16 version | u32 fleet size | u32 count | ids`.
/// Fails with [`WireError::ShapeTooLarge`] when a fleet size or client id
/// does not fit the wire's `u32` fields.
fn encode_hello(num_clients: usize, ids: &[usize]) -> Result<Vec<u8>, WireError> {
    let wire_u32 = |n: usize| u32::try_from(n).map_err(|_| WireError::ShapeTooLarge);
    let mut out = Vec::with_capacity(14 + 4 * ids.len());
    out.extend_from_slice(&HELLO_MAGIC);
    out.extend_from_slice(&HELLO_VERSION.to_le_bytes());
    out.extend_from_slice(&wire_u32(num_clients)?.to_le_bytes());
    out.extend_from_slice(&wire_u32(ids.len())?.to_le_bytes());
    for &id in ids {
        out.extend_from_slice(&wire_u32(id)?.to_le_bytes());
    }
    Ok(out)
}

/// Strict hello decode: checked lengths, no trailing bytes.
fn decode_hello(payload: &[u8]) -> Result<(usize, Vec<usize>), WireError> {
    let mut r = Reader::new(payload);
    if r.bytes(4)? != HELLO_MAGIC {
        return Err(WireError::Malformed("hello magic mismatch"));
    }
    if r.u16()? != HELLO_VERSION {
        return Err(WireError::Malformed("unsupported hello version"));
    }
    let total = r.u32()? as usize;
    let ids = take_ids(&mut r)?;
    r.finish()?;
    Ok((total, ids))
}

/// Spawn a named reader thread that hands every whole frame off `conn` to
/// `route` — `(address, payload)`, straight into the mailbox it is for —
/// until EOF, a torn frame, or `route` answering `false`: a protocol
/// violation (stop trusting the stream) or a closed mailbox.
fn spawn_reader(
    name: &str,
    mut conn: Conn,
    mut route: impl FnMut(u32, Frame) -> bool + Send + 'static,
) -> Result<JoinHandle<()>, WireError> {
    std::thread::Builder::new()
        .name(format!("fca-transport-{name}"))
        .spawn(move || {
            while let Ok(Some((address, payload))) = conn.read_frame() {
                if !route(address, payload) {
                    break;
                }
            }
        })
        .map_err(|_| WireError::ChannelClosed)
}

/// End a connection's reader: `conn` is already shut down, so the reader
/// is at EOF; a reader that panicked has nothing left to report here.
fn join_reader(reader: JoinHandle<()>) {
    let _ = reader.join();
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    // A poisoned lock means another worker panicked mid-write; the frame
    // stream may be torn but this thread should report that as a wire
    // error, not propagate the panic.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

// --------------------------------------------------------------------
// Listening / connecting.
// --------------------------------------------------------------------

/// Where a socket federation listens.
enum ListenerKind {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

/// A bound server socket, ready to [`SocketListener::accept_federation`].
pub struct SocketListener {
    kind: ListenerKind,
    backend: &'static str,
}

/// Distinguishes concurrently-created sockets of one process (paths must
/// not collide; no wall clock or ambient RNG is available here).
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

impl SocketListener {
    /// Bind a TCP listener. `addr` is `host:port`; port 0 picks a free
    /// port (see [`SocketListener::local_addr`]).
    pub fn tcp(addr: &str) -> Result<Self, WireError> {
        let listener = TcpListener::bind(addr).map_err(|_| WireError::ChannelClosed)?;
        Ok(SocketListener {
            kind: ListenerKind::Tcp(listener),
            backend: "tcp",
        })
    }

    /// Bind a Unix-domain listener at an automatically chosen path under
    /// the system temp directory.
    #[cfg(unix)]
    pub fn unix_auto() -> Result<Self, WireError> {
        let seq = SOCKET_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("fca-{}-{}.sock", std::process::id(), seq));
        let _ = std::fs::remove_file(&path);
        let listener = UnixListener::bind(&path).map_err(|_| WireError::ChannelClosed)?;
        Ok(SocketListener {
            kind: ListenerKind::Unix(listener, path),
            backend: "unix",
        })
    }

    /// The address to hand to [`SocketTransport::connect_tcp`] or
    /// [`SocketTransport::connect_unix`]:
    /// `host:port` for TCP, the socket path for Unix.
    pub fn local_addr(&self) -> Result<String, WireError> {
        match &self.kind {
            ListenerKind::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .map_err(|_| WireError::ChannelClosed),
            #[cfg(unix)]
            ListenerKind::Unix(_, path) => Ok(path.display().to_string()),
        }
    }

    /// Accept exactly `shards` shard connections, validate their hello
    /// claims (fleet size matches, ids in range, no id claimed twice, all
    /// `num_clients` ids covered), and start the uplink reader threads: the
    /// server end of a [`SocketTransport`], with no shard end.
    ///
    /// Blocks until every shard has connected; the caller owns the
    /// process-level timeout (e.g. by killing a stuck launcher).
    pub fn accept_federation(
        self,
        num_clients: usize,
        shards: usize,
    ) -> Result<SocketTransport, WireError> {
        let mut shard_of = vec![usize::MAX; num_clients];
        let mut writers = Vec::with_capacity(shards);
        let mut readers = Vec::with_capacity(shards);
        let (uplink_tx, uplink_rx) = channel();
        for shard_idx in 0..shards {
            let conn = match &self.kind {
                ListenerKind::Tcp(l) => {
                    let (s, _) = l.accept().map_err(|_| WireError::ChannelClosed)?;
                    s.set_nodelay(true).map_err(|_| WireError::ChannelClosed)?;
                    Conn::Tcp(s)
                }
                #[cfg(unix)]
                ListenerKind::Unix(l, _) => {
                    let (s, _) = l.accept().map_err(|_| WireError::ChannelClosed)?;
                    Conn::Unix(s)
                }
            };
            let mut read_half = conn.try_clone()?;
            let hello = match read_half.read_frame()? {
                Some((HELLO_SENTINEL, payload)) => payload,
                Some(_) => return Err(WireError::Malformed("expected hello frame first")),
                None => return Err(WireError::ChannelClosed),
            };
            let (total, ids) = decode_hello(&hello)?;
            if total != num_clients {
                return Err(WireError::Malformed("shard disagrees on fleet size"));
            }
            let mut owned = Vec::with_capacity(ids.len());
            for id in ids {
                if id >= num_clients {
                    return Err(WireError::Malformed("shard claims out-of-range client"));
                }
                if shard_of[id] != usize::MAX {
                    return Err(WireError::Malformed("client claimed by two shards"));
                }
                shard_of[id] = shard_idx;
                owned.push(id);
            }
            owned.sort_unstable();
            let sink = uplink_tx.clone();
            // An uplink frame is addressed by the client that sent it; one
            // from a client this shard does not host ends the stream.
            readers.push(spawn_reader(
                &format!("uplink-{shard_idx}"),
                read_half,
                move |address, frame| {
                    let client = address as usize;
                    owned.binary_search(&client).is_ok() && sink.send((client, frame)).is_ok()
                },
            )?);
            writers.push(Mutex::new(conn));
        }
        if shard_of.contains(&usize::MAX) {
            return Err(WireError::Malformed(
                "not every client is hosted by a shard",
            ));
        }
        Ok(SocketTransport {
            num_clients,
            backend: self.backend,
            server: Some(ServerEnd {
                shard_of,
                shards: writers,
                readers,
                uplink_rx: Mutex::new(uplink_rx),
            }),
            shard: None,
        })
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        // A Unix socket's path is needed only until the rendezvous ends,
        // however it ends — accepted, refused or never attempted.
        #[cfg(unix)]
        if let ListenerKind::Unix(_, path) = &self.kind {
            let _ = std::fs::remove_file(path);
        }
    }
}

// --------------------------------------------------------------------
// The socket transport: a server end, a shard end, or both.
// --------------------------------------------------------------------

/// Frames over kernel sockets (see the module docs). The server end writes
/// each downlink once to every shard connection hosting one of its
/// recipients and muxes the uplinks of all of them; a shard end hosts a
/// subset of the clients behind one connection. A method of an end this
/// transport lacks reports [`WireError::Malformed`].
pub struct SocketTransport {
    num_clients: usize,
    backend: &'static str,
    /// Dropped before `shard`: a transport with both ends shuts its server
    /// connections down first.
    server: Option<ServerEnd>,
    shard: Option<ShardEnd>,
}

/// Kept for `benchmark/`, which names the one-process federation this way.
pub type LoopbackSocketTransport = SocketTransport;

struct ServerEnd {
    /// Client id → index into `shards`.
    shard_of: Vec<usize>,
    /// Write halves, one per shard connection.
    shards: Vec<Mutex<Conn>>,
    /// The uplink reader of each shard connection.
    readers: Vec<JoinHandle<()>>,
    uplink_rx: Mutex<Receiver<(usize, Frame)>>,
}

impl Drop for ServerEnd {
    fn drop(&mut self) {
        for conn in &self.shards {
            lock(conn).shutdown();
        }
        self.readers.drain(..).for_each(join_reader);
    }
}

struct ShardEnd {
    /// Where every uplink frame is built, header first, and written from.
    /// Taken before `conn`, and held across the write.
    write_buf: Mutex<Vec<u8>>,
    conn: Mutex<Conn>,
    /// Indexed by client id; `None` for clients hosted elsewhere.
    inbox: Vec<Option<Mutex<Receiver<Frame>>>>,
    /// The downlink reader; joined on drop.
    reader: Option<JoinHandle<()>>,
}

impl ShardEnd {
    /// `client`'s inbox, which is also the test of whether this shard hosts
    /// it.
    fn inbox(&self, client: usize) -> Result<&Mutex<Receiver<Frame>>, WireError> {
        self.inbox
            .get(client)
            .and_then(Option::as_ref)
            .ok_or(WireError::Malformed("client not hosted on this shard"))
    }
}

impl Drop for ShardEnd {
    fn drop(&mut self) {
        lock(&self.conn).shutdown();
        self.reader.take().into_iter().for_each(join_reader);
    }
}

/// Run `connect` until it succeeds — the server may still be binding — or
/// [`CONNECT_RETRIES`] retries have failed.
fn connect_with_retries<S>(connect: impl Fn() -> std::io::Result<S>) -> Result<S, WireError> {
    for _ in 0..CONNECT_RETRIES {
        if let Ok(stream) = connect() {
            return Ok(stream);
        }
        std::thread::sleep(CONNECT_RETRY_PAUSE);
    }
    connect().map_err(|_| WireError::ChannelClosed)
}

impl SocketTransport {
    /// Both ends in this process over TCP (127.0.0.1, ephemeral port), one
    /// shard hosting every client.
    pub fn tcp(num_clients: usize) -> Result<Self, WireError> {
        Self::loopback(SocketListener::tcp("127.0.0.1:0")?, num_clients)
    }

    /// Both ends in this process over a Unix-domain socket in the temp
    /// directory, one shard hosting every client.
    #[cfg(unix)]
    pub fn unix(num_clients: usize) -> Result<Self, WireError> {
        Self::loopback(SocketListener::unix_auto()?, num_clients)
    }

    fn loopback(listener: SocketListener, num_clients: usize) -> Result<Self, WireError> {
        let addr = listener.local_addr()?;
        let ids: Vec<usize> = (0..num_clients).collect();
        // Connect before accept: the listener backlog holds the pending
        // connection and the hello frame sits in the socket buffer until
        // `accept_federation` reads it.
        let shard = match &listener.kind {
            ListenerKind::Tcp(_) => Self::connect_tcp(&addr, num_clients, &ids)?,
            #[cfg(unix)]
            ListenerKind::Unix(..) => Self::connect_unix(&addr, num_clients, &ids)?,
        };
        let server = listener.accept_federation(num_clients, 1)?;
        Ok(SocketTransport {
            shard: shard.shard,
            ..server
        })
    }

    /// A shard end with no server end: connect to a server over TCP and
    /// claim `ids` out of a `num_clients`-client fleet.
    pub fn connect_tcp(addr: &str, num_clients: usize, ids: &[usize]) -> Result<Self, WireError> {
        let stream = connect_with_retries(|| TcpStream::connect(addr))?;
        stream
            .set_nodelay(true)
            .map_err(|_| WireError::ChannelClosed)?;
        Self::shard_end(Conn::Tcp(stream), num_clients, ids, "tcp")
    }

    /// [`SocketTransport::connect_tcp`] over a Unix-domain socket.
    #[cfg(unix)]
    pub fn connect_unix(path: &str, num_clients: usize, ids: &[usize]) -> Result<Self, WireError> {
        let stream = connect_with_retries(|| UnixStream::connect(path))?;
        Self::shard_end(Conn::Unix(stream), num_clients, ids, "unix")
    }

    fn shard_end(
        conn: Conn,
        num_clients: usize,
        ids: &[usize],
        backend: &'static str,
    ) -> Result<Self, WireError> {
        if ids.iter().any(|&id| id >= num_clients) {
            return Err(WireError::Malformed("shard claims out-of-range client"));
        }
        let mut write_half = conn.try_clone()?;
        write_frame(
            &mut write_half,
            HELLO_SENTINEL,
            &encode_hello(num_clients, ids)?,
        )?;
        let mut inbox: Vec<Option<Mutex<Receiver<Frame>>>> = Vec::with_capacity(num_clients);
        inbox.resize_with(num_clients, || None);
        let mut fanout: Vec<Option<Sender<Frame>>> = Vec::with_capacity(num_clients);
        fanout.resize_with(num_clients, || None);
        for &id in ids {
            let (tx, rx) = channel();
            fanout[id] = Some(tx);
            inbox[id] = Some(Mutex::new(rx));
        }
        // One reader thread pumps the shared stream and fans each
        // multicast frame out itself, so `recv_at_client` stays a plain
        // channel receive. Every recipient is checked before the first
        // delivery: a frame is delivered whole or not at all.
        let reader = spawn_reader("downlink", conn.try_clone()?, move |address, payload| {
            if address != MULTICAST_SENTINEL {
                return false;
            }
            let Ok((ids, message)) = decode_multicast(&payload) else {
                return false;
            };
            let hosted: Option<Vec<&Sender<Frame>>> = ids
                .iter()
                .map(|&id| fanout.get(id).and_then(Option::as_ref))
                .collect();
            hosted.is_some_and(|txs| txs.iter().all(|tx| tx.send(message.clone()).is_ok()))
        })?;
        Ok(SocketTransport {
            num_clients,
            backend,
            server: None,
            shard: Some(ShardEnd {
                write_buf: Mutex::new(Vec::new()),
                conn: Mutex::new(conn),
                inbox,
                reader: Some(reader),
            }),
        })
    }

    fn server(&self) -> Result<&ServerEnd, WireError> {
        self.server
            .as_ref()
            .ok_or(WireError::Malformed("shard process hosts no server"))
    }

    fn shard(&self) -> Result<&ShardEnd, WireError> {
        self.shard
            .as_ref()
            .ok_or(WireError::Malformed("server process hosts no clients"))
    }
}

impl Transport for SocketTransport {
    fn num_clients(&self) -> usize {
        self.num_clients
    }

    fn backend(&self) -> &'static str {
        self.backend
    }

    /// One multicast frame per shard connection that hosts a recipient.
    fn broadcast_to_clients(&self, clients: &[usize], frame: &Frame) -> Result<u64, WireError> {
        let server = self.server()?;
        let mut ids_of: Vec<Vec<u32>> = vec![Vec::new(); server.shards.len()];
        for &client in clients {
            let shard = *server
                .shard_of
                .get(client)
                .ok_or(WireError::ChannelClosed)?;
            ids_of[shard].push(u32::try_from(client).map_err(|_| WireError::ShapeTooLarge)?);
        }
        let hosting = server.shards.iter().zip(ids_of);
        sum_writes(
            hosting
                .filter(|(_, ids)| !ids.is_empty())
                .map(|(conn, mut ids)| {
                    ids.sort_unstable();
                    write_multicast(&mut *lock(conn), &ids, frame)
                }),
        )
    }

    fn recv_frame_at_client(
        &self,
        client: usize,
        wait: Duration,
    ) -> Result<Option<Frame>, WireError> {
        Ok(lock(self.shard()?.inbox(client)?).recv_timeout(wait).ok())
    }

    /// The frame is built in the connection's write buffer — the header's
    /// place kept at its front, the message appended by `fill`, the header
    /// filled in once the length is known — and leaves in one write. An
    /// uplink for a client this shard does not host is refused before
    /// anything is written: the server would end the shard's whole uplink
    /// stream at that frame.
    fn send_to_server_with(
        &self,
        client: usize,
        len: usize,
        fill: &mut dyn FnMut(&mut Vec<u8>) -> Result<(), WireError>,
    ) -> Result<u64, WireError> {
        let shard = self.shard()?;
        shard.inbox(client)?;
        let wire_id = u32::try_from(client).map_err(|_| WireError::ShapeTooLarge)?;
        let mut buf = lock(&shard.write_buf);
        buf.clear();
        buf.reserve(FRAME_HEADER_LEN + len);
        buf.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
        fill(&mut buf)?;
        let payload_len = buf
            .len()
            .checked_sub(FRAME_HEADER_LEN)
            .ok_or(WireError::Malformed(
                "uplink encoder cut into the frame header",
            ))?;
        buf[..FRAME_HEADER_LEN].copy_from_slice(&frame_header(wire_id, payload_len)?);
        write_parts(&mut *lock(&shard.conn), &buf, &[])
    }

    fn recv_frame_at_server(&self, wait: Duration) -> Result<Option<(usize, Frame)>, WireError> {
        Ok(lock(&self.server()?.uplink_rx).recv_timeout(wait).ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(5);

    fn exercise(t: &dyn Transport) {
        assert_eq!(t.num_clients(), 3);
        // Downlink to each client, out of order.
        for k in [2usize, 0, 1] {
            t.send_to_client(k, Bytes::from(vec![k as u8; 5 + k]))
                .expect("downlink");
        }
        for k in 0..3usize {
            let frame = t.recv_at_client(k, WAIT).expect("recv").expect("frame");
            assert_eq!(frame.len(), 5 + k);
            assert!(frame.iter().all(|&b| b == k as u8));
        }
        // Uplink from each client; the mux preserves every frame.
        for k in 0..3usize {
            t.send_to_server(k, Bytes::from(vec![0xF0 | k as u8; 9]))
                .expect("uplink");
        }
        let mut seen = [false; 3];
        for _ in 0..3 {
            let (k, frame) = t.recv_at_server(WAIT).expect("recv").expect("frame");
            assert_eq!(frame.len(), 9);
            assert_eq!(frame[0], 0xF0 | k as u8);
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Empty mailboxes are outcomes, not errors.
        assert_eq!(
            t.recv_at_client(1, Duration::from_millis(1)).expect("recv"),
            None
        );
        assert!(t
            .recv_at_server(Duration::from_millis(1))
            .expect("recv")
            .is_none());
    }

    #[test]
    fn channel_transport_moves_frames() {
        exercise(&ChannelTransport::new(3));
    }

    #[test]
    fn tcp_loopback_moves_frames() {
        exercise(&SocketTransport::tcp(3).expect("bind tcp loopback"));
    }

    #[cfg(unix)]
    #[test]
    fn unix_loopback_moves_frames() {
        exercise(&SocketTransport::unix(3).expect("bind unix loopback"));
    }

    #[test]
    fn frame_codec_roundtrips_and_rejects_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 7, &[1, 2, 3]).expect("write");
        write_frame(&mut wire, 9, &[]).expect("write");
        let mut r = &wire[..];
        assert_eq!(
            read_frame(&mut r).expect("read"),
            Some((7, Frame::from(&[1, 2, 3][..])))
        );
        assert_eq!(
            read_frame(&mut r).expect("read"),
            Some((9, Frame::from(Vec::new())))
        );
        assert_eq!(read_frame(&mut r).expect("read"), None);

        // A length prefix above the cap is rejected before allocation.
        let mut huge = Vec::new();
        huge.extend_from_slice(&3u32.to_le_bytes());
        huge.extend_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(
            read_frame(&mut &huge[..]),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    /// A stream that yields at most `step` bytes per read.
    struct Dribble<'a>(&'a [u8], usize);

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.0.len().min(self.1).min(buf.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_length_prefix_alone_commits_no_memory() {
        // A header that claims the largest legal frame, then EOF — at once,
        // and after some of the payload: the buffer never runs further
        // ahead of the bytes that came than the read-ahead, or than their
        // own number.
        for sent in [0usize, 1, 4096, 3 * READ_AHEAD + 5] {
            let body = vec![0x5Au8; sent];
            let mut payload = Vec::new();
            assert_eq!(
                read_payload(&mut &body[..], MAX_FRAME_LEN, &mut payload),
                Err(WireError::Truncated)
            );
            assert_eq!(payload.len(), sent);
            assert!(
                payload.capacity() <= sent + sent.max(READ_AHEAD),
                "{} bytes reserved for {sent} received",
                payload.capacity()
            );
        }
        let mut wire = Vec::new();
        wire.extend_from_slice(&3u32.to_le_bytes());
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32).to_le_bytes());
        assert_eq!(read_frame(&mut &wire[..]), Err(WireError::Truncated));
    }

    #[test]
    fn a_frame_split_across_short_reads_still_assembles() {
        // (payload length, bytes per read): a short frame a byte at a time,
        // and one longer than a read-ahead step, so the buffer grows
        // mid-frame, in odd-sized, page-sized and unbounded reads.
        let cases = [
            (31usize, 1usize),
            (READ_AHEAD + 12_345, 7),
            (READ_AHEAD + 12_345, 4096),
            (READ_AHEAD + 12_345, usize::MAX),
        ];
        for (len, step) in cases {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut wire = Vec::new();
            write_frame(&mut wire, 11, &body).expect("write");
            write_frame(&mut wire, 12, &[7]).expect("write");
            let mut r = Dribble(&wire, step);
            let (id, got) = read_frame(&mut r).expect("read").expect("frame");
            assert_eq!(id, 11);
            assert!(
                got[..] == body[..],
                "{len} B in reads of {step}: payload differs"
            );
            let (id, got) = read_frame(&mut r).expect("read").expect("frame");
            assert_eq!((id, &got[..]), (12, &[7u8][..]));
            assert_eq!(read_frame(&mut r).expect("read"), None);
        }
    }

    #[test]
    fn multicast_codec_round_trips_and_is_strict() {
        let mut wire = Vec::new();
        let wrote = write_multicast(&mut wire, &[1, 4, 9], b"payload").expect("write");
        assert_eq!(wrote as usize, wire.len());
        assert_eq!(wire.len(), FRAME_HEADER_LEN + 4 + 3 * 4 + 7);
        let (address, payload) = read_frame(&mut &wire[..]).expect("read").expect("frame");
        assert_eq!(address, MULTICAST_SENTINEL);
        let (ids, message) = decode_multicast(&payload).expect("decode");
        assert_eq!((ids, &message[..]), (vec![1, 4, 9], &b"payload"[..]));

        // The writer refuses what the reader would.
        for ids in [&[][..], &[3, 3][..], &[4, 1][..]] {
            assert!(matches!(
                write_multicast(&mut Vec::new(), ids, b"x"),
                Err(WireError::Malformed(_))
            ));
        }
        let raw = |count: u32, ids: &[u32], message: &[u8]| {
            let mut p = count.to_le_bytes().to_vec();
            for id in ids {
                p.extend_from_slice(&id.to_le_bytes());
            }
            p.extend_from_slice(message);
            Frame::from(p)
        };
        // Empty, duplicate and descending id lists.
        assert!(matches!(
            decode_multicast(&raw(0, &[], b"msg")),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_multicast(&raw(2, &[5, 5], b"msg")),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            decode_multicast(&raw(2, &[6, 5], b"msg")),
            Err(WireError::Malformed(_))
        ));
        // A count that outruns the frame, by a little and by the most a
        // u32 can claim (4 × count must not wrap on any target).
        assert_eq!(
            decode_multicast(&raw(3, &[1, 2], b"")),
            Err(WireError::Truncated)
        );
        assert!(decode_multicast(&raw(u32::MAX, &[1, 2], b"msg")).is_err());
        // An id list cut anywhere, the count included.
        let whole = raw(2, &[1, 2], b"");
        for cut in 0..whole.len() {
            assert_eq!(
                decode_multicast(&whole.slice(0..cut)),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
        // No message is a message: the empty one.
        assert_eq!(
            decode_multicast(&whole).expect("decode"),
            (vec![1, 2], Frame::from(Vec::new()))
        );
    }

    #[test]
    fn frame_codec_reports_truncation_at_every_offset() {
        let mut wire = Vec::new();
        write_frame(&mut wire, 3, &[0xAB; 17]).expect("write");
        for cut in 1..wire.len() {
            let got = read_frame(&mut &wire[..cut]);
            assert!(
                matches!(got, Err(WireError::Truncated) | Ok(None)),
                "cut at {cut}: {got:?}"
            );
            // Only the empty prefix is a clean EOF.
            if cut > 0 {
                assert!(matches!(got, Err(WireError::Truncated)), "cut at {cut}");
            }
        }
    }

    #[test]
    fn hello_roundtrip_and_strictness() {
        let hello = encode_hello(10, &[1, 3, 5]).expect("encode");
        assert_eq!(&hello[..4], &HELLO_MAGIC);
        assert_eq!(decode_hello(&hello).expect("decode"), (10, vec![1, 3, 5]));
        // Trailing bytes are rejected.
        let mut long = hello.clone();
        long.push(0);
        assert!(matches!(
            decode_hello(&long),
            Err(WireError::TrailingBytes { extra: 1 })
        ));
        // Truncation at every offset errors, never panics.
        for cut in 0..hello.len() {
            assert!(decode_hello(&hello[..cut]).is_err(), "cut at {cut}");
        }
        // A corrupted magic is rejected.
        let mut bad_magic = hello.clone();
        bad_magic[0] = !HELLO_MAGIC[0];
        assert!(matches!(
            decode_hello(&bad_magic),
            Err(WireError::Malformed(_))
        ));
        // A hello from a different protocol revision is rejected.
        let mut bad_version = hello.clone();
        bad_version[4..6].copy_from_slice(&(HELLO_VERSION + 1).to_le_bytes());
        assert!(matches!(
            decode_hello(&bad_version),
            Err(WireError::Malformed(_))
        ));
    }

    /// A hand-driven server end: accepts one shard that hosts `ids` of a
    /// 4-client fleet and returns the raw stream, hello consumed.
    fn raw_server_for(ids: &[usize]) -> (TcpStream, SocketTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shard = SocketTransport::connect_tcp(&addr, 4, ids).expect("shard");
        let (mut stream, _) = listener.accept().expect("accept");
        let (address, hello) = read_frame(&mut stream).expect("read").expect("hello");
        assert_eq!(address, HELLO_SENTINEL);
        assert_eq!(decode_hello(&hello).expect("hello"), (4, ids.to_vec()));
        (stream, shard)
    }

    #[test]
    fn hostile_downlink_frames_end_the_stream_with_nothing_delivered() {
        let multicast = |count: u32, ids: &[u32]| {
            let mut p = count.to_le_bytes().to_vec();
            for id in ids {
                p.extend_from_slice(&id.to_le_bytes());
            }
            p.extend_from_slice(b"model");
            (MULTICAST_SENTINEL, p)
        };
        let hostile: Vec<(&str, (u32, Vec<u8>))> = vec![
            (
                "truncated id list",
                (MULTICAST_SENTINEL, vec![2, 0, 0, 0, 0, 0]),
            ),
            ("count overflow", multicast(u32::MAX, &[0, 1])),
            ("count larger than the frame", multicast(9, &[0, 1])),
            ("an id the shard does not host", multicast(2, &[0, 2])),
            ("an id outside the fleet", multicast(2, &[0, 77])),
            ("duplicate ids", multicast(2, &[1, 1])),
            ("descending ids", multicast(2, &[1, 0])),
            ("empty id list", multicast(0, &[])),
            ("a version-1 frame for one client", (0, b"model".to_vec())),
            ("a hello on the downlink", (HELLO_SENTINEL, Vec::new())),
        ];
        for (what, (address, payload)) in hostile {
            let (mut stream, shard) = raw_server_for(&[0, 1]);
            write_frame(&mut stream, address, &payload).expect("write");
            // A frame that would have been fine: the reader is gone.
            write_multicast(&mut stream, &[0, 1], b"late").expect("write");
            for k in [0usize, 1] {
                assert_eq!(
                    shard.recv_at_client(k, WAIT).expect("recv"),
                    None,
                    "{what}: client {k} was handed a frame"
                );
            }
        }
        // The same stream, well-formed: both clients see the one message.
        let (mut stream, shard) = raw_server_for(&[0, 1]);
        write_multicast(&mut stream, &[0, 1], b"model").expect("write");
        write_multicast(&mut stream, &[1], b"again").expect("write");
        assert_eq!(
            &shard.recv_at_client(0, WAIT).expect("recv").expect("frame")[..],
            b"model"
        );
        assert_eq!(
            &shard.recv_at_client(1, WAIT).expect("recv").expect("frame")[..],
            b"model"
        );
        assert_eq!(
            &shard.recv_at_client(1, WAIT).expect("recv").expect("frame")[..],
            b"again"
        );
    }

    #[test]
    fn server_refuses_a_version_1_hello() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let mut v1 = encode_hello(2, &[0, 1]).expect("encode");
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        let mut stream = TcpStream::connect(&addr).expect("connect");
        write_frame(&mut stream, HELLO_SENTINEL, &v1).expect("write");
        assert_eq!(
            listener.accept_federation(2, 1).err(),
            Some(WireError::Malformed("unsupported hello version"))
        );
    }

    #[test]
    fn a_broadcast_crosses_each_shard_connection_once() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = SocketTransport::connect_tcp(&addr, 5, &[0, 2, 4]).expect("shard a");
        let b = SocketTransport::connect_tcp(&addr, 5, &[1, 3]).expect("shard b");
        let server = listener.accept_federation(5, 2).expect("accept");
        let message = Frame::from(vec![0xC3u8; 1000]);
        // Unsorted on purpose: the frame's id list is the server's job.
        let wrote = server
            .broadcast_to_clients(&[4, 3, 0, 2], &message)
            .expect("broadcast");
        // Two frames: header + count + ids + one copy of the message each.
        let frame = |ids: u64| FRAME_HEADER_LEN as u64 + 4 + 4 * ids + 1000;
        assert_eq!(wrote, frame(3) + frame(1));
        for (shard, k) in [(&a, 0usize), (&a, 2), (&a, 4), (&b, 3)] {
            let got = shard.recv_frame_at_client(k, WAIT).expect("recv");
            assert_eq!(got.expect("frame"), message);
        }
        // Client 1 was not addressed.
        assert_eq!(
            b.recv_at_client(1, Duration::from_millis(1)).expect("recv"),
            None
        );
        assert!(matches!(
            server.broadcast_to_clients(&[2, 2], &message),
            Err(WireError::Malformed(_))
        ));
        // An uplink built in the connection's write buffer carries its framing.
        let wrote = a
            .send_to_server_with(4, 3, &mut |buf| {
                buf.extend_from_slice(b"abc");
                Ok(())
            })
            .expect("uplink");
        assert_eq!(wrote, FRAME_HEADER_LEN as u64 + 3);
        let (k, frame) = server.recv_at_server(WAIT).expect("recv").expect("frame");
        assert_eq!((k, &frame[..]), (4, &b"abc"[..]));
        // An encoder that fails sends nothing, and the next frame is whole.
        assert_eq!(
            a.send_to_server_with(4, 3, &mut |buf| {
                buf.extend_from_slice(b"torn");
                Err(WireError::ShapeTooLarge)
            }),
            Err(WireError::ShapeTooLarge)
        );
        a.send_to_server(0, Bytes::from_static(b"whole"))
            .expect("uplink");
        let (k, frame) = server.recv_at_server(WAIT).expect("recv").expect("frame");
        assert_eq!((k, &frame[..]), (0, &b"whole"[..]));
    }

    #[test]
    fn a_shard_refuses_an_uplink_for_a_client_it_does_not_host() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = SocketTransport::connect_tcp(&addr, 4, &[0, 2]).expect("shard a");
        let _b = SocketTransport::connect_tcp(&addr, 4, &[1, 3]).expect("shard b");
        let server = listener.accept_federation(4, 2).expect("accept");
        // Client 1 lives on the other shard: the frame would end this
        // shard's uplink stream at the server, so it is never written.
        assert_eq!(
            a.send_to_server(1, Bytes::from_static(b"stray")),
            Err(WireError::Malformed("client not hosted on this shard"))
        );
        a.send_to_server(2, Bytes::from_static(b"up"))
            .expect("uplink");
        let (k, frame) = server.recv_at_server(WAIT).expect("recv").expect("frame");
        assert_eq!((k, &frame[..]), (2, &b"up"[..]));
    }

    #[test]
    fn a_one_ended_transport_refuses_the_other_ends_methods() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let shard = SocketTransport::connect_tcp(&addr, 2, &[0, 1]).expect("shard");
        let server = listener.accept_federation(2, 1).expect("accept");
        let malformed = |got: Result<(), WireError>| matches!(got, Err(WireError::Malformed(_)));
        let fill = &mut |buf: &mut Vec<u8>| {
            buf.push(1);
            Ok(())
        };
        assert!(malformed(server.recv_at_client(0, WAIT).map(drop)));
        assert!(malformed(server.send_to_server_with(0, 1, fill).map(drop)));
        let frame = Frame::from(&b"down"[..]);
        assert!(malformed(
            shard.broadcast_to_clients(&[0], &frame).map(drop)
        ));
        assert!(malformed(shard.recv_at_server(WAIT).map(drop)));
        // Each end still does its own half.
        server
            .send_to_client(1, frame.to_bytes())
            .expect("downlink");
        assert_eq!(
            shard.recv_frame_at_client(1, WAIT).expect("recv"),
            Some(frame)
        );
    }

    #[test]
    fn server_rejects_conflicting_shards() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        // Two shards both claim client 1.
        let _a = SocketTransport::connect_tcp(&addr, 4, &[0, 1]).expect("shard a");
        let _b = SocketTransport::connect_tcp(&addr, 4, &[1, 2, 3]).expect("shard b");
        assert_eq!(
            listener.accept_federation(4, 2).err(),
            Some(WireError::Malformed("client claimed by two shards"))
        );
    }

    #[test]
    fn server_requires_full_coverage() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let _a = SocketTransport::connect_tcp(&addr, 4, &[0, 1]).expect("shard a");
        assert_eq!(
            listener.accept_federation(4, 1).err(),
            Some(WireError::Malformed(
                "not every client is hosted by a shard"
            ))
        );
    }

    #[cfg(unix)]
    #[test]
    fn a_unix_socket_path_goes_with_its_listener() {
        // A refused rendezvous: the shard claims a 5-client fleet.
        let listener = SocketListener::unix_auto().expect("bind");
        let path = listener.local_addr().expect("addr");
        let _shard = SocketTransport::connect_unix(&path, 5, &[0, 1, 2, 3]).expect("shard");
        assert_eq!(
            listener.accept_federation(4, 1).err(),
            Some(WireError::Malformed("shard disagrees on fleet size"))
        );
        assert!(!std::path::Path::new(&path).exists(), "{path} leaked");
        // A listener that never accepts.
        let listener = SocketListener::unix_auto().expect("bind");
        let path = listener.local_addr().expect("addr");
        assert!(std::path::Path::new(&path).exists());
        drop(listener);
        assert!(!std::path::Path::new(&path).exists(), "{path} leaked");
    }

    #[test]
    fn multi_shard_federation_routes_by_ownership() {
        let listener = SocketListener::tcp("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let a = SocketTransport::connect_tcp(&addr, 4, &[0, 2]).expect("shard a");
        let b = SocketTransport::connect_tcp(&addr, 4, &[1, 3]).expect("shard b");
        let server = listener.accept_federation(4, 2).expect("accept");
        for k in 0..4usize {
            server
                .send_to_client(k, Bytes::from(vec![k as u8; 4]))
                .expect("downlink");
        }
        for (shard, ids) in [(&a, [0usize, 2]), (&b, [1usize, 3])] {
            for k in ids {
                let frame = shard.recv_at_client(k, WAIT).expect("recv").expect("frame");
                assert_eq!(frame[0] as usize, k);
                // The other shard's clients are not hosted here.
                assert!(shard.recv_at_client((k + 1) % 4, WAIT).is_err());
            }
        }
        a.send_to_server(2, Bytes::from_static(b"up"))
            .expect("uplink");
        b.send_to_server(1, Bytes::from_static(b"up"))
            .expect("uplink");
        let mut got = vec![
            server.recv_at_server(WAIT).expect("recv").expect("frame").0,
            server.recv_at_server(WAIT).expect("recv").expect("frame").0,
        ];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
    }
}
