//! The daemon's only socket layer: line-delimited TCP, hardened.
//!
//! This is the single module in the workspace allowed to name socket
//! types — `lattice-lint`'s `raw-socket` rule confines `TcpListener`/
//! `TcpStream` here, so every byte on the wire passes through one
//! auditable seam. Everything above speaks [`Request`]/[`Response`]
//! frames; everything below is `std::net`. (That confinement is also
//! why [`inject_raw`], the chaos harness's transport-abuse entry
//! point, lives here rather than in the harness.)
//!
//! Hardening contract:
//!
//! * **Bounded frames** — [`Connection::read_line`] never buffers more
//!   than [`MAX_FRAME_BYTES`] of one line. An oversized frame is
//!   discarded up to its terminating newline and reported as a
//!   recoverable `transport: frame` error, so the daemon can answer
//!   with a structured error line and keep the connection; a hostile
//!   peer cannot balloon the heap.
//! * **Deadlines** — every connection carries read and write timeouts
//!   ([`DEFAULT_IO_TIMEOUT`] unless overridden), so a stalled peer
//!   pins a handler thread for a bounded time. Timeout errors carry
//!   `timeout` in their site for callers that branch on them.
//! * **Truncation is explicit** — a peer closing mid-line yields a
//!   `truncated frame` error, never a silently short read.
//! * **No Nagle stall** — every connection (accepted or dialled) sets
//!   `TCP_NODELAY`, and [`Connection::write_line`] hands the line and
//!   its newline to the kernel in one `write_all`. A request/response
//!   protocol sends one small segment per turn; with Nagle on, each
//!   turn would wait out the peer's delayed ACK (tens of milliseconds
//!   against a sub-millisecond step).
//!
//! I/O failures map onto [`LatticeError::Corrupted`] with the site
//! prefixed `transport:`, keeping the daemon inside the workspace's
//! single error type without inventing a parallel hierarchy.
//!
//! [`Request`]: crate::protocol::Request
//! [`Response`]: crate::protocol::Response

use lattice_core::LatticeError;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Hard ceiling on one frame's length, bytes, newline excluded. Sized
/// for the largest legitimate frame — a `region` response over a big
/// lattice — with room to spare, while still bounding what one
/// connection can make the daemon buffer.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;

/// Default per-operation read/write deadline on every connection.
/// Generous against slow engines, finite against dead peers.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// The site tag of recoverable frame-shape errors (oversized, not
/// UTF-8): the stream is re-synchronized at the next newline, so the
/// server can answer with a structured error and keep the connection.
const FRAME_SITE: &str = "transport: frame";

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

fn io_err(op: &str, e: &std::io::Error) -> LatticeError {
    let site =
        if is_timeout(e) { format!("transport: {op} timeout") } else { format!("transport: {op}") };
    LatticeError::Corrupted { site, detail: e.to_string() }
}

fn frame_err(detail: String) -> LatticeError {
    LatticeError::Corrupted { site: FRAME_SITE.into(), detail }
}

/// Whether an error is a recoverable frame-shape rejection (the
/// connection is still synchronized and usable) rather than a broken
/// or timed-out transport.
pub fn is_frame_error(e: &LatticeError) -> bool {
    matches!(e, LatticeError::Corrupted { site, .. } if site == FRAME_SITE)
}

/// Whether an error is a transport deadline expiry.
pub fn is_timeout_error(e: &LatticeError) -> bool {
    matches!(e, LatticeError::Corrupted { site, .. } if site.contains("timeout"))
}

/// A bound, listening daemon socket.
#[derive(Debug)]
pub struct Listener {
    inner: TcpListener,
}

impl Listener {
    /// Binds and listens on `addr` (use port 0 to let the OS pick).
    pub fn bind(addr: &str) -> Result<Listener, LatticeError> {
        let inner = TcpListener::bind(addr).map_err(|e| io_err("bind", &e))?;
        Ok(Listener { inner })
    }

    /// The bound address (the actual port when bound to port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, LatticeError> {
        self.inner.local_addr().map_err(|e| io_err("local_addr", &e))
    }

    /// Blocks for the next client connection (the accepted connection
    /// gets the default deadlines).
    pub fn accept(&self) -> Result<Connection, LatticeError> {
        let (stream, _) = self.inner.accept().map_err(|e| io_err("accept", &e))?;
        Connection::new(stream)
    }
}

/// One client connection: buffered bounded line reads, one-write line
/// frames, `TCP_NODELAY`, per-operation deadlines.
#[derive(Debug)]
pub struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn new(stream: TcpStream) -> Result<Connection, LatticeError> {
        Connection::with_timeout(stream, Some(DEFAULT_IO_TIMEOUT))
    }

    fn with_timeout(
        stream: TcpStream,
        timeout: Option<Duration>,
    ) -> Result<Connection, LatticeError> {
        stream.set_read_timeout(timeout).map_err(|e| io_err("configure", &e))?;
        stream.set_write_timeout(timeout).map_err(|e| io_err("configure", &e))?;
        stream.set_nodelay(true).map_err(|e| io_err("configure", &e))?;
        let writer = stream.try_clone().map_err(|e| io_err("clone", &e))?;
        Ok(Connection { reader: BufReader::new(stream), writer })
    }

    /// Reads one request line; `None` means the peer closed cleanly.
    /// The trailing newline is stripped. Never buffers more than
    /// [`MAX_FRAME_BYTES`]: an oversized line is discarded through its
    /// terminating newline and reported as a recoverable frame error
    /// ([`is_frame_error`]), leaving the connection synchronized.
    pub fn read_line(&mut self) -> Result<Option<String>, LatticeError> {
        let mut buf: Vec<u8> = Vec::new();
        loop {
            let chunk = self.reader.fill_buf().map_err(|e| io_err("read", &e))?;
            if chunk.is_empty() {
                return if buf.is_empty() {
                    Ok(None)
                } else {
                    Err(LatticeError::Corrupted {
                        site: "transport: read".into(),
                        detail: format!(
                            "truncated frame: peer closed mid-line after {} byte(s)",
                            buf.len()
                        ),
                    })
                };
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if buf.len() + pos > MAX_FRAME_BYTES {
                        let total = buf.len() + pos;
                        self.reader.consume(pos + 1);
                        return Err(oversized(total));
                    }
                    buf.extend_from_slice(&chunk[..pos]);
                    self.reader.consume(pos + 1);
                    break;
                }
                None => {
                    let take = chunk.len();
                    if buf.len() + take > MAX_FRAME_BYTES {
                        self.reader.consume(take);
                        let dropped = self.drain_to_newline()?;
                        return Err(oversized(buf.len() + take + dropped));
                    }
                    buf.extend_from_slice(chunk);
                    self.reader.consume(take);
                }
            }
        }
        while buf.last() == Some(&b'\r') {
            buf.pop();
        }
        match String::from_utf8(buf) {
            Ok(line) => Ok(Some(line)),
            Err(_) => Err(frame_err("frame is not valid UTF-8".into())),
        }
    }

    /// Discards bytes through the next newline (or EOF), returning how
    /// many were dropped — re-synchronizes after an oversized frame.
    fn drain_to_newline(&mut self) -> Result<usize, LatticeError> {
        let mut dropped = 0usize;
        loop {
            let chunk = self.reader.fill_buf().map_err(|e| io_err("read", &e))?;
            if chunk.is_empty() {
                return Ok(dropped);
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    dropped += pos;
                    self.reader.consume(pos + 1);
                    return Ok(dropped);
                }
                None => {
                    let n = chunk.len();
                    dropped += n;
                    self.reader.consume(n);
                }
            }
        }
    }

    /// Writes one line, newline appended, as a single `write_all`: the
    /// frame leaves as one unit instead of a line segment trailed by a
    /// one-byte newline segment.
    pub fn write_line(&mut self, line: &str) -> Result<(), LatticeError> {
        let mut frame = Vec::with_capacity(line.len() + 1);
        frame.extend_from_slice(line.as_bytes());
        frame.push(b'\n');
        self.writer.write_all(&frame).map_err(|e| io_err("write", &e))
    }
}

fn oversized(at_least: usize) -> LatticeError {
    frame_err(format!(
        "frame exceeds the {MAX_FRAME_BYTES}-byte limit ({at_least}+ bytes); frame discarded"
    ))
}

/// A client-side connection speaking the same line protocol.
#[derive(Debug)]
pub struct Client {
    conn: Connection,
}

impl Client {
    /// Connects to a daemon at `addr` with the default deadlines.
    pub fn connect(addr: &str) -> Result<Client, LatticeError> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", &e))?;
        Ok(Client { conn: Connection::new(stream)? })
    }

    /// Connects with an explicit deadline covering the TCP connect and
    /// every subsequent read/write (the `lattice request --timeout`
    /// path).
    pub fn connect_with_timeout(addr: &str, timeout: Duration) -> Result<Client, LatticeError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| io_err("connect", &e))?
            .next()
            .ok_or_else(|| frame_err(format!("address `{addr}` resolves to nothing")))?;
        let stream =
            TcpStream::connect_timeout(&resolved, timeout).map_err(|e| io_err("connect", &e))?;
        Ok(Client { conn: Connection::with_timeout(stream, Some(timeout))? })
    }

    /// Sends one request line and reads one response line.
    pub fn call(&mut self, line: &str) -> Result<String, LatticeError> {
        self.conn.write_line(line)?;
        self.conn.read_line()?.ok_or_else(|| LatticeError::Corrupted {
            site: "transport: call".into(),
            detail: "daemon closed the connection before responding".into(),
        })
    }

    /// Reads one more response line (streamed `stats` samples);
    /// `None` means the daemon closed the stream.
    pub fn read_line(&mut self) -> Result<Option<String>, LatticeError> {
        self.conn.read_line()
    }
}

/// Best-effort self-connection to `addr`, used to unblock a daemon's
/// `accept` loop after shutdown is flagged. Failure is fine — it
/// means the listener is already gone.
pub fn nudge(addr: &SocketAddr) {
    let _ = TcpStream::connect(addr);
}

/// Writes `bytes` verbatim on a fresh connection — no framing, no
/// validation — and, when `read_reply`, reads back one response line
/// (`None` if the daemon closed instead). Dropping the connection on
/// return models a peer vanishing mid-frame. This is the chaos
/// harness's transport-abuse entry point; it lives here because the
/// `raw-socket` lint confines socket types to this module.
pub fn inject_raw(
    addr: &str,
    bytes: &[u8],
    read_reply: bool,
) -> Result<Option<String>, LatticeError> {
    let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", &e))?;
    stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT)).map_err(|e| io_err("configure", &e))?;
    stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT)).map_err(|e| io_err("configure", &e))?;
    let mut writer = stream.try_clone().map_err(|e| io_err("clone", &e))?;
    writer.write_all(bytes).map_err(|e| io_err("write", &e))?;
    writer.flush().map_err(|e| io_err("flush", &e))?;
    if !read_reply {
        return Ok(None);
    }
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) if byte[0] == b'\n' => break,
            Ok(_) => line.push(byte[0]),
            Err(e) => return Err(io_err("read", &e)),
        }
        if line.len() > MAX_FRAME_BYTES {
            return Err(oversized(line.len()));
        }
    }
    Ok(Some(String::from_utf8_lossy(&line).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A connected pair: (the daemon's accepted side, the client).
    fn pair(dial: impl FnOnce(&str) -> Result<Client, LatticeError>) -> (Connection, Client) {
        let listener = Listener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = dial(&addr).unwrap();
        (listener.accept().unwrap(), client)
    }

    fn nodelay(conn: &Connection) -> bool {
        conn.writer.nodelay().unwrap()
    }

    #[test]
    fn both_ends_of_every_connection_disable_nagle() {
        let (server, client) = pair(Client::connect);
        assert!(nodelay(&server), "accepted side");
        assert!(nodelay(&client.conn), "Client::connect");
        let (server, client) =
            pair(|addr| Client::connect_with_timeout(addr, Duration::from_secs(5)));
        assert!(nodelay(&server), "accepted side");
        assert!(nodelay(&client.conn), "Client::connect_with_timeout");
    }

    #[test]
    fn a_written_frame_arrives_as_exactly_one_line() {
        let (mut server, mut client) = pair(Client::connect);
        let line = r#"{"ok":true,"kind":"bye"}"#;
        server.write_line(line).unwrap();
        drop(server);
        assert_eq!(client.read_line().unwrap().as_deref(), Some(line));
        assert_eq!(client.read_line().unwrap(), None, "nothing after the one frame");
    }
}
