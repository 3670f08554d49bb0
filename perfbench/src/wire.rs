//! Pipelined protocol connections for open-loop load.
//!
//! `Client` requests are synchronous, which would make every load closed
//! loop. A [`Link`] handshakes and runs set-up requests through a `Client`,
//! then splits the socket: the generator writes frames on its own
//! schedule ([`Link::send`]) while a reader thread decodes every frame the
//! server sends and hands it, with its receipt time, to a [`Sink`].

use pubsub_net::{Client, Frame, FrameReader};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Receives every frame a connection's reader thread decodes.
pub trait Sink: Send + 'static {
    /// `frame` arrived in a read that returned at `at`; decoding it took
    /// from `decode_start` to `decode_end`.
    fn frame(&mut self, frame: Frame, at: Instant, decode_start: Instant, decode_end: Instant);
}

/// One protocol connection (one session).
pub struct Link {
    client: Client,
    tx: TcpStream,
    buf: Vec<u8>,
    closing: Arc<AtomicBool>,
}

impl Link {
    /// Connects and opens a new session.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let client = Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let tx = client
            .stream()
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        Ok(Self {
            client,
            tx,
            buf: Vec::with_capacity(4096),
            closing: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The synchronous client, for set-up requests made before
    /// [`Link::reader`] starts (the two must not read the socket at once).
    pub fn client(&mut self) -> &mut Client {
        &mut self.client
    }

    /// The session token.
    pub fn token(&self) -> u64 {
        self.client.token()
    }

    /// Encodes and writes one frame; returns its size in bytes.
    pub fn send(&mut self, frame: &Frame) -> Result<usize, String> {
        self.buf.clear();
        frame.write_to(&mut self.buf);
        self.tx
            .write_all(&self.buf)
            .map_err(|e| format!("sending a frame: {e}"))?;
        Ok(self.buf.len())
    }

    /// Starts the reader thread; it ends when the connection closes and
    /// returns the sink.
    pub fn reader<S: Sink>(&self, mut sink: S) -> Result<JoinHandle<Result<S, String>>, String> {
        let mut stream = self
            .client
            .stream()
            .try_clone()
            .map_err(|e| format!("cloning the socket: {e}"))?;
        let closing = Arc::clone(&self.closing);
        std::thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || {
                let mut frames = FrameReader::new();
                let mut buf = vec![0u8; 64 * 1024];
                loop {
                    let n = match stream.read(&mut buf) {
                        Ok(0) => return Ok(sink),
                        Ok(n) => n,
                        Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                        Err(_) if closing.load(Ordering::SeqCst) => return Ok(sink),
                        Err(e) => return Err(format!("reading from the server: {e}")),
                    };
                    let at = Instant::now();
                    frames.extend(&buf[..n]);
                    loop {
                        let start = Instant::now();
                        match frames.next_frame() {
                            Ok(Some(frame)) => sink.frame(frame, at, start, Instant::now()),
                            Ok(None) => break,
                            Err(e) => return Err(format!("bad frame from the server: {e}")),
                        }
                    }
                }
            })
            .map_err(|e| format!("spawning a reader: {e}"))
    }

    /// Shuts the connection down, which ends its reader thread.
    pub fn close(&self) {
        self.closing.store(true, Ordering::SeqCst);
        let _ = self.tx.shutdown(Shutdown::Both);
    }
}
