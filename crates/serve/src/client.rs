//! A minimal blocking client for the line-delimited JSON protocol —
//! used by the end-to-end tests and handy for scripting against a
//! running server.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::error::ServeError;
use crate::query::Request;
use sram_probe::json::Json;

/// One connection speaking the request/response line protocol.
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, ServeError> {
        let stream = TcpStream::connect(addr)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            writer,
            reader: BufReader::new(stream),
        })
    }

    /// Bounds how long [`Self::call`] waits for a response line.
    ///
    /// # Errors
    ///
    /// Propagates socket-option failures.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ServeError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends a typed request and reads its response.
    ///
    /// # Errors
    ///
    /// I/O failures, or [`ServeError::Protocol`] when the server's
    /// reply is not valid JSON.
    pub fn call(&mut self, request: &Request) -> Result<Json, ServeError> {
        self.call_line(&request.to_json().render())
    }

    /// Sends a raw request line (everything before the newline) and
    /// reads its response — useful for protocol-level tests.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call`].
    pub fn call_line(&mut self, line: &str) -> Result<Json, ServeError> {
        let mut payload = line.to_string();
        payload.push('\n');
        self.writer.write_all(payload.as_bytes())?;
        self.writer.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(ServeError::Remote("server closed the connection".into()));
        }
        Json::parse(reply.trim_end()).map_err(|e| ServeError::Protocol(e.to_string()))
    }
}

/// A reusable connection to one serve node that survives node restarts.
///
/// [`Client`] is a thin wrapper over one TCP stream: when the stream
/// dies (node restarted, connection dropped by a fault plan), every
/// later call fails. `NodeConn` is the router-side upgrade — it dials
/// lazily on first use, and when a call fails it tears the connection
/// down so the *next* call redials from scratch. The failed call still
/// reports its error: the caller decides whether to retry, hedge, or
/// fail over, so a half-written request is never silently resent.
pub struct NodeConn {
    addr: String,
    timeout: Option<Duration>,
    conn: Option<Client>,
}

impl NodeConn {
    /// Creates a connection handle without dialing; the first call
    /// connects.
    #[must_use]
    pub fn new(addr: impl Into<String>, timeout: Option<Duration>) -> Self {
        Self {
            addr: addr.into(),
            timeout,
            conn: None,
        }
    }

    /// The node address this handle dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Whether a live (last call succeeded) connection is being held.
    #[must_use]
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Drops the held connection; the next call redials.
    pub fn disconnect(&mut self) {
        self.conn = None;
    }

    fn ensure(&mut self) -> Result<&mut Client, ServeError> {
        match self.conn {
            Some(ref mut client) => Ok(client),
            ref mut slot => {
                let mut client = Client::connect(&self.addr)?;
                client.set_timeout(self.timeout)?;
                Ok(slot.insert(client))
            }
        }
    }

    /// Sends one raw request line, dialing or redialing as needed.
    ///
    /// # Errors
    ///
    /// Connection or I/O failures (the handle disconnects itself so the
    /// next call redials), or [`ServeError::Protocol`] on a malformed
    /// reply (the connection is kept — the transport itself is fine).
    pub fn call_line(&mut self, line: &str) -> Result<Json, ServeError> {
        let result = self.ensure().and_then(|c| c.call_line(line));
        if matches!(result, Err(ServeError::Io(_)) | Err(ServeError::Remote(_))) {
            self.disconnect();
        }
        result
    }

    /// Sends a typed request, dialing or redialing as needed.
    ///
    /// # Errors
    ///
    /// Same as [`Self::call_line`].
    pub fn call(&mut self, request: &Request) -> Result<Json, ServeError> {
        self.call_line(&request.to_json().render())
    }
}
