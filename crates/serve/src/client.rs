//! Minimal blocking HTTP/1.1 client for the scenario service.
//!
//! Shared by the `b8_service` load generator, the check.sh smoke gate and
//! the integration tests so they all exercise the server over a real TCP
//! socket instead of poking internals. Keep-alive is used by default: one
//! [`Client`] holds one connection and can issue many requests.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One parsed response.
#[derive(Debug)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First header with the given lowercase name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to the service.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connects to `addr` (e.g. `127.0.0.1:8080`).
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: &str) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        // Generous budget: a queued scenario batch can legitimately take
        // seconds; hangs beyond this indicate a wedged server.
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        let writer = BufWriter::new(stream);
        Ok(Client { reader, writer })
    }

    /// Sends one request and reads the response.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or responses this minimal client cannot
    /// frame (no `Content-Length`).
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<ClientResponse> {
        write!(
            self.writer,
            "{method} {path} HTTP/1.1\r\nhost: gather-serve\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )?;
        self.writer.write_all(body)?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Convenience: `GET` with an empty body.
    ///
    /// # Errors
    ///
    /// Same as [`request`](Client::request).
    pub fn get(&mut self, path: &str) -> io::Result<ClientResponse> {
        self.request("GET", path, b"")
    }

    /// Convenience: `POST /v1/run` with a JSON body.
    ///
    /// # Errors
    ///
    /// Same as [`request`](Client::request).
    pub fn post_run(&mut self, json_body: &str) -> io::Result<ClientResponse> {
        self.request("POST", "/v1/run", json_body.as_bytes())
    }

    /// Convenience: `POST /v1/batch` (the amortised mega-batch endpoint)
    /// with a JSON body.
    ///
    /// # Errors
    ///
    /// Same as [`request`](Client::request).
    pub fn post_batch(&mut self, json_body: &str) -> io::Result<ClientResponse> {
        self.request("POST", "/v1/batch", json_body.as_bytes())
    }

    /// Convenience: `POST /v1/trace` with a JSON `ScenarioSpec` body (the
    /// same body shape as `/v1/run`). The chunked trace/v2 document —
    /// header line plus NDJSON round lines — arrives fully decoded in
    /// [`ClientResponse::body`].
    ///
    /// # Errors
    ///
    /// Same as [`request`](Client::request).
    pub fn post_trace(&mut self, json_body: &str) -> io::Result<ClientResponse> {
        self.request("POST", "/v1/trace", json_body.as_bytes())
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        while line.ends_with('\n') || line.ends_with('\r') {
            line.pop();
        }
        Ok(line)
    }

    fn read_response(&mut self) -> io::Result<ClientResponse> {
        let status_line = self.read_line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut headers = Vec::new();
        loop {
            let line = self.read_line()?;
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
            }
        }
        let response = ClientResponse {
            status,
            headers,
            body: Vec::new(),
        };
        if response
            .header("transfer-encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
        {
            let body = self.read_chunked_body()?;
            return Ok(ClientResponse { body, ..response });
        }
        let len: usize = response
            .header("content-length")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    "response without content-length",
                )
            })?;
        let mut body = vec![0u8; len];
        self.reader.read_exact(&mut body)?;
        Ok(ClientResponse { body, ..response })
    }

    /// Decodes a chunked body: hex size line, that many bytes, CRLF,
    /// repeated until the `0` chunk and its trailing blank line.
    fn read_chunked_body(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let size_line = self.read_line()?;
            let size = usize::from_str_radix(size_line.trim(), 16).map_err(|_| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad chunk size line {size_line:?}"),
                )
            })?;
            if size == 0 {
                // Trailer section: blank line terminates the response.
                loop {
                    if self.read_line()?.is_empty() {
                        return Ok(body);
                    }
                }
            }
            let at = body.len();
            body.resize(at + size, 0);
            self.reader.read_exact(&mut body[at..])?;
            let crlf = self.read_line()?;
            if !crlf.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    "chunk data not followed by CRLF",
                ));
            }
        }
    }
}
