//! A minimal protocol client: single requests, pipelined batches, and a
//! scripted-session driver for the CLI and the CI smoke job.
//!
//! [`ServeClient::request_batch`] pipelines: it writes every request
//! line, flushes once, then reads the matching responses. Responses are
//! served strictly in request order (the server handles one line at a
//! time per connection), so alignment is positional — this is what lets
//! a single reader connection sustain deep queues without paying one
//! round trip per query.

use pcf_rng::json::Json;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// A client-side failure: transport or protocol.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level failure.
    Io(io::Error),
    /// The server sent something that is not a protocol response.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(what) => write!(f, "protocol error: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

/// One connection to a `pcf serve` daemon.
pub struct ServeClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The response line being read, reused for every response.
    line: String,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7474`).
    pub fn connect(addr: &str) -> Result<ServeClient, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
            line: String::new(),
        })
    }

    /// Sends one request line and reads its response.
    pub fn request(&mut self, line: &str) -> Result<Json, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Pipelines a batch: writes every request, flushes once, then reads
    /// the responses in request order.
    pub fn request_batch<S: AsRef<str>>(&mut self, lines: &[S]) -> Result<Vec<Json>, ClientError> {
        for line in lines {
            self.writer.write_all(line.as_ref().as_bytes())?;
            self.writer.write_all(b"\n")?;
        }
        self.writer.flush()?;
        lines.iter().map(|_| self.read_response()).collect()
    }

    fn read_response(&mut self) -> Result<Json, ClientError> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(ClientError::Protocol(
                "connection closed before response".into(),
            ));
        }
        Json::parse(self.line.trim()).map_err(|e| {
            ClientError::Protocol(format!("unparseable response: {e}: {:?}", self.line))
        })
    }
}

/// Outcome of a scripted session.
#[derive(Debug, Clone, Default)]
pub struct ScriptReport {
    /// Commands sent.
    pub commands: usize,
    /// Responses that violated the protocol or the script's expectation.
    pub violations: usize,
    /// `(request, response)` pairs in order.
    pub transcript: Vec<(String, String)>,
}

impl ScriptReport {
    /// True when every response matched its expectation.
    pub fn clean(&self) -> bool {
        self.violations == 0
    }
}

/// Runs a command script against a server: one JSON command per line,
/// `#` comments and blank lines skipped. A line prefixed with `!` is
/// expected to fail (`"ok":false`); every other line must succeed. Any
/// mismatch — including an unparseable response — counts as a violation.
pub fn run_script(addr: &str, script: &str) -> Result<ScriptReport, ClientError> {
    let mut client = ServeClient::connect(addr)?;
    let mut report = ScriptReport::default();
    for raw in script.lines() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (expect_ok, cmd) = match line.strip_prefix('!') {
            Some(rest) => (false, rest.trim()),
            None => (true, line),
        };
        let resp = client.request(cmd)?;
        let ok = resp.get("ok").and_then(Json::as_bool);
        if ok != Some(expect_ok) {
            report.violations += 1;
        }
        report.commands += 1;
        report.transcript.push((cmd.to_string(), resp.render()));
    }
    Ok(report)
}
