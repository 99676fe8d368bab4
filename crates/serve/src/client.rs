//! The scripting/CI client: one TCP connection, line-delimited JSON
//! request/response pairs. `study query` is a thin shell over this.

use crate::request::{write_line, Request, Response};
use std::io::{self, BufRead as _, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A connected client.
#[derive(Debug)]
pub struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects to a server.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(Duration::from_secs(120))).ok();
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client {
            writer: stream,
            reader,
        })
    }

    /// Sends one raw line and returns the raw response line (no
    /// trailing newline).
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a server that closed mid-exchange.
    pub fn exchange_line(&mut self, line: &str) -> io::Result<String> {
        write_line(&mut self.writer, line)?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end_matches(['\n', '\r']).to_string())
    }

    /// Sends one request and parses the response. Application-level
    /// failures arrive as [`Response::Error`]/[`Response::Overloaded`]/
    /// [`Response::Timeout`], not as `Err`.
    ///
    /// # Errors
    ///
    /// Fails on transport errors or an unparseable response line.
    pub fn request(&mut self, request: &Request) -> io::Result<Response> {
        let line = self.exchange_line(&request.render())?;
        Response::parse(&line).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad response line: {e}"),
            )
        })
    }
}
