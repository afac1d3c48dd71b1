//! The reference floor: a bare loopback server speaking the proxy's
//! protocol with no cache, no worker pool and no origin.
//!
//! Each acceptor thread accepts a connection, parses the request line,
//! writes the header and the object's precomputed payload, and closes.
//! This is the I/O every proxied request must do anyway, so the proxy's
//! numbers are read against it: the gap is what the cache path costs.

use sc_proxy::fill_content;
use sc_proxy::protocol::{read_request, write_response, Response};
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// A running floor server.
pub struct FloorServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl FloorServer {
    /// Serves `names` (each `object_bytes` long, at `bitrate_bps`) from
    /// `acceptors` threads on an ephemeral localhost port.
    pub fn start(
        names: &[String],
        object_bytes: u64,
        bitrate_bps: f64,
        acceptors: usize,
    ) -> std::io::Result<FloorServer> {
        let payloads: Arc<HashMap<String, Vec<u8>>> = Arc::new(
            names
                .iter()
                .map(|name| {
                    let mut payload = vec![0u8; object_bytes as usize];
                    fill_content(name, 0, &mut payload);
                    (name.clone(), payload)
                })
                .collect(),
        );
        let listener = Arc::new(TcpListener::bind("127.0.0.1:0")?);
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let threads = (0..acceptors.max(1))
            .map(|_| {
                let (listener, stop, payloads) = (
                    Arc::clone(&listener),
                    Arc::clone(&stop),
                    Arc::clone(&payloads),
                );
                std::thread::spawn(move || {
                    for stream in listener.incoming() {
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        if let Ok(stream) = stream {
                            // A failed exchange shows up as a failed check
                            // on the client side.
                            let _ = serve(stream, &payloads, bitrate_bps);
                        }
                    }
                })
            })
            .collect();
        Ok(FloorServer {
            addr,
            stop,
            threads,
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for FloorServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // One wake-up connection per blocked acceptor.
        for _ in &self.threads {
            let _ = TcpStream::connect(self.addr);
        }
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

fn serve(
    stream: TcpStream,
    payloads: &HashMap<String, Vec<u8>>,
    bitrate_bps: f64,
) -> Result<(), sc_proxy::ProxyError> {
    stream.set_nodelay(true)?;
    let request = read_request(&mut BufReader::new(&stream))?;
    let mut out = &stream;
    match payloads.get(&request.name) {
        Some(payload) => {
            let mut header = Vec::with_capacity(64);
            write_response(
                &mut header,
                &Response::Ok {
                    size: payload.len() as u64,
                    bitrate_bps,
                    degraded: false,
                },
            )?;
            out.write_all(&header)?;
            out.write_all(payload)?;
        }
        None => write_response(&mut out, &Response::Err("unknown object".into()))?,
    }
    Ok(())
}
