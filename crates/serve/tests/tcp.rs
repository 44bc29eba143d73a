//! The TCP accept loop outlives bad input and bad clients: a request
//! line that is not UTF-8 gets an in-order `parse` error, a client that
//! closes without reading its responses ends only its own session, and
//! only the shutdown control line stops the loop.

use cta_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

fn plan_line(id: &str) -> String {
    format!("{{\"id\":\"{id}\",\"gpu\":\"GTX570\",\"app\":\"NW\"}}\n")
}

/// Connects, sends `payload`, and (when `responses` is nonzero) reads
/// that many response lines back.
fn session(addr: SocketAddr, payload: &[u8], responses: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("server accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    stream.write_all(payload).expect("send requests");
    if responses == 0 {
        return Vec::new();
    }
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut reader = BufReader::new(stream);
    (0..responses)
        .map(|i| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("response line");
            assert!(line.ends_with('\n'), "response {i} missing: {line:?}");
            line
        })
        .collect()
}

#[test]
fn bad_bytes_and_dropped_clients_do_not_stop_the_server() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a local port");
    let addr = listener.local_addr().expect("bound address");
    let server = Server::new(ServerConfig {
        threads: 2,
        queue_cap: 0,
        ..ServerConfig::default()
    });
    let serving = std::thread::spawn(move || server.serve_tcp(listener));

    // A: a valid line, two bytes that are not UTF-8, a valid line.
    let mut payload = plan_line("a1").into_bytes();
    payload.extend_from_slice(b"\xff\xfe\n");
    payload.extend_from_slice(plan_line("a2").as_bytes());
    let a = session(addr, &payload, 3);
    assert!(
        a[0].contains("\"id\":\"a1\"") && a[0].contains("\"category\""),
        "{}",
        a[0]
    );
    assert!(
        a[1].contains("\"id\":\"\"") && a[1].contains("\"error\":\"parse\""),
        "{}",
        a[1]
    );
    assert!(
        a[2].contains("\"id\":\"a2\"") && a[2].contains("\"category\""),
        "{}",
        a[2]
    );

    // B: 500 requests, then gone without reading a single response.
    let burst: String = (0..500).map(|i| plan_line(&format!("b{i}"))).collect();
    session(addr, burst.as_bytes(), 0);

    // C: still served, and its shutdown line ends the loop.
    let mut payload = plan_line("c").into_bytes();
    payload.extend_from_slice(b"{\"id\":\"bye\",\"op\":\"shutdown\"}\n");
    let c = session(addr, &payload, 2);
    assert!(
        c[0].contains("\"id\":\"c\"") && c[0].contains("\"category\""),
        "{}",
        c[0]
    );
    assert!(c[1].contains("shutting-down"), "{}", c[1]);

    serving
        .join()
        .expect("accept loop does not panic")
        .expect("accept loop ends cleanly on shutdown");
}
