//! Host calibration: the floors the server cannot beat on this machine, and
//! the canary that says whether the machine was quiet while we measured.

use crate::json::Json;
use crate::stats::median;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Host {
    /// One-byte ping-pong over a loopback std socket, p50 in µs: the floor of
    /// any request's latency, and the noise canary.
    pub tcp_rtt_us: f64,
    /// 64-byte append + `sync_data` in the data directory's filesystem, p50
    /// in µs: the floor of a durable update.
    pub fsync_us: f64,
    /// Large `memcpy`, GB copied per second: the denominator for kernel
    /// bytes/s.
    pub memcpy_gb_s: f64,
    pub nproc: usize,
}

impl Host {
    pub fn measure(dir: &Path) -> Result<Host, String> {
        Ok(Host {
            tcp_rtt_us: tcp_rtt_us().map_err(|e| format!("tcp calibration: {e}"))?,
            fsync_us: fsync_us(dir).map_err(|e| format!("fsync calibration: {e}"))?,
            memcpy_gb_s: memcpy_gb_s(),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        })
    }

    pub fn from_json(doc: &Json) -> Option<Host> {
        Some(Host {
            tcp_rtt_us: doc.num_at("tcp_rtt_us")?,
            fsync_us: doc.num_at("fsync_us")?,
            memcpy_gb_s: doc.num_at("memcpy_gb_s")?,
            nproc: doc.num_at("nproc")? as usize,
        })
    }

    pub fn to_json(self) -> Json {
        Json::obj([
            ("tcp_rtt_us", Json::Num(self.tcp_rtt_us)),
            ("fsync_us", Json::Num(self.fsync_us)),
            ("memcpy_gb_s", Json::Num(self.memcpy_gb_s)),
            ("nproc", Json::Num(self.nproc as f64)),
        ])
    }
}

fn tcp_rtt_us() -> std::io::Result<f64> {
    const WARM_UP: usize = 200;
    const SAMPLES: usize = 3000;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let echo = std::thread::spawn(move || -> std::io::Result<()> {
        let (mut peer, _) = listener.accept()?;
        peer.set_nodelay(true)?;
        let mut byte = [0u8; 1];
        while peer.read(&mut byte)? == 1 {
            peer.write_all(&byte)?;
        }
        Ok(())
    });
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut byte = [7u8; 1];
    let mut samples = Vec::with_capacity(SAMPLES);
    for i in 0..WARM_UP + SAMPLES {
        let start = Instant::now();
        stream.write_all(&byte)?;
        stream.read_exact(&mut byte)?;
        if i >= WARM_UP {
            samples.push(start.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    drop(stream);
    echo.join()
        .map_err(|_| std::io::Error::other("echo thread panicked"))??;
    Ok(median(&samples))
}

fn fsync_us(dir: &Path) -> std::io::Result<f64> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join("fsync-probe");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    let mut samples = Vec::new();
    for _ in 0..40 {
        let start = Instant::now();
        file.write_all(&[0u8; 64])?;
        file.sync_data()?;
        samples.push(start.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(file);
    std::fs::remove_file(&path)?;
    Ok(median(&samples))
}

fn memcpy_gb_s() -> f64 {
    const BYTES: usize = 32 << 20;
    let src = vec![1u8; BYTES];
    let mut dst = vec![0u8; BYTES];
    let mut best = f64::INFINITY;
    for _ in 0..6 {
        let start = Instant::now();
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
        best = best.min(start.elapsed().as_secs_f64());
    }
    BYTES as f64 / best / 1e9
}
