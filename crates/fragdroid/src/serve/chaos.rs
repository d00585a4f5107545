//! Deterministic, seeded chaos for the serve transport: a stream
//! wrapper that shreds writes into tiny chunks (torn frames on the
//! wire), injects short stalls, and tears the connection down
//! mid-write on a seeded schedule. Used by the chaos-mode
//! [`super::SubmitClient`], `bench_serve`, and the serve property
//! tests to prove the server survives hostile transport behavior:
//! under *any* seed the submitted job still ends as a byte-identical
//! report or a typed error.
//!
//! Same seed → same schedule: every decision comes from one `StdRng`,
//! so a failing chaos run replays exactly.

use rand::{rngs::StdRng, Rng, SeedableRng};
use std::io::{Read, Write};
use std::time::Duration;

/// The knobs of one chaos schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Seed of the `StdRng` every decision draws from.
    pub seed: u64,
    /// Writes and reads are shredded into chunks of at most this many
    /// bytes (minimum 1), so frames arrive torn across many segments.
    pub max_chunk: usize,
    /// Stalls sleep up to this many milliseconds; 0 disables stalls.
    pub stall_ms: u64,
    /// Per-connection probability (in thousandths) that the connection
    /// tears: when armed, a seeded byte offset inside the first
    /// `TEAR_WINDOW` (4096) written bytes is chosen, a partial chunk goes
    /// out at that offset, and the stream errors until reconnect. The
    /// roll is per connection — not per write — so a retrying client
    /// always converges no matter how large its frames are.
    pub tear_per_mille: u32,
    /// Per-request probability (in thousandths) that the client
    /// re-sends its previous frame before the new one — an
    /// out-of-order duplicate the server must absorb idempotently.
    pub dup_per_mille: u32,
}

/// Tears land inside the first this-many written bytes of a torn
/// connection, so both tiny and huge frames get torn mid-frame.
pub const TEAR_WINDOW: u64 = 4096;

impl ChaosConfig {
    /// A schedule with every mischief armed at moderate rates.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, max_chunk: 7, stall_ms: 1, tear_per_mille: 150, dup_per_mille: 50 }
    }

    /// Derives the schedule for the `n`-th connection of a client, so
    /// reconnects get fresh (but still seed-determined) schedules.
    pub(crate) fn for_connection(&self, n: u64) -> ChaosConfig {
        let mut derived = self.clone();
        derived.seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(n);
        derived
    }
}

/// A `Read + Write` stream that misbehaves on a seeded schedule.
pub struct ChaosStream<S> {
    inner: S,
    rng: StdRng,
    config: ChaosConfig,
    torn: bool,
    tear_at: Option<u64>,
    written: u64,
}

impl<S> ChaosStream<S> {
    /// Wraps `inner` under `config`'s schedule.
    pub fn new(inner: S, config: ChaosConfig) -> ChaosStream<S> {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let tear_at = (rng.gen_range(0u32..1000) < config.tear_per_mille)
            .then(|| rng.gen_range(0u64..TEAR_WINDOW));
        ChaosStream { inner, rng, config, torn: false, tear_at, written: 0 }
    }

    /// Whether the schedule already tore this connection down.
    pub fn is_torn(&self) -> bool {
        self.torn
    }

    fn maybe_stall(&mut self) {
        if self.config.stall_ms > 0 {
            let ms = self.rng.gen_range(0..=self.config.stall_ms);
            if ms > 0 {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
    }

    fn chunk(&mut self, len: usize) -> usize {
        let cap = self.config.max_chunk.max(1);
        self.rng.gen_range(1..=cap).min(len)
    }
}

impl<S: Read> Read for ChaosStream<S> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.torn {
            return Err(torn_error());
        }
        if buf.is_empty() {
            return self.inner.read(buf);
        }
        self.maybe_stall();
        let want = self.chunk(buf.len());
        self.inner.read(&mut buf[..want])
    }
}

impl<S: Write> Write for ChaosStream<S> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.torn {
            return Err(torn_error());
        }
        if buf.is_empty() {
            return Ok(0);
        }
        self.maybe_stall();
        let want = self.chunk(buf.len());
        if let Some(at) = self.tear_at {
            if self.written + want as u64 > at {
                // Mid-frame disconnect: push the partial chunk up to
                // the armed offset onto the wire (the server sees a
                // torn frame), then fail every further operation until
                // the client reconnects.
                let torn_len = (at - self.written) as usize;
                if torn_len > 0 {
                    let _ = self.inner.write(&buf[..torn_len]);
                    let _ = self.inner.flush();
                }
                self.torn = true;
                return Err(torn_error());
            }
        }
        let n = self.inner.write(&buf[..want])?;
        self.written += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.torn {
            return Err(torn_error());
        }
        self.inner.flush()
    }
}

fn torn_error() -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::BrokenPipe, "chaos: connection torn")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A same-seeded pair of chaos streams over in-memory buffers makes
    /// identical chunking/tear decisions.
    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut out: Vec<(usize, bool)> = Vec::new();
            let mut stream = ChaosStream::new(
                Vec::<u8>::new(),
                ChaosConfig { stall_ms: 0, ..ChaosConfig::from_seed(seed) },
            );
            for _ in 0..64 {
                match stream.write(&[0u8; 64]) {
                    Ok(n) => out.push((n, false)),
                    Err(_) => {
                        out.push((0, true));
                        break;
                    }
                }
            }
            out
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8), "different seeds diverge");
    }

    /// A `tear_per_mille: 1000` connection tears inside the tear
    /// window, and a torn stream stays torn: every later operation
    /// fails until the caller reconnects with a fresh wrapper.
    #[test]
    fn torn_is_sticky() {
        let config = ChaosConfig { tear_per_mille: 1000, stall_ms: 0, ..ChaosConfig::from_seed(1) };
        let mut stream = ChaosStream::new(std::io::Cursor::new(Vec::<u8>::new()), config);
        let mut wrote = 0u64;
        while stream.write(&[0u8; 64]).map(|n| wrote += n as u64).is_ok() {
            assert!(wrote <= TEAR_WINDOW, "tear must land inside the window");
        }
        assert!(stream.is_torn());
        assert!(stream.write(b"again").is_err());
        assert!(stream.flush().is_err());
        let mut buf = [0u8; 4];
        assert!(stream.read(&mut buf).is_err());
    }

    /// Chunking never writes more than `max_chunk` bytes at once.
    #[test]
    fn chunks_respect_the_cap() {
        let config = ChaosConfig {
            tear_per_mille: 0,
            stall_ms: 0,
            max_chunk: 3,
            ..ChaosConfig::from_seed(11)
        };
        let mut stream = ChaosStream::new(Vec::<u8>::new(), config);
        for _ in 0..32 {
            let n = stream.write(&[7u8; 100]).expect("no tears armed");
            assert!((1..=3).contains(&n));
        }
    }
}
