//! The seeded op draw both wire workloads send: which directory, which
//! op. The program only ever receives these generated inputs; the seed
//! is the benchmark's argument.

use mantle_namespace::OpKind;
use mantle_sim::SimRng;

/// Directories the wire workloads spread their ops over.
pub const DIRS: usize = 512;
/// Zipf exponent of directory popularity (the batch workloads' skew).
pub const EXPONENT: f64 = 1.1;

/// The op mix, in percent: 50 % writes (create 30 / setattr 10 /
/// unlink 10), 50 % reads (stat 25 / open 15 / readdir 10).
const MIX: [(OpKind, u64); 6] = [
    (OpKind::Create, 30),
    (OpKind::SetAttr, 10),
    (OpKind::Unlink, 10),
    (OpKind::Stat, 25),
    (OpKind::OpenRead, 15),
    (OpKind::Readdir, 10),
];

/// One generated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Draw {
    /// Directory index, `0..DIRS`; the path is [`path_of`]`(dir)`.
    pub dir: usize,
    /// The metadata op.
    pub kind: OpKind,
}

/// Path of directory `k`.
pub fn path_of(dir: usize) -> String {
    format!("/bench/d{dir}")
}

/// A deterministic stream of requests for one connection.
#[derive(Debug, Clone)]
pub struct OpDraw {
    rng: SimRng,
    cdf: Vec<f64>,
}

impl OpDraw {
    /// The stream for connection `conn` under `seed`.
    pub fn new(seed: u64, conn: usize) -> OpDraw {
        let mut cdf = Vec::with_capacity(DIRS);
        let mut acc = 0.0;
        for rank in 1..=DIRS {
            acc += 1.0 / (rank as f64).powf(EXPONENT);
            cdf.push(acc);
        }
        for w in &mut cdf {
            *w /= acc;
        }
        OpDraw {
            rng: SimRng::new(seed).stream_n("bench-conn", conn),
            cdf,
        }
    }

    /// The next request.
    pub fn next(&mut self) -> Draw {
        let u = self.rng.f64();
        let dir = self.cdf.partition_point(|&w| w < u).min(DIRS - 1);
        let mut pick = self.rng.below(100);
        let mut kind = MIX[MIX.len() - 1].0;
        for (k, share) in MIX {
            if pick < share {
                kind = k;
                break;
            }
            pick -= share;
        }
        Draw { dir, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_draw_equal_streams() {
        let take = |seed, conn| {
            let mut d = OpDraw::new(seed, conn);
            (0..2_000).map(|_| d.next()).collect::<Vec<_>>()
        };
        assert_eq!(take(42, 0), take(42, 0));
        assert_ne!(take(42, 0), take(43, 0), "the seed changes the stream");
        assert_ne!(take(42, 0), take(42, 1), "connections draw independently");
    }

    #[test]
    fn mix_is_half_writes_and_skewed_to_low_ranks() {
        assert_eq!(MIX.iter().map(|(_, s)| s).sum::<u64>(), 100);
        let mut d = OpDraw::new(7, 0);
        let draws: Vec<Draw> = (0..20_000).map(|_| d.next()).collect();
        let writes = draws
            .iter()
            .filter(|x| matches!(x.kind, OpKind::Create | OpKind::SetAttr | OpKind::Unlink))
            .count();
        assert!(
            (9_000..11_000).contains(&writes),
            "{writes} writes of 20000"
        );
        let hottest = draws.iter().filter(|x| x.dir == 0).count();
        let coldest = draws.iter().filter(|x| x.dir == DIRS - 1).count();
        assert!(hottest > 50 * coldest.max(1), "{hottest} vs {coldest}");
        assert!(draws.iter().all(|x| x.dir < DIRS));
    }
}
